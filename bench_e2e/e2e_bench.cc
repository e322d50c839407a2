/**
 * @file
 * End-to-end runner of the benchmark: bytes (or circuits) in, counts
 * out, through the library's public entry points.
 *
 *   e2e_bench --workload frontdoor_1q|circuits_2q|fleet_faulted
 *             --seed N --seconds S --mode timed|check|trace
 *
 * timed  Set up several times (setup_s is the median), then run the
 *        closed loop for S seconds with tracing off and report the
 *        end-to-end metrics.
 * check  Run the closed loop only until the digest prefix completed;
 *        run.py runs this on a thread pool and compares its counts
 *        digest with the timed run's.
 * trace  Run a fixed number of jobs untraced, again with the shot
 *        loops spread over the whole pool, then traced, then replay a
 *        seeded sample of the inputs call by call; report the
 *        per-layer ledger.
 *
 * Human-readable lines go first; the last stdout line is one JSON
 * object that run.py reads. Any failed output check clears
 * "correct" and makes the exit code 1.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "compile/compiler.h"
#include "device/fault_injector.h"
#include "device/resilient_executor.h"
#include "device/schedule_validation.h"
#include "ingest/frontend.h"
#include "ingest/openpulse.h"
#include "linalg/simd.h"
#include "service/backend_pool.h"
#include "service/execution_service.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

#include "ledger.h"
#include "workloads.h"

using namespace qpulse;
using telemetry::TraceEvent;
using telemetry::TraceSpan;
using telemetry::Tracer;

namespace e2e {
namespace {

/** Inputs the traced run replays call by call. */
constexpr std::size_t kReplaySamples = 16;

/**
 * Limits of the output checks on counts. Shots carry no per-shot
 * noise, so a job's counts are a multinomial draw from the noise-free
 * populations of its schedule, and the TVD between those populations
 * and the gate-level reference is the job's infinite-shot (systematic)
 * error. Measured over distinct inputs: the 16 DirectRx angles stay
 * below 0.00022; 1400 circuits_2q circuits (140 from each of ten
 * seeds) reach 0.170 at most and average 0.034-0.041 per seed.
 */
struct TvdLimits
{
    /** Systematic error of any one input. */
    double systematicMax = 0.0;
    /** Systematic error averaged over the inputs of a run. */
    double systematicMean = 0.0;
    /**
     * TVD between counts and the populations they are drawn from that
     * sampling exceeds with probability below 1e-7 per job: from the
     * exact multinomial distribution with the worst reference, 0.083
     * for two outcomes at 1024 shots (p = 1/2), 0.335 for four at 64.
     */
    double samplingTail = 0.0;
};

TvdLimits
tvdLimits(Workload workload)
{
    if (workload == Workload::Circuits2q)
        return {0.2, 0.05, 0.34};
    return {0.001, 0.001, 0.085};
}

std::int64_t
nowNs()
{
    return static_cast<std::int64_t>(Tracer::nowNs());
}

/** CPU time of the whole process: every thread's work, none of the
 *  time the process waited for a CPU. */
std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double
msBetween(std::int64_t from, std::int64_t to)
{
    return static_cast<double>(to - from) / 1e6;
}

/** A moment on both clocks. */
struct Stamp
{
    std::int64_t wall = -1;
    std::int64_t cpu = -1;

    static Stamp now() { return {nowNs(), cpuNs()}; }
    bool set() const { return wall >= 0; }
};

/** The service layers over one substrate (rebuilt per leg). */
struct Stack
{
    std::unique_ptr<ExecutionService> service;
    std::unique_ptr<ingest::RequestFrontEnd> front;
};

/** Weight of the tenant of fleet connection `c`: 1, 2, 3, 1. */
double
tenantWeight(std::size_t c)
{
    return 1.0 + static_cast<double>(c % 3);
}

/**
 * The mild fleet: one flaky member, one that drifts, one whose AWG
 * emits NaN samples and whose readout flips, one near-healthy. The
 * plans' seed is part of the workload, like the calibration: --seed
 * varies what the clients send, not the fault environment.
 */
std::shared_ptr<BackendPool>
faultedFleet(const Substrate &substrate)
{
    auto pool = std::make_shared<BackendPool>();
    FaultPlan base;
    base.seed = 0xF1EE7;
    for (std::size_t i = 0; i < 4; ++i) {
        std::string name = "b";
        name += std::to_string(i);
        pool->addBackend(name, substrate.backend, substrate.sim);
        FaultPlan plan = base.deriveForBackend(i);
        plan.transientRate = i == 0 ? 0.3 : 0.05;
        if (i == 1) {
            plan.driftRate = 0.02;
            plan.driftFreqKhz = 4000.0;
            plan.driftAmpError = 0.15;
        }
        if (i == 2) {
            plan.awgNanRate = 0.05;
            plan.readoutFlipRate = 0.02;
        }
        pool->setFaultInjector(name, std::make_shared<FaultInjector>(plan));
    }
    return pool;
}

/** `max_threads` caps every job's shot loop (0: the whole pool). */
Stack
buildStack(Workload workload, const Substrate &substrate,
           std::size_t max_threads = 0)
{
    const Shape shape = shapeOf(workload);
    ServicePolicy policy;
    policy.queueCapacity = 64;
    policy.maxThreads = max_threads;
    Stack stack;
    if (workload == Workload::FleetFaulted) {
        for (int c = 0; c < shape.connections; ++c) {
            std::string tenant = "t";
            tenant += std::to_string(c);
            policy.fleet.tenants[tenant].weight =
                tenantWeight(static_cast<std::size_t>(c));
        }
        stack.service = std::make_unique<ExecutionService>(
            faultedFleet(substrate), policy);
    } else {
        policy.compileMode = CompileMode::Optimized;
        // At 64 shots the drift watchdog's proxy (the dominant state's
        // share of the counts) has a sampling sd of up to 0.0625, so the
        // default tolerance of 0.08 recalibrates and re-runs about one
        // job in six on noise alone, and which drains pay for it
        // depends on the seed. 0.25 is four sd: it flags drift, not
        // sampling.
        if (workload == Workload::Circuits2q)
            policy.watchdog.tolerance = 0.25;
        stack.service = std::make_unique<ExecutionService>(
            substrate.backend, substrate.sim, policy);
    }
    if (shape.chunkShots > 0) {
        ingest::FrontEndPolicy front;
        front.budget = ChannelBudget::fromConfig(substrate.config);
        front.streamBatchShots = shape.chunkShots;
        stack.front = std::make_unique<ingest::RequestFrontEnd>(
            *stack.service, front);
    }
    return stack;
}

/** One client job as the benchmark saw it. */
struct Record
{
    std::size_t job = 0;   ///< Client job number (generator order).
    std::size_t input = 0; ///< Distinct input it carried.
    Stamp send;
    Stamp firstResult;
    Stamp done;
    bool completed = false; ///< Terminal status ok.
    bool ok = false;        ///< Completed, counts summing to the shots.
    double tvd = 0.0;
    std::vector<long> counts;
};

/** When the closed loop stops sending. */
struct StopRule
{
    double seconds = 0.0;     ///< Timed: at least this long ...
    std::size_t minJobs = 0;  ///< ... and at least this many done.
    std::size_t fixedJobs = 0; ///< Fixed-size leg: send exactly this many.
    bool prefixOnly = false;  ///< Check: stop once the prefix is done.
};

/** Spans and queue waits of a traced leg. */
struct Tracing
{
    std::vector<TraceEvent> events;
    std::vector<double> queueWaitMs;

    /**
     * Drain the spans of one pump/drain iteration. The k-th
     * service.job span of the iteration ran the job with drainSeq k;
     * its queue wait runs from that job's send (deliver or submit),
     * `send_by_seq[k]`, to the span's start. A span with no matching
     * send (none in these workloads) is timed from `pump_start`.
     */
    void collect(const std::vector<std::int64_t> &send_by_seq,
                 std::int64_t pump_start)
    {
        std::vector<TraceEvent> batch = Tracer::instance().drain();
        std::vector<std::int64_t> starts;
        for (const TraceEvent &e : batch)
            if (e.tid == 0 && std::string_view(e.name) == "service.job")
                starts.push_back(static_cast<std::int64_t>(e.startNs));
        std::sort(starts.begin(), starts.end());
        for (std::size_t k = 0; k < starts.size(); ++k) {
            const std::int64_t sent =
                k < send_by_seq.size() ? send_by_seq[k] : pump_start;
            queueWaitMs.push_back(msBetween(sent, starts[k]));
        }
        events.insert(events.end(), batch.begin(), batch.end());
    }
};

struct LoopResult
{
    std::vector<Record> records;
    Stamp start;
    Stamp end;
};

class ClosedLoop
{
  public:
    ClosedLoop(Workload workload, const Inputs &inputs, Stack &stack,
               StopRule rule, Tracing *tracing)
        : shape_(shapeOf(workload)), fleet_(workload == Workload::FleetFaulted),
          inputs_(inputs), stack_(stack), rule_(rule), tracing_(tracing),
          subspace_(qubitSubspace(workload))
    {}

    LoopResult run()
    {
        result_.start = Stamp::now();
        if (stack_.front)
            runFrontEnd();
        else
            runCircuits();
        result_.end = Stamp::now();
        return std::move(result_);
    }

  private:
    bool keepSending() const
    {
        if (rule_.fixedJobs > 0)
            return sent_ < rule_.fixedJobs;
        // Sending goes on until the digest prefix finished, so a check
        // run sees the same event history up to that point.
        const bool prefix_done = prefixDone_ >= shape_.prefix;
        if (rule_.prefixOnly)
            return !prefix_done;
        const double elapsed = msBetween(result_.start.wall, nowNs()) / 1e3;
        return elapsed < rule_.seconds || terminal_ < rule_.minJobs ||
               !prefix_done || sent_ % shape_.block != 0;
    }

    const Job &jobFor(std::size_t j) const
    {
        return inputs_.jobs[j % inputs_.jobs.size()];
    }

    std::size_t addRecord(std::size_t j)
    {
        Record record;
        record.job = j;
        record.input = jobFor(j).input;
        record.send = Stamp::now();
        result_.records.push_back(std::move(record));
        ++sent_;
        return result_.records.size() - 1;
    }

    void finish(Record &record, Stamp at, bool ok,
                const std::vector<long> &counts)
    {
        record.done = at;
        if (!record.firstResult.set())
            record.firstResult = at;
        long total = 0;
        for (long c : counts)
            total += c;
        record.completed = ok;
        record.ok = ok && total == shape_.shots;
        if (record.ok)
            record.tvd = countsTvd(counts, inputs_.distinct[record.input].ideal,
                                   subspace_);
        record.counts = counts;
        if (record.job < shape_.prefix)
            ++prefixDone_;
        ++terminal_;
    }

    // --- RequestFrontEnd workloads -------------------------------------

    struct Event
    {
        ingest::StreamEventKind kind;
        int connection;
        std::uint64_t request;
        Stamp at;
        std::vector<long> counts;
    };

    void runFrontEnd()
    {
        ingest::RequestFrontEnd &front = *stack_.front;
        front.setEventSink([this](const ingest::StreamEvent &ev) {
            if (ev.kind == ingest::StreamEventKind::Accepted)
                return;
            const bool done = ev.kind == ingest::StreamEventKind::Completed;
            events_.push_back(Event{ev.kind, ev.connection, ev.request,
                                    Stamp::now(),
                                    done ? ev.counts : std::vector<long>{}});
        });
        const std::size_t connections =
            static_cast<std::size_t>(shape_.connections);
        std::vector<int> ids(connections);
        std::vector<std::size_t> nextSeq(connections, 0);
        std::vector<bool> busy(connections, false);
        std::map<int, std::size_t> slotOf;
        for (std::size_t c = 0; c < connections; ++c) {
            ids[c] = front.open();
            slotOf[ids[c]] = c;
        }

        const auto send = [&](std::size_t c) {
            const std::size_t j = nextSeq[c]++ * connections + c;
            const std::size_t index = addRecord(j);
            std::uint64_t ordinal = 0;
            {
                TraceSpan span("e2e.deliver");
                ordinal = front.deliver(ids[c], jobFor(j).envelope);
            }
            byOrdinal_[ordinal] = index;
            busy[c] = true;
        };
        const auto route = [&]() {
            for (Event &ev : events_) {
                const auto it = byOrdinal_.find(ev.request);
                if (it == byOrdinal_.end())
                    continue;
                Record &record = result_.records[it->second];
                if (ev.kind == ingest::StreamEventKind::Partial) {
                    if (!record.firstResult.set())
                        record.firstResult = ev.at;
                    continue;
                }
                finish(record, ev.at,
                       ev.kind == ingest::StreamEventKind::Completed,
                       ev.counts);
                busy[slotOf[ev.connection]] = false;
            }
            events_.clear();
        };

        for (std::size_t c = 0; c < connections && keepSending(); ++c)
            send(c);
        route();
        for (;;) {
            bool any = false;
            for (bool b : busy)
                any = any || b;
            if (!any)
                break;
            const std::int64_t pumpStart = nowNs();
            {
                TraceSpan span("e2e.pump");
                front.pump();
            }
            if (tracing_ != nullptr)
                tracing_->collect(drainedSends(slotOf), pumpStart);
            route();
            for (std::size_t c = 0; c < connections; ++c)
                if (!busy[c] && keepSending()) {
                    send(c);
                    route();
                }
        }
        front.setEventSink(nullptr); // The sink points into this loop.
    }

    /**
     * Send times of the chunks the last pump drained, in execution
     * (drainSeq) order. The pump emits one event per drained chunk, in
     * submission order. The single backend runs the chunks in that
     * order, as all priorities are equal. The fleet interleaves tenants
     * by weight, and each tenant has at most one chunk in a drain (one
     * connection per tenant, one request in flight per connection, one
     * chunk per request and pump), so it runs the heaviest tenant first
     * and breaks ties by tenant name, "t<slot>".
     */
    std::vector<std::int64_t>
    drainedSends(const std::map<int, std::size_t> &slot_of) const
    {
        struct Chunk
        {
            std::size_t slot;
            std::int64_t sent;
        };
        std::vector<Chunk> chunks;
        for (const Event &ev : events_) {
            const auto it = byOrdinal_.find(ev.request);
            if (it != byOrdinal_.end())
                chunks.push_back({slot_of.at(ev.connection),
                                  result_.records[it->second].send.wall});
        }
        if (fleet_)
            std::sort(chunks.begin(), chunks.end(),
                      [](const Chunk &a, const Chunk &b) {
                          const double wa = tenantWeight(a.slot);
                          const double wb = tenantWeight(b.slot);
                          return wa != wb ? wa > wb : a.slot < b.slot;
                      });
        std::vector<std::int64_t> sends;
        for (const Chunk &chunk : chunks)
            sends.push_back(chunk.sent);
        return sends;
    }

    // --- circuit-carrying jobs ----------------------------------------

    void runCircuits()
    {
        ExecutionService &service = *stack_.service;
        while (keepSending()) {
            std::map<std::string, std::size_t> byKey;
            for (int i = 0; i < shape_.batch; ++i) {
                const std::size_t j = sent_;
                const Job &job = jobFor(j);
                const std::size_t index = addRecord(j);
                JobRequest request;
                request.circuit = job.circuit;
                request.shots = job.shots;
                request.seed = job.seed;
                request.key = job.key;
                Status status;
                {
                    TraceSpan span("e2e.submit");
                    status = service.submit(std::move(request));
                }
                if (status.ok())
                    byKey[job.key] = index;
                else
                    finish(result_.records[index], Stamp::now(), false, {});
            }
            std::vector<JobOutcome> outcomes;
            const std::int64_t drainStart = nowNs();
            {
                TraceSpan span("e2e.drain");
                outcomes = service.drain();
            }
            const Stamp done = Stamp::now();
            std::vector<std::int64_t> sendBySeq(outcomes.size(), drainStart);
            for (const JobOutcome &outcome : outcomes) {
                const auto it = byKey.find(outcome.key);
                if (it == byKey.end())
                    continue;
                Record &record = result_.records[it->second];
                if (outcome.drainSeq >= 0 &&
                    static_cast<std::size_t>(outcome.drainSeq) <
                        sendBySeq.size())
                    sendBySeq[static_cast<std::size_t>(outcome.drainSeq)] =
                        record.send.wall;
                finish(record, done, outcome.status.ok(),
                       outcome.execution.result.counts);
            }
            if (tracing_ != nullptr)
                tracing_->collect(sendBySeq, drainStart);
        }
    }

    Shape shape_;
    bool fleet_;
    const Inputs &inputs_;
    Stack &stack_;
    StopRule rule_;
    Tracing *tracing_;
    std::vector<std::size_t> subspace_;
    LoopResult result_;
    std::vector<Event> events_;
    std::map<std::uint64_t, std::size_t> byOrdinal_;
    std::size_t sent_ = 0;
    std::size_t terminal_ = 0;
    std::size_t prefixDone_ = 0;
};

/** Counts digest over the prefix jobs, in job order. */
std::uint64_t
countsDigest(const LoopResult &loop, std::size_t prefix)
{
    std::vector<const Record *> ordered(prefix, nullptr);
    for (const Record &r : loop.records)
        if (r.job < prefix)
            ordered[r.job] = &r;
    std::uint64_t hash = kFnvBasis;
    for (const Record *r : ordered) {
        if (r == nullptr)
            continue;
        hash = fnv1a(hash, &r->job, sizeof r->job);
        hash = fnv1a(hash, r->counts.data(), r->counts.size() * sizeof(long));
    }
    return hash;
}

// --- output ------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Report
{
  public:
    void metric(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    /** Record an output check; a failed one clears "correct". */
    void check(bool ok, const std::string &what)
    {
        if (!ok) {
            failures_.push_back(what);
            std::fprintf(stderr, "e2e_bench: check failed: %s\n",
                         what.c_str());
        }
    }

    bool correct() const { return failures_.empty(); }

    void print(const std::string &head, std::size_t attempted,
               std::size_t failed) const
    {
        for (const Metric &m : metrics_)
            std::printf("  %-38s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::ostringstream os;
        os.precision(17);
        os << "{" << head << ", \"correct\": "
           << (correct() ? "true" : "false") << ", \"checks_failed\": [";
        for (std::size_t i = 0; i < failures_.size(); ++i)
            os << (i ? ", " : "") << "\"" << failures_[i] << "\"";
        os << "], \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i)
            os << (i ? ", " : "") << "\"" << metrics_[i].name
               << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
               << metrics_[i].unit << "\"}";
        os << "}}";
        std::printf("%s\n", os.str().c_str());
    }

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
};

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * The noise-free populations of each distinct input's schedule: the
 * distribution its jobs' counts are drawn from. Circuits go through the
 * same compile (Optimized) as in the service. Computed after the loop,
 * and only for the inputs a run used.
 */
class Reference
{
  public:
    Reference(const Substrate &substrate, const Inputs &inputs)
        : substrate_(substrate), inputs_(inputs),
          compiler_(substrate.backend, CompileMode::Optimized)
    {}

    /** Populations over the device's full space. */
    const std::vector<double> &populations(std::size_t input)
    {
        const auto it = populations_.find(input);
        if (it != populations_.end())
            return it->second;
        const DistinctInput &distinct = inputs_.distinct[input];
        const Schedule schedule =
            distinct.schedule ? *distinct.schedule
                              : compiler_.compile(distinct.circuit).schedule;
        Vector ground(substrate_.sim.model().dim());
        ground[0] = Complex{1.0, 0.0};
        return populations_[input] = substrate_.sim.populations(
                   substrate_.sim.evolveState(schedule, ground));
    }

  private:
    const Substrate &substrate_;
    const Inputs &inputs_;
    PulseCompiler compiler_;
    std::map<std::size_t, std::vector<double>> populations_;
};

/**
 * Output checks shared by every mode. A job that did not complete is
 * not an output error: completed_share reports it, and only a run in
 * which more than a tenth of the jobs fail counts as broken. The counts
 * checks skip fleet_faulted, whose injected faults move counts by
 * design.
 */
void
checkOutputs(Workload workload, const Inputs &inputs, Reference &reference,
             const LoopResult &loop, Report &report)
{
    std::size_t completed = 0, miscounted = 0;
    for (const Record &r : loop.records) {
        completed += r.completed ? 1 : 0;
        miscounted += r.completed && !r.ok ? 1 : 0;
    }
    report.check(miscounted == 0,
                 std::to_string(miscounted) +
                     " completed jobs have counts not summing to the "
                     "requested shots");
    report.check(10 * completed >= 9 * loop.records.size(),
                 std::to_string(loop.records.size() - completed) + " of " +
                     std::to_string(loop.records.size()) +
                     " jobs did not complete");
    if (workload == Workload::FleetFaulted)
        return;

    // Sampling: each job's counts against the populations they are
    // drawn from. Per job, a tail no correct run reaches; per run, the
    // mean TVD above its exact expectation (samplingTvd) must be zero
    // within five standard errors.
    const TvdLimits limits = tvdLimits(workload);
    const long shots = shapeOf(workload).shots;
    std::size_t n = 0, over = 0;
    double worst = 0.0, excess = 0.0, excessSq = 0.0;
    std::map<std::size_t, double> floorOf;
    for (const Record &r : loop.records) {
        if (!r.ok)
            continue;
        const std::vector<double> &pop = reference.populations(r.input);
        if (floorOf.count(r.input) == 0)
            floorOf[r.input] = samplingTvd(pop, shots);
        const double t = tvd(frequencies(r.counts), pop, fullSpace(pop.size()));
        worst = std::max(worst, t);
        over += t > limits.samplingTail ? 1 : 0;
        const double e = t - floorOf[r.input];
        excess += e;
        excessSq += e * e;
        ++n;
    }
    char text[200];
    std::snprintf(text, sizeof text,
                  "%zu jobs' counts are further than %.4f from their "
                  "populations (worst %.4f)",
                  over, limits.samplingTail, worst);
    report.check(over == 0, text);

    // Schedules: the infinite-shot TVD of every input used against the
    // gate-level reference, so a compile or pulse regression fails
    // here without any sampling noise.
    const std::vector<std::size_t> subspace = qubitSubspace(workload);
    double sysMax = 0.0, sysSum = 0.0;
    for (const auto &[input, expected] : floorOf) {
        const double s = tvd(reference.populations(input),
                             inputs.distinct[input].ideal, subspace);
        sysMax = std::max(sysMax, s);
        sysSum += s;
    }
    std::snprintf(text, sizeof text,
                  "an input's schedule is %.4f from its reference (limit "
                  "%.4f)",
                  sysMax, limits.systematicMax);
    report.check(sysMax <= limits.systematicMax, text);

    // Means only settle over many jobs: timed runs have at least 100;
    // the check run and the traced legs of circuits_2q have fewer.
    if (n < samplesForTail(0.9))
        return;
    const double inputsUsed = static_cast<double>(floorOf.size());
    const double sysMean = sysSum / inputsUsed;
    const double mean = excess / static_cast<double>(n);
    const double se = std::sqrt(std::max(0.0, excessSq / static_cast<double>(n) -
                                                  mean * mean) /
                                static_cast<double>(n));
    std::printf("  counts vs populations: mean TVD %+.5f from sampling "
                "(se %.5f); schedules vs reference over %zu inputs: mean "
                "%.4f, max %.4f\n",
                mean, se, floorOf.size(), sysMean, sysMax);
    std::snprintf(text, sizeof text,
                  "counts sit %+.5f from their sampling expectation "
                  "(se %.5f)",
                  mean, se);
    report.check(std::abs(mean) <= 5.0 * se + 1e-9, text);
    std::snprintf(text, sizeof text,
                  "schedules average %.4f from their references (limit "
                  "%.4f)",
                  sysMean, limits.systematicMean);
    report.check(sysMean <= limits.systematicMean, text);
}

/** Mean schedule duration (dt) over the distinct inputs. */
double
scheduleDtMean(const Substrate &substrate, const Inputs &inputs)
{
    double sum = 0.0;
    PulseCompiler compiler(substrate.backend, CompileMode::Optimized);
    for (const DistinctInput &input : inputs.distinct)
        sum += static_cast<double>(
            input.schedule ? input.schedule->duration()
                           : compiler.compile(input.circuit).durationDt);
    return inputs.distinct.empty()
               ? 0.0
               : sum / static_cast<double>(inputs.distinct.size());
}

struct Args
{
    Workload workload = Workload::Frontdoor1q;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string mode = "timed";
};

std::string
headerJson(const Args &args, const Inputs &inputs, std::uint64_t digest)
{
    char text[512];
    std::snprintf(
        text, sizeof text,
        "\"workload\": \"%s\", \"mode\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %.3f, \"threads\": %zu, \"simd\": \"%s\", "
        "\"input_digest\": \"%016llx\", \"counts_digest\": \"%016llx\"",
        workloadName(args.workload), args.mode.c_str(),
        static_cast<unsigned long long>(args.seed), args.seconds,
        ThreadPool::global().size(),
        kernels::simdModeName(kernels::activeSimd()),
        static_cast<unsigned long long>(inputs.digest),
        static_cast<unsigned long long>(digest));
    return text;
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::size_t
failedJobs(const LoopResult &loop)
{
    std::size_t failed = 0;
    for (const Record &r : loop.records)
        failed += r.ok ? 0 : 1;
    return failed;
}

// --- timed / check ---------------------------------------------------------

int
runTimed(const Args &args)
{
    const Shape shape = shapeOf(args.workload);
    std::vector<double> setups;
    std::unique_ptr<Substrate> substrate;
    std::unique_ptr<Inputs> inputs;
    Stack stack;
    for (int i = 0; i < shape.setups; ++i) {
        // Free the previous set-up first, so peak_rss_mb sees one copy.
        stack = Stack{};
        inputs.reset();
        substrate.reset();
        const std::int64_t t0 = cpuNs();
        substrate = std::make_unique<Substrate>(args.workload);
        inputs = std::make_unique<Inputs>(
            generateInputs(args.workload, *substrate, args.seed));
        stack = buildStack(args.workload, *substrate);
        setups.push_back(msBetween(t0, cpuNs()) / 1e3);
    }

    StopRule rule;
    rule.seconds = args.seconds;
    rule.minJobs = std::max({samplesForTail(0.9), shape.minJobs, shape.prefix});
    LoopResult loop =
        ClosedLoop(args.workload, *inputs, stack, rule, nullptr).run();

    Report report;
    Reference reference(*substrate, *inputs);
    checkOutputs(args.workload, *inputs, reference, loop, report);
    // Every time is taken on both clocks. The declared metrics use the
    // process CPU clock: the loop runs on one thread, so it reads what
    // the wall clock reads on an idle core, without the time the host
    // gave the CPU to someone else. They are means, not medians: the
    // host alternates between a fast and a slow state every few
    // seconds, so a run's median latency lands in one state or the
    // other, while its mean moves with the share of time in each. The
    // wall-clock figures and the medians are printed beside them.
    std::vector<double> latency, firstResult, latencyWall, firstResultWall;
    double tvdMax = 0.0, tvdSum = 0.0;
    std::size_t completed = 0;
    Stamp lastDone = loop.start;
    for (const Record &r : loop.records) {
        if (r.done.wall > lastDone.wall)
            lastDone = r.done;
        if (!r.ok)
            continue;
        ++completed;
        latency.push_back(msBetween(r.send.cpu, r.done.cpu));
        firstResult.push_back(msBetween(r.send.cpu, r.firstResult.cpu));
        latencyWall.push_back(msBetween(r.send.wall, r.done.wall));
        firstResultWall.push_back(msBetween(r.send.wall, r.firstResult.wall));
        tvdMax = std::max(tvdMax, r.tvd);
        tvdSum += r.tvd;
    }
    const Percentile p90 = nearestRank(latency, 0.9);
    report.check(p90.resolved(), "job_cpu_p90_ms has only " +
                                     std::to_string(p90.beyond) +
                                     " samples beyond it (need 10)");
    const double cpuS = msBetween(loop.start.cpu, lastDone.cpu) / 1e3;
    const double wallS = msBetween(loop.start.wall, lastDone.wall) / 1e3;
    const double jobs = static_cast<double>(completed);

    report.metric("setup_s", nearestRank(setups, 0.5).value, "s");
    report.metric("jobs_per_cpu_s", jobs / cpuS, "jobs/s");
    report.metric("job_cpu_mean_ms", mean(latency), "ms");
    report.metric("job_cpu_p90_ms", p90.value, "ms");
    report.metric("first_partial_cpu_mean_ms", mean(firstResult), "ms");
    report.metric("job_cpu_p50_ms", nearestRank(latency, 0.5).value, "ms");
    report.metric("first_partial_cpu_p50_ms",
                  nearestRank(firstResult, 0.5).value, "ms");
    report.metric("jobs_per_s", jobs / wallS, "jobs/s");
    report.metric("job_p50_ms", nearestRank(latencyWall, 0.5).value, "ms");
    report.metric("job_p90_ms", nearestRank(latencyWall, 0.9).value, "ms");
    report.metric("first_partial_p50_ms",
                  nearestRank(firstResultWall, 0.5).value, "ms");
    report.metric("cpu_share", cpuS / wallS, "ratio");
    report.metric("completed_share",
                  static_cast<double>(completed) /
                      static_cast<double>(loop.records.size()),
                  "ratio");
    report.metric("counts_tvd_max", tvdMax, "ratio");
    report.metric("counts_tvd_mean",
                  tvdSum / static_cast<double>(std::max<std::size_t>(
                               completed, 1)),
                  "ratio");
    report.metric("schedule_dt_mean",
                  scheduleDtMean(*substrate, *inputs), "dt");
    report.metric("peak_rss_mb", peakRssMb(), "MB");

    std::printf("%s seed=%llu: %zu jobs sent, %zu completed in %.3f s "
                "(%.3f CPU s; p90 rests on %zu samples beyond it)\n",
                workloadName(args.workload),
                static_cast<unsigned long long>(args.seed),
                loop.records.size(), completed, wallS, cpuS, p90.beyond);
    report.print(headerJson(args, *inputs, countsDigest(loop, shape.prefix)),
                 loop.records.size(), failedJobs(loop));
    return report.correct() ? 0 : 1;
}

int
runCheck(const Args &args)
{
    const Shape shape = shapeOf(args.workload);
    const Substrate substrate(args.workload);
    const Inputs inputs = generateInputs(args.workload, substrate, args.seed);
    Stack stack = buildStack(args.workload, substrate);
    StopRule rule;
    rule.prefixOnly = true;
    const LoopResult loop =
        ClosedLoop(args.workload, inputs, stack, rule, nullptr).run();
    Report report;
    Reference reference(substrate, inputs);
    checkOutputs(args.workload, inputs, reference, loop, report);
    report.print(headerJson(args, inputs, countsDigest(loop, shape.prefix)),
                 loop.records.size(), failedJobs(loop));
    return report.correct() ? 0 : 1;
}

// --- trace ---------------------------------------------------------------

struct Leg
{
    LoopResult loop;
    telemetry::MetricsSnapshot counters;
    double wallMs = 0.0;
};

Leg
runLeg(const Args &args, const Substrate &substrate, const Inputs &inputs,
       Tracing *tracing, std::size_t max_threads = 0)
{
    Stack stack = buildStack(args.workload, substrate, max_threads);
    telemetry::MetricsRegistry::global().reset();
    Tracer::instance().clear();
    Tracer::instance().setEnabled(tracing != nullptr);
    StopRule rule;
    rule.fixedJobs = shapeOf(args.workload).tracedJobs;
    Leg leg;
    leg.loop = ClosedLoop(args.workload, inputs, stack, rule, tracing).run();
    Tracer::instance().setEnabled(false);
    leg.counters = telemetry::MetricsRegistry::global().snapshot();
    leg.wallMs = msBetween(leg.loop.start.wall, leg.loop.end.wall);
    return leg;
}

/** Per-call timings of a seeded sample of the inputs, layer by layer. */
struct Replay
{
    std::vector<double> parseUs, validateUs, compileUs, evolveUs;
    std::vector<double> runShotsMs, executorMs;
};

template <typename F>
double
timeUs(F &&call)
{
    const std::int64_t t0 = nowNs();
    call();
    return static_cast<double>(nowNs() - t0) / 1e3;
}

Replay
replay(const Args &args, const Substrate &substrate, const Inputs &inputs,
       Report &report)
{
    const Shape shape = shapeOf(args.workload);
    const long chunk = shape.chunkShots > 0 ? shape.chunkShots : shape.shots;
    const ChannelBudget budget = ChannelBudget::fromConfig(substrate.config);
    const PulseCompiler compiler(substrate.backend, CompileMode::Optimized);
    Rng rng(Rng::deriveSeed(args.seed, 0x2E91A7));
    Replay out;
    for (std::size_t s = 0; s < kReplaySamples; ++s) {
        const Job &job = inputs.jobs[rng.uniformInt(inputs.jobs.size())];
        Schedule schedule("replay");
        if (job.circuit) {
            out.compileUs.push_back(timeUs([&] {
                schedule = compiler.compile(*job.circuit).schedule;
            }));
        } else {
            ingest::IngestedJob lowered;
            Status status;
            out.parseUs.push_back(timeUs([&] {
                status = ingest::parseJob(job.envelope, {}, lowered);
            }));
            report.check(status.ok(), "replayed envelope failed to parse");
            schedule = lowered.schedule;
        }
        Status valid;
        out.validateUs.push_back(
            timeUs([&] { valid = validateSchedule(schedule, budget); }));
        report.check(valid.ok(), "replayed schedule failed validation");

        Vector ground(substrate.sim.model().dim());
        ground[0] = Complex{1.0, 0.0};
        out.evolveUs.push_back(
            timeUs([&] { (void)substrate.sim.evolveState(schedule, ground); }));

        PulseShotOptions opts;
        opts.shots = chunk;
        opts.seed = job.seed;
        out.runShotsMs.push_back(
            timeUs([&] {
                (void)substrate.backend->runShots(substrate.sim, schedule,
                                                  opts);
            }) /
            1e3);
        ResilientExecutor executor(substrate.backend);
        ResilientRequest request;
        request.schedule = schedule;
        request.key = job.key;
        out.executorMs.push_back(
            timeUs([&] {
                (void)executor.run(substrate.sim, request, opts);
            }) /
            1e3);
    }
    return out;
}

double
p50(const std::vector<double> &values)
{
    return nearestRank(values, 0.5).value;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

int
runTrace(const Args &args)
{
    const Substrate substrate(args.workload);
    const Inputs inputs = generateInputs(args.workload, substrate, args.seed);

    // Shot loops run on one thread, as in the timed runs, except in the
    // pool leg: its wall against the plain leg's is what the pool's
    // threads buy.
    const Leg pool = runLeg(args, substrate, inputs, nullptr, 0);
    const Leg plain = runLeg(args, substrate, inputs, nullptr, 1);
    Tracing tracing;
    const Leg traced = runLeg(args, substrate, inputs, &tracing, 1);

    Report report;
    Reference reference(substrate, inputs);
    const std::size_t prefix = shapeOf(args.workload).prefix;
    for (const Leg *leg : {&plain, &pool, &traced}) {
        checkOutputs(args.workload, inputs, reference, leg->loop, report);
        report.check(countsDigest(leg->loop, prefix) ==
                         countsDigest(plain.loop, prefix),
                     "counts differ between the legs");
    }
    // Counters count work, so tracing must not move them. (Single-flight
    // coalescing counts scheduling by design; so do the pool leg's
    // concurrent shot loops, which may both derive one missed key.)
    for (const auto &[name, value] : plain.counters.counters)
        if (name.find("singleflight") == std::string::npos)
            report.check(traced.counters.counterValue(name) == value,
                         "counter " + name + " differs with tracing on");

    const std::vector<TraceEvent> &events = tracing.events;
    const std::vector<std::uint64_t> selfNs = selfTimes(events);
    const double jobs = static_cast<double>(traced.loop.records.size());

    // Per-layer self time on the main thread: the critical path.
    std::map<Layer, double> selfMs;
    std::vector<double> deliverUs, jobSelfMs, drainMs, compileUs;
    std::map<std::string, std::vector<double>> spanMs;
    double execMs = 0.0, runShotsMs = 0.0, precompileMs = 0.0;
    std::size_t drains = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &e = events[i];
        const std::string_view name(e.name);
        const double dur = static_cast<double>(e.durationNs) / 1e6;
        const double self = static_cast<double>(selfNs[i]) / 1e6;
        spanMs[std::string(name)].push_back(dur);
        if (name == "compile.total")
            compileUs.push_back(dur * 1e3);
        if (e.tid != 0)
            continue;
        selfMs[layerOf(name)] += self;
        if (name == "e2e.deliver")
            deliverUs.push_back(dur * 1e3);
        else if (name == "e2e.pump" || name == "e2e.drain") {
            drainMs.push_back(dur);
            ++drains;
        } else if (name == "service.job")
            jobSelfMs.push_back(self);
        else if (name == "executor.run")
            execMs += dur;
        else if (name == "backend.run_shots")
            runShotsMs += dur;
        else if (name == "service.precompile")
            precompileMs += dur;
    }
    double attributed = 0.0;
    for (const auto &[layer, ms] : selfMs)
        attributed += ms;

    const telemetry::MetricsSnapshot &c = traced.counters;
    const auto count = [&](const std::string &name) {
        return static_cast<double>(c.counterValue(name));
    };
    const auto per = [&](const std::string &name) {
        return ratio(count(name), jobs);
    };
    const double compileHits = count("compile.cache.hits");
    const double compileLookups = compileHits + count("compile.cache.misses");
    const double simHits = count("pulsesim.cache.hits");
    const double simLookups = simHits + count("pulsesim.cache.misses");

    report.metric("ingest.deliver_us_p50", p50(deliverUs), "us");
    report.metric("ingest.bytes_per_job", per("ingest.frontend.bytes"),
                  "bytes");
    report.metric("service.queue_wait_ms_p50", p50(tracing.queueWaitMs), "ms");
    report.metric("service.job_self_ms_p50", p50(jobSelfMs), "ms");
    report.metric("service.drain_ms_p50", p50(drainMs), "ms");
    report.metric("fleet.failovers_per_job", per("fleet.failovers"), "count");
    report.metric("fleet.probes_per_job", per("fleet.probes"), "count");
    report.metric("executor.attempts_per_job", per("executor.attempts"),
                  "count");
    report.metric("executor.recalibrations_per_job",
                  per("executor.recalibrations"), "count");
    report.metric("compile.total_us_p50", p50(compileUs), "us");
    report.metric("compile.cache_hit_ratio", ratio(compileHits, compileLookups),
                  "ratio");
    report.metric("service.precompile_ms_per_drain",
                  ratio(precompileMs, static_cast<double>(drains)), "ms");
    report.metric("executor.self_ms_per_job", (execMs - runShotsMs) / jobs,
                  "ms");
    report.metric("backend.run_shots_ms_per_job", runShotsMs / jobs, "ms");
    report.metric("sim.evolutions_per_job",
                  per("sim.evolve_state.calls") + per("sim.batch.states"),
                  "count");
    report.metric("sim.samples_per_job", per("sim.samples"), "count");
    report.metric("pulsesim.cache_hit_ratio", ratio(simHits, simLookups),
                  "ratio");
    report.metric("linalg.madds_per_job",
                  per("linalg.gemm.madds") + per("linalg.gemm.matvec_madds") +
                      per("linalg.gemm.batched_madds"),
                  "count");
    report.metric("sim.eig_calls_per_job", per("sim.eig.calls"), "count");
    report.metric("sim.eig_sweeps_per_call",
                  ratio(count("sim.eig.sweeps"), count("sim.eig.calls")),
                  "count");
    report.metric("threadpool.parallel_for_per_job",
                  per("threadpool.parallel_for.calls"), "count");
    report.metric("threadpool.pool_speedup", ratio(plain.wallMs, pool.wallMs),
                  "ratio");
    for (Layer layer : {Layer::Ingest, Layer::Service, Layer::Compile,
                        Layer::Device, Layer::Pulsesim, Layer::Common})
        report.metric(std::string("ledger.") + layerName(layer) + "_self_share",
                      ratio(selfMs[layer], traced.wallMs), "ratio");
    report.metric("ledger.unattributed_share",
                  ratio(traced.wallMs - attributed, traced.wallMs), "ratio");
    report.metric("trace.overhead_share",
                  ratio(traced.wallMs - plain.wallMs, plain.wallMs), "ratio");

    const Replay calls = replay(args, substrate, inputs, report);
    report.metric("replay.parse_us_p50", p50(calls.parseUs), "us");
    report.metric("replay.validate_us_p50", p50(calls.validateUs), "us");
    report.metric("replay.compile_us_p50", p50(calls.compileUs), "us");
    report.metric("replay.evolve_state_us_p50", p50(calls.evolveUs), "us");
    report.metric("replay.run_shots_ms_p50", p50(calls.runShotsMs), "ms");
    report.metric("replay.executor_run_ms_p50", p50(calls.executorMs), "ms");

    // The ledger, human-readable.
    std::printf("\nper-layer ledger, %s, %zu jobs traced in %.1f ms "
                "(untraced %.1f ms; shot loops on %zu threads %.1f ms)\n",
                workloadName(args.workload), traced.loop.records.size(),
                traced.wallMs, plain.wallMs, ThreadPool::global().size(),
                pool.wallMs);
    std::printf("  %-10s %12s %8s\n", "layer", "self ms", "share");
    for (Layer layer : kLedgerLayers)
        if (selfMs.count(layer) != 0u)
            std::printf("  %-10s %12.2f %7.2f%%\n", layerName(layer),
                        selfMs[layer], 100.0 * selfMs[layer] / traced.wallMs);
    std::printf("  %-10s %12.2f %7.2f%%  (benchmark loop, untraced gaps)\n",
                "unattrib.", traced.wallMs - attributed,
                100.0 * (traced.wallMs - attributed) / traced.wallMs);
    std::printf("  linalg has no spans: its time is inside pulsesim's self "
                "time; its work is linalg.madds_per_job.\n");
    std::printf("  compile cache: %.0f hits of %.0f lookups; propagator "
                "cache: %.0f hits of %.0f lookups\n",
                compileHits, compileLookups, simHits, simLookups);
    std::printf("\njoin of span p50 (traced leg) and replay p50:\n");
    const auto join = [&](const char *span, const char *call,
                          const std::vector<double> &replayed, double scale) {
        const auto it = spanMs.find(span);
        std::printf("  %-26s span %10.3f   %-34s replay %10.3f  (ms)\n", span,
                    it == spanMs.end() ? 0.0 : p50(it->second), call,
                    p50(replayed) * scale);
    };
    join("device.validate_schedule", "validateSchedule", calls.validateUs,
         1e-3);
    join("compile.total", "PulseCompiler::compile (uncached)",
         calls.compileUs, 1e-3);
    join("sim.evolve_state", "PulseSimulator::evolveState", calls.evolveUs,
         1e-3);
    join("backend.run_shots", "PulseBackend::runShots", calls.runShotsMs, 1.0);
    join("executor.run", "ResilientExecutor::run", calls.executorMs, 1.0);
    std::printf("  %-26s span %10.3f   %-34s replay %10.3f  (ms)\n",
                "e2e.deliver", p50(deliverUs) * 1e-3, "ingest::parseJob",
                p50(calls.parseUs) * 1e-3);

    report.print(headerJson(args, inputs, countsDigest(traced.loop, prefix)),
                 traced.loop.records.size(), failedJobs(traced.loop));
    return report.correct() ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            if (!parseWorkload(value, args.workload))
                return false;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (key == "--mode") {
            args.mode = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 &&
           (args.mode == "timed" || args.mode == "check" ||
            args.mode == "trace");
}

} // namespace
} // namespace e2e

int
main(int argc, char **argv)
{
    e2e::Args args;
    if (!e2e::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: e2e_bench --workload frontdoor_1q|circuits_2q|"
                     "fleet_faulted --seed N --seconds S "
                     "--mode timed|check|trace\n");
        return 2;
    }
    try {
        if (args.mode == "timed")
            return e2e::runTimed(args);
        if (args.mode == "check")
            return e2e::runCheck(args);
        return e2e::runTrace(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 2;
    }
}
