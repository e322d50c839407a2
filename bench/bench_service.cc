/**
 * @file
 * Service bench: drive the ExecutionService through the four regimes
 * the layer exists for and emit BENCH_service.json.
 *
 *  1. Saturation — a capacity-4 queue under 6 low-priority and 2
 *     high-priority submissions: low-priority overflow is rejected,
 *     high-priority newcomers shed queued low-priority jobs, and one
 *     tight virtual-time budget surfaces a deadline-exceeded partial
 *     result instead of discarding completed shots.
 *  2. Cancellation — a token cancelled between submit() and drain()
 *     terminates the job at the service gate without touching the
 *     backend.
 *  3. Wedged backend — 100% injected timeouts: the circuit breaker
 *     trips after the failure window fills, the pool quarantines its
 *     one member, and the rest of the job set fast-fails with
 *     `unavailable` instead of burning retry budgets.
 *  4. Recovery — the faults clear. The pool's 8-shot health probes,
 *     not real jobs, are the half-open trials: once they succeed the
 *     breaker closes, the member is readmitted and subsequent jobs
 *     complete.
 *
 * Every deadline is a virtual-time budget (or a generous
 * afterMsOrBudget that never fires), and the breaker cooldown is
 * counted in denied calls, so the service counters and the printed
 * `determinism-fingerprint:` line are bit-identical across
 * QPULSE_THREADS settings. CI runs this bench at QPULSE_THREADS=1 and
 * =8 under QPULSE_VIRTUAL_TIME=1, diffs the fingerprint lines, and
 * compares the one-thread line with .github/determinism-fingerprints.txt.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "device/fault_injector.h"
#include "service/execution_service.h"
#include "telemetry/metrics.h"

using namespace qpulse;

namespace {

constexpr long kShots = 128;
constexpr std::uint64_t kSeed = 0x5E41;
constexpr std::size_t kQueueCapacity = 4;

struct Scenario
{
    ExecutionService &service;
    const Schedule &schedule;
    const Schedule &fallback;
    std::uint64_t budgetUnits = 0; ///< Simulated samples for one job.
    int jobIndex = 0;
};

JobRequest
makeJob(Scenario &s, int priority, Deadline deadline,
        CancelToken token = {})
{
    JobRequest job;
    job.schedule = s.schedule;
    job.fallback = s.fallback;
    job.key = "x180/q0";
    job.shots = kShots;
    job.seed = Rng::deriveSeed(
        kSeed, static_cast<std::uint64_t>(s.jobIndex++));
    job.priority = priority;
    job.deadline = deadline;
    job.token = token;
    return job;
}

/** A budget no healthy job ever exhausts (virtual or wall-clock). */
Deadline
generous(const Scenario &s)
{
    return Deadline::afterMsOrBudget(2000.0, s.budgetUnits * 16);
}

/**
 * The thread-count-invariant digest CI compares across QPULSE_THREADS:
 * every service counter plus each job's terminal code (and, for
 * partials, the deterministic shots-completed fraction).
 */
std::string
fingerprint(const ServiceStats &stats,
            const std::vector<JobOutcome> &outcomes)
{
    std::string fp =
        "submitted=" + std::to_string(stats.submitted) +
        " admitted=" + std::to_string(stats.admitted) +
        " rejected=" + std::to_string(stats.rejected) +
        " shed=" + std::to_string(stats.shed) +
        " cancelled=" + std::to_string(stats.cancelled) +
        " deadline_exceeded=" + std::to_string(stats.deadlineExceeded) +
        " breaker_fastfails=" + std::to_string(stats.breakerFastFails) +
        " completed=" + std::to_string(stats.completed) +
        " failed=" + std::to_string(stats.failed) + " |";
    for (const JobOutcome &out : outcomes) {
        fp += " " + std::to_string(out.id) + ":" +
              errorCodeName(out.status.code());
        if (out.executed && out.execution.result.partial)
            fp += "(" +
                  std::to_string(out.execution.result.shotsCompleted) +
                  "/" +
                  std::to_string(out.execution.result.shotsRequested) +
                  ")";
    }
    return fp;
}

} // namespace

int
main()
{
    bench::banner(
        "Execution service: saturation, cancellation, breaker trip "
        "and recovery",
        "(engineering bench) bounded queue sheds by priority, "
        "deadlines surface partials, a wedged backend fast-fails "
        "behind the breaker");

    const BackendConfig config = almadenLineConfig(1);
    const auto backend = makeCalibratedBackend(config);
    Calibrator calibrator(config);
    const PulseSimulator sim(calibrator.qubitModel(0));

    QuantumCircuit circuit(1);
    circuit.x(0);
    PulseCompiler optimized_compiler(backend, CompileMode::Optimized);
    PulseCompiler standard_compiler(backend, CompileMode::Standard);
    const CompileResult primary = optimized_compiler.compile(circuit);
    const CompileResult secondary = standard_compiler.compile(circuit);
    throwIfError(primary.validation);
    throwIfError(secondary.validation);

    ServicePolicy policy;
    policy.queueCapacity = kQueueCapacity;
    policy.retry.maxAttempts = 2;
    ExecutionService service(backend, sim, policy);

    Scenario s{service, primary.schedule, secondary.schedule};
    s.budgetUnits = static_cast<std::uint64_t>(
                        std::max<long>(primary.schedule.duration(), 1)) *
                    static_cast<std::uint64_t>(kShots);

    std::vector<JobOutcome> all;
    const auto drainInto = [&] {
        std::vector<JobOutcome> outcomes = service.drain();
        all.insert(all.end(), outcomes.begin(), outcomes.end());
    };

    // Phase 1: saturation. Six low-priority submissions against a
    // capacity-4 queue (the overflow is rejected), then two
    // high-priority ones (each sheds a queued low-priority job). The
    // first job runs on a half-shot virtual budget and must come back
    // as a deadline-exceeded partial.
    for (int i = 0; i < 6; ++i)
        (void)service.submit(makeJob(
            s, /*priority=*/0,
            i == 0 ? Deadline::virtualBudget(s.budgetUnits / 2)
                   : generous(s)));
    for (int i = 0; i < 2; ++i)
        (void)service.submit(makeJob(s, /*priority=*/5, generous(s)));
    drainInto();

    // Phase 2: cancellation between submit and drain.
    CancelToken cancel_me = CancelToken::make();
    (void)service.submit(
        makeJob(s, /*priority=*/0, generous(s), cancel_me));
    cancel_me.cancel();
    drainInto();

    // Phase 3: the backend wedges (every batch times out). Two
    // drains of four jobs each: the breaker trips partway through the
    // first and fast-fails most of the second.
    FaultPlan wedged;
    wedged.timeoutRate = 1.0;
    service.pool().setFaultInjector(
        "default", std::make_shared<FaultInjector>(wedged));
    for (int batch = 0; batch < 2; ++batch) {
        for (int i = 0; i < 4; ++i)
            (void)service.submit(
                makeJob(s, /*priority=*/0, generous(s)));
        drainInto();
    }

    // Phase 4: faults clear. The probe pump spends the cooldown, then
    // successful half-open probes close the breaker, readmit the
    // member, and the tail completes.
    service.pool().setFaultInjector("default", nullptr);
    for (int i = 0; i < 4; ++i)
        (void)service.submit(makeJob(s, /*priority=*/0, generous(s)));
    drainInto();
    for (int i = 0; i < 2; ++i)
        (void)service.submit(makeJob(s, /*priority=*/0, generous(s)));
    drainInto();

    const ServiceStats &stats = service.stats();
    const CircuitBreaker &brk = service.breaker("default");
    const telemetry::Histogram::Snapshot latency =
        telemetry::MetricsRegistry::global()
            .histogram("service.job.wall_us")
            .snapshot();

    TextTable table({"counter", "value"});
    table.addRow({"submitted", std::to_string(stats.submitted)});
    table.addRow({"admitted", std::to_string(stats.admitted)});
    table.addRow({"rejected", std::to_string(stats.rejected)});
    table.addRow({"shed", std::to_string(stats.shed)});
    table.addRow({"cancelled", std::to_string(stats.cancelled)});
    table.addRow(
        {"deadline_exceeded", std::to_string(stats.deadlineExceeded)});
    table.addRow(
        {"breaker_fastfails", std::to_string(stats.breakerFastFails)});
    table.addRow({"completed", std::to_string(stats.completed)});
    table.addRow({"failed", std::to_string(stats.failed)});
    table.addRow({"breaker trips", std::to_string(brk.trips())});
    table.addRow(
        {"breaker state", breakerStateName(brk.state())});
    table.addRow(
        {"job latency p50 (us)", fmtFixed(latency.p50(), 1)});
    table.addRow(
        {"job latency p95 (us)", fmtFixed(latency.p95(), 1)});
    std::printf("%s\n", table.render().c_str());

    const std::string fp = fingerprint(stats, all);
    std::printf("determinism-fingerprint: %s\n", fp.c_str());

    // Acceptance.
    const bool accounted =
        stats.submitted ==
        stats.rejected + stats.shed + stats.breakerFastFails +
            stats.completed + stats.cancelled + stats.deadlineExceeded +
            stats.failed;
    bool priority_respected = stats.rejected > 0 && stats.shed > 0;
    for (const JobOutcome &out : all) {
        if (out.shed && out.priority != 0)
            priority_respected = false; // Only low-priority jobs shed.
        if (out.priority == 5 && !out.status.ok())
            priority_respected = false; // High-priority always ran.
    }
    bool partial_surfaced = false;
    for (const JobOutcome &out : all)
        if (out.status.code() == ErrorCode::DeadlineExceeded &&
            out.executed && out.execution.result.partial &&
            out.execution.result.shotsCompleted > 0 &&
            out.execution.result.shotsCompleted <
                out.execution.result.shotsRequested)
            partial_surfaced = true;
    const bool breaker_tripped =
        brk.trips() >= 1 && stats.breakerFastFails > 0;
    const bool breaker_recovered =
        brk.state() == BreakerState::Closed && all.size() >= 2 &&
        all[all.size() - 1].status.ok() &&
        all[all.size() - 2].status.ok();
    const bool cancelled_cleanly = stats.cancelled == 1;
    const bool pass = accounted && priority_respected &&
                      partial_surfaced && breaker_tripped &&
                      breaker_recovered && cancelled_cleanly;
    std::printf("acceptance: accounted=%s priority=%s partial=%s "
                "breaker_trip=%s breaker_recovery=%s cancel=%s => %s\n",
                accounted ? "yes" : "no",
                priority_respected ? "yes" : "no",
                partial_surfaced ? "yes" : "no",
                breaker_tripped ? "yes" : "no",
                breaker_recovered ? "yes" : "no",
                cancelled_cleanly ? "yes" : "no",
                pass ? "PASS" : "FAIL");

    bench::printTelemetry();
    std::FILE *out = bench::openBenchJson("BENCH_service.json");
    if (out == nullptr)
        return pass ? 0 : 1;
    std::fprintf(out, "{\n");
    bench::writeBenchHeader(out, "service");
    std::fprintf(out, "  \"shots\": %ld,\n", kShots);
    std::fprintf(out, "  \"queue_capacity\": %zu,\n", kQueueCapacity);
    std::fprintf(
        out,
        "  \"stats\": {\"submitted\": %ld, \"admitted\": %ld, "
        "\"rejected\": %ld, \"shed\": %ld, \"cancelled\": %ld, "
        "\"deadline_exceeded\": %ld, \"breaker_fastfails\": %ld, "
        "\"completed\": %ld, \"failed\": %ld},\n",
        stats.submitted, stats.admitted, stats.rejected, stats.shed,
        stats.cancelled, stats.deadlineExceeded, stats.breakerFastFails,
        stats.completed, stats.failed);
    std::fprintf(out,
                 "  \"breaker\": {\"state\": \"%s\", \"trips\": %llu, "
                 "\"denials\": %llu},\n",
                 breakerStateName(brk.state()),
                 static_cast<unsigned long long>(brk.trips()),
                 static_cast<unsigned long long>(brk.denials()));
    std::fprintf(out,
                 "  \"job_latency_us\": {\"p50\": %.1f, "
                 "\"p95\": %.1f},\n",
                 latency.p50(), latency.p95());
    std::fprintf(out, "  \"fingerprint\": \"%s\",\n", fp.c_str());
    bench::writeTelemetryField(out);
    std::fprintf(
        out,
        "  \"acceptance\": {\"accounted\": %s, "
        "\"priority_respected\": %s, \"partial_surfaced\": %s, "
        "\"breaker_tripped\": %s, \"breaker_recovered\": %s, "
        "\"cancelled_cleanly\": %s, \"pass\": %s}\n",
        accounted ? "true" : "false",
        priority_respected ? "true" : "false",
        partial_surfaced ? "true" : "false",
        breaker_tripped ? "true" : "false",
        breaker_recovered ? "true" : "false",
        cancelled_cleanly ? "true" : "false", pass ? "true" : "false");
    std::fprintf(out, "}\n");
    bench::closeBenchJson(out, "BENCH_service.json");
    return pass ? 0 : 1;
}
