#include "service/execution_service.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <unordered_set>

#include "common/env.h"
#include "common/thread_pool.h"
#include "compile/compile_cache.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qpulse {

namespace {

/** Wall-clock microseconds since `t0` (histogram-only; not counted). */
double
wallUsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Queue capacity from the policy or the diagnosed env default. */
std::size_t
resolveCapacity(const ServicePolicy &policy)
{
    return policy.queueCapacity != 0
               ? policy.queueCapacity
               : static_cast<std::size_t>(envLong(
                     "QPULSE_SERVICE_QUEUE", 32, 1, 4096));
}

/**
 * Construction-time policy validation: a service must refuse to start
 * with a breaker that can never trip/close or a scheduler whose shares
 * are degenerate, instead of misbehaving silently later.
 */
Status
validateServicePolicy(const ServicePolicy &policy)
{
    if (Status breakerStatus = validateBreakerPolicy(policy.breaker);
        !breakerStatus.ok())
        return breakerStatus;
    if (policy.fleet.failoverBudget < 1)
        return Status::error(
            ErrorCode::InvalidArgument,
            "FleetPolicy: failoverBudget must be >= 1 (a job always "
            "tries at least one backend), got " +
                std::to_string(policy.fleet.failoverBudget));
    if (!(policy.fleet.defaultQuota.weight > 0.0))
        return Status::error(ErrorCode::InvalidArgument,
                             "FleetPolicy: defaultQuota.weight must "
                             "be > 0 for weighted-fair dequeue");
    for (const auto &entry : policy.fleet.tenants)
        if (!(entry.second.weight > 0.0))
            return Status::error(
                ErrorCode::InvalidArgument,
                "FleetPolicy: tenant '" + entry.first +
                    "' weight must be > 0 for weighted-fair dequeue");
    return Status::okStatus();
}

/** The pool of one behind the single-backend constructor. */
std::shared_ptr<BackendPool>
poolOfOne(std::shared_ptr<const PulseBackend> backend,
          PulseSimulator sim, const ServicePolicy &policy)
{
    BackendPool::Policies policies;
    policies.retry = policy.retry;
    policies.watchdog = policy.watchdog;
    policies.breaker = policy.breaker;
    policies.artifactStore = policy.artifactStore;
    policies.compileMode = policy.compileMode;
    policies.compileCache = policy.compileCache;
    auto pool = std::make_shared<BackendPool>(std::move(policies));
    pool->addBackend("default", std::move(backend), std::move(sim));
    return pool;
}

/**
 * The fast-fail message when no member is routable: every member with
 * its admin state, and for a quarantined one its breaker state and the
 * cooldown the probe pump has yet to spend.
 */
std::string
noRoutableBackendMessage(const BackendPool &pool)
{
    std::string members;
    for (const std::string &name : pool.names()) {
        if (!members.empty())
            members += "; ";
        const BackendAdminState admin = pool.adminState(name);
        members += "'" + name + "' " + backendAdminStateName(admin);
        if (admin == BackendAdminState::Quarantined)
            members += ", " + breakerStateDetail(pool.breaker(name));
    }
    if (members.empty())
        members = "the pool has no members";
    return "no routable backend (" + members + "): failing fast";
}

/**
 * Codes worth retrying on another fleet member. Backend-health
 * failures (and a breaker denial) fail over; a deadline expiry ends
 * the job (its budget is spent and the partial result is preserved),
 * and cancellation/validation codes mean the same thing everywhere.
 */
bool
failoverEligible(ErrorCode code)
{
    switch (code) {
      case ErrorCode::TransientFailure:
      case ErrorCode::Timeout:
      case ErrorCode::RetriesExhausted:
      case ErrorCode::StaleCalibration:
      case ErrorCode::Unavailable:
        return true;
      default:
        return false;
    }
}

} // namespace

ExecutionService::ExecutionService(
    std::shared_ptr<const PulseBackend> backend, PulseSimulator sim,
    ServicePolicy policy)
    : ExecutionService(poolOfOne(std::move(backend), std::move(sim),
                                 policy),
                       policy)
{
}

ExecutionService::ExecutionService(std::shared_ptr<BackendPool> pool,
                                   ServicePolicy policy)
    : policy_(std::move(policy)), capacity_(resolveCapacity(policy_)),
      pool_(std::move(pool))
{
    qpulseRequire(pool_ != nullptr,
                  "ExecutionService: needs a non-null BackendPool");
    throwIfError(validateServicePolicy(policy_));
}

const TenantQuota &
ExecutionService::tenantQuota(const std::string &tenant) const
{
    auto it = policy_.fleet.tenants.find(tenant);
    return it == policy_.fleet.tenants.end()
               ? policy_.fleet.defaultQuota
               : it->second;
}

std::size_t
ExecutionService::queuedForTenant(const std::string &tenant) const
{
    std::size_t count = 0;
    for (const PendingJob &job : queue_)
        if (job.request.tenant == tenant)
            ++count;
    return count;
}

void
ExecutionService::noteTerminal(const Status &status)
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    static telemetry::Counter &c_completed =
        registry.counter("service.completed");
    static telemetry::Counter &c_cancelled =
        registry.counter("service.cancelled");
    static telemetry::Counter &c_deadline =
        registry.counter("service.deadline_exceeded");
    static telemetry::Counter &c_failed =
        registry.counter("service.failed");
    switch (status.code()) {
      case ErrorCode::Ok:
        ++stats_.completed;
        c_completed.increment();
        break;
      case ErrorCode::Cancelled:
        ++stats_.cancelled;
        c_cancelled.increment();
        break;
      case ErrorCode::DeadlineExceeded:
        ++stats_.deadlineExceeded;
        c_deadline.increment();
        break;
      default:
        ++stats_.failed;
        c_failed.increment();
        break;
    }
}

Status
ExecutionService::submit(JobRequest request)
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    static telemetry::Counter &c_submitted =
        registry.counter("service.submitted");
    static telemetry::Counter &c_admitted =
        registry.counter("service.admitted");
    static telemetry::Counter &c_rejected =
        registry.counter("service.rejected");
    static telemetry::Counter &c_shed =
        registry.counter("service.shed");
    static telemetry::Counter &c_tenant_rejected =
        registry.counter("service.tenant_rejected");
    static telemetry::Gauge &g_depth =
        registry.gauge("service.queue_depth");

    ++stats_.submitted;
    c_submitted.increment();

    // A job needs at least one shot. Refused here, it never takes a
    // slot; admitted, its runShots would throw out of drain() and lose
    // the outcomes of every other job in that drain.
    if (request.shots < 1) {
        ++stats_.rejected;
        c_rejected.increment();
        return Status::error(ErrorCode::InvalidArgument,
                             "shots must be >= 1, got " +
                                 std::to_string(request.shots) +
                                 ": admission refused");
    }

    // A job whose token/deadline already fired never takes a slot.
    if (Status gate = request.deadline.check(request.token);
        !gate.ok()) {
        noteTerminal(gate);
        return gate;
    }

    // Tenant quota: one tenant may never crowd the shared queue past
    // its cap, however fast it submits — capacity left open this way
    // is what keeps other tenants' jobs admissible.
    const TenantQuota &quota = tenantQuota(request.tenant);
    if (quota.maxQueued > 0 &&
        queuedForTenant(request.tenant) >= quota.maxQueued) {
        ++stats_.rejected;
        ++stats_.tenantRejected;
        c_rejected.increment();
        c_tenant_rejected.increment();
        return Status::error(
            ErrorCode::ResourceExhausted,
            "tenant '" + request.tenant + "' is at its quota (" +
                std::to_string(quota.maxQueued) +
                " queued jobs): admission refused");
    }

    if (queue_.size() >= capacity_) {
        // Shed candidate: the lowest-priority queued job; among ties
        // the most recently submitted loses (earlier submissions of
        // equal priority have waited longer and keep their claim).
        auto victim = queue_.end();
        for (auto it = queue_.begin(); it != queue_.end(); ++it)
            if (victim == queue_.end() ||
                it->request.priority < victim->request.priority ||
                (it->request.priority == victim->request.priority &&
                 it->id > victim->id))
                victim = it;
        if (victim == queue_.end() ||
            victim->request.priority >= request.priority) {
            ++stats_.rejected;
            c_rejected.increment();
            return Status::error(
                ErrorCode::ResourceExhausted,
                "queue full (" + std::to_string(capacity_) +
                    " jobs) and priority " +
                    std::to_string(request.priority) +
                    " does not outrank any queued job");
        }
        JobOutcome out;
        out.id = victim->id;
        out.key = victim->request.key;
        out.priority = victim->request.priority;
        out.tenant = victim->request.tenant;
        out.shed = true;
        out.status = Status::error(
            ErrorCode::ResourceExhausted,
            "shed by admission control: displaced by a priority-" +
                std::to_string(request.priority) + " job");
        shedOutcomes_.push_back(std::move(out));
        queue_.erase(victim);
        ++stats_.shed;
        c_shed.increment();
    }

    PendingJob job;
    job.id = nextId_++;
    job.request = std::move(request);
    job.submitted = std::chrono::steady_clock::now();
    queue_.push_back(std::move(job));
    ++stats_.admitted;
    c_admitted.increment();
    g_depth.set(static_cast<double>(queue_.size()));
    return Status::okStatus();
}

Status
ExecutionService::compileCircuit(const PulseCompiler &compiler,
                                 const QuantumCircuit &circuit,
                                 Schedule &out)
{
    try {
        CompileResult result = compiler.compile(circuit);
        // A failed validation is the compiler saying the current
        // cmd_def cannot express this circuit within the channel
        // budget — structurally terminal, never executed.
        if (!result.validation.ok())
            return result.validation;
        out = std::move(result.schedule);
        return Status::okStatus();
    } catch (const StatusError &error) {
        return error.status();
    } catch (const std::exception &error) {
        return Status::error(ErrorCode::InvalidArgument,
                             std::string("compile failed: ") +
                                 error.what());
    }
}

JobOutcome
ExecutionService::executeJob(PendingJob &job)
{
    telemetry::TraceSpan span("service.job");
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    static telemetry::Counter &c_fastfail =
        registry.counter("service.breaker_fastfail");
    static telemetry::Counter &c_failovers =
        registry.counter("fleet.failovers");
    static telemetry::Histogram &h_wall =
        registry.histogram("service.job.wall_us");
    static telemetry::Histogram &h_queue_wait =
        registry.histogram("service.queue_wait_us");
    const auto t0 = std::chrono::steady_clock::now();
    h_queue_wait.observe(wallUsSince(job.submitted));

    JobOutcome out;
    out.id = job.id;
    out.key = job.request.key;
    out.priority = job.request.priority;
    out.tenant = job.request.tenant;

    // Gate: a cancelled or expired job terminates without touching a
    // backend (and without charging a breaker either way).
    if (Status gate =
            job.request.deadline.check(job.request.token);
        !gate.ok()) {
        out.status = std::move(gate);
        noteTerminal(out.status);
        h_wall.observe(wallUsSince(t0));
        return out;
    }

    // Routing set. "default" routes freely across the healthy fleet;
    // any other name pins the job to that member — no failover, and a
    // fast fail naming the backend when it is not in service.
    const bool pinned = !job.request.backendName.empty() &&
                        job.request.backendName != "default";
    std::vector<std::string> candidates;
    if (pinned) {
        const std::string &name = job.request.backendName;
        if (!pool_->has(name)) {
            out.status = Status::error(
                ErrorCode::InvalidArgument,
                "unknown backend '" + name + "': not in the fleet");
            noteTerminal(out.status);
            h_wall.observe(wallUsSince(t0));
            return out;
        }
        const BackendAdminState admin = pool_->adminState(name);
        if (admin != BackendAdminState::Active) {
            out.breakerFastFail = true;
            out.backend = name;
            out.status = Status::error(
                ErrorCode::Unavailable,
                admin == BackendAdminState::Draining
                    ? "backend '" + name +
                          "' unavailable: draining for "
                          "recalibration; failing fast"
                    : breakerDenialMessage(name,
                                           pool_->breaker(name)));
            ++stats_.breakerFastFails;
            c_fastfail.increment();
            h_wall.observe(wallUsSince(t0));
            return out;
        }
        candidates.push_back(name);
    } else {
        candidates = pool_->routingOrder();
    }

    if (candidates.empty()) {
        out.breakerFastFail = true;
        out.status = Status::error(ErrorCode::Unavailable,
                                   noRoutableBackendMessage(*pool_));
        ++stats_.breakerFastFails;
        c_fastfail.increment();
        h_wall.observe(wallUsSince(t0));
        return out;
    }

    ResilientRequest request;
    request.schedule = job.request.schedule;
    request.key = job.request.key;
    request.fallback = job.request.fallback;
    request.baselineProxy = job.request.baselineProxy;

    PulseShotOptions opts;
    opts.shots = job.request.shots;
    opts.seed = job.request.seed;
    opts.token = job.request.token;
    opts.deadline = job.request.deadline;

    // Failover loop: walk the routing order healthiest-first, up to
    // the budget of distinct backends. The deadline is shared across
    // hops (Deadline state is shared), so failing over never buys a
    // job more budget than it was admitted with.
    const int budget = (!pinned && policy_.fleet.failoverEnabled)
                           ? std::max(1, policy_.fleet.failoverBudget)
                           : 1;
    int hops = 0;
    for (const std::string &name : candidates) {
        if (hops >= budget)
            break;
        ++hops;
        // Circuit-carrying job: lower it for *this* member through its
        // compiler. All member compilers share one CompileCache, and
        // the key carries the calibration generation — members sharing
        // a calibration serve the hop from cache instead of re-running
        // the pass pipeline per failover hop.
        if (job.request.circuit) {
            if (Status compiled = compileCircuit(
                    pool_->compiler(name), *job.request.circuit,
                    request.schedule);
                !compiled.ok()) {
                out.path.push_back(
                    FailoverHop{name, compiled.code()});
                out.backend = name;
                out.execution = ResilientOutcome{};
                out.execution.status = std::move(compiled);
                if (!failoverEligible(out.execution.status.code()))
                    break;
                continue;
            }
        }
        BackendPool::PoolRun run = pool_->runOn(name, request, opts);
        out.path.push_back(FailoverHop{name, run.outcome.status.code()});
        out.backend = name;
        out.executed = out.executed || run.ran;
        out.execution = std::move(run.outcome);
        const ErrorCode code = out.execution.status.code();
        if (code == ErrorCode::Ok || !failoverEligible(code))
            break;
    }
    if (hops > 1) {
        stats_.failovers += hops - 1;
        c_failovers.add(static_cast<std::uint64_t>(hops - 1));
    }

    out.status = out.execution.status;
    if (!out.status.ok() && out.path.size() > 1) {
        // Breadcrumb trail: the terminal Status records every backend
        // tried and how each hop ended.
        std::string trail;
        for (std::size_t i = 0; i < out.path.size(); ++i) {
            if (i != 0)
                trail += " -> ";
            trail += out.path[i].backend;
            trail += ':';
            trail += errorCodeName(out.path[i].code);
        }
        out.status = Status(out.status.code(),
                            out.status.message() +
                                " [fleet path: " + trail + "]");
    }

    if (!out.executed &&
        out.status.code() == ErrorCode::Unavailable) {
        // Every hop was a breaker denial: the job never ran anywhere.
        out.breakerFastFail = true;
        ++stats_.breakerFastFails;
        c_fastfail.increment();
        h_wall.observe(wallUsSince(t0));
        return out;
    }

    noteTerminal(out.status);
    h_wall.observe(wallUsSince(t0));
    return out;
}

void
ExecutionService::precompileQueued(std::vector<PendingJob> &jobs)
{
    // The compiler the drain will (first) lower against: the
    // healthiest routable member's (failover hops recompile per
    // member, but a shared calibration generation makes those hops
    // cache hits).
    const std::vector<std::string> order = pool_->routingOrder();
    if (order.empty())
        return;
    const PulseCompiler &compiler = pool_->compiler(order.front());

    // Dedup BEFORE fanning out: each distinct CompileKey compiles
    // exactly once, so the compile.cache.* counters are thread-count
    // invariant (one miss per distinct key; duplicates become memory
    // hits at execute time) — concurrent same-key compiles would
    // instead split miss/coalesced by scheduling. Compile errors are
    // swallowed here; the per-job compile reports them with the job's
    // identity attached.
    std::vector<const QuantumCircuit *> distinct;
    std::unordered_set<CompileKey, CompileKeyHash> seen;
    for (const PendingJob &job : jobs) {
        if (!job.request.circuit)
            continue;
        if (seen.insert(compiler.cacheKey(*job.request.circuit))
                .second)
            distinct.push_back(&*job.request.circuit);
    }
    if (distinct.empty())
        return;

    telemetry::TraceSpan span("service.precompile");
    ThreadPool::global().parallelFor(
        distinct.size(),
        [&](std::size_t i) {
            Schedule lowered;
            (void)compileCircuit(compiler, *distinct[i], lowered);
        },
        policy_.maxThreads);
}

std::vector<JobOutcome>
ExecutionService::drain()
{
    static telemetry::Gauge &g_depth =
        telemetry::MetricsRegistry::global().gauge(
            "service.queue_depth");

    std::vector<PendingJob> jobs(
        std::make_move_iterator(queue_.begin()),
        std::make_move_iterator(queue_.end()));
    queue_.clear();
    g_depth.set(0.0);

    // Warm the compile cache for every distinct pending circuit
    // concurrently before the (sequential) execution loop starts.
    precompileQueued(jobs);

    std::vector<JobOutcome> outcomes = std::move(shedOutcomes_);
    shedOutcomes_.clear();
    outcomes.reserve(outcomes.size() + jobs.size());
    long seq = 0;

    // Weighted-fair interleave across tenants: each dequeue goes to
    // the tenant with the smallest virtual finish time (jobs served /
    // weight; ties to the lexicographically first tenant), priority
    // order within the tenant and submission order among equals. A
    // heavy tenant gets proportionally more slots but can never lock
    // the lighter ones out of the drain. The sort key is total, so
    // the execution order — and every counter derived from it — is
    // deterministic.
    std::sort(jobs.begin(), jobs.end(),
              [](const PendingJob &a, const PendingJob &b) {
                  if (a.request.priority != b.request.priority)
                      return a.request.priority > b.request.priority;
                  return a.id < b.id;
              });
    std::map<std::string, std::deque<PendingJob>> lanes;
    for (PendingJob &job : jobs)
        lanes[job.request.tenant].push_back(std::move(job));
    std::map<std::string, long> served;

    // Give quarantined members a recovery pump before routing —
    // probes, not scheduled jobs, are their way back in.
    pool_->pumpProbes();

    while (!lanes.empty()) {
        auto next = lanes.end();
        double nextFinish = 0.0;
        for (auto it = lanes.begin(); it != lanes.end(); ++it) {
            const double finish =
                static_cast<double>(served[it->first] + 1) /
                tenantQuota(it->first).weight;
            if (next == lanes.end() || finish < nextFinish) {
                next = it;
                nextFinish = finish;
            }
        }
        PendingJob job = std::move(next->second.front());
        next->second.pop_front();
        ++served[next->first];
        if (next->second.empty())
            lanes.erase(next);

        JobOutcome out = executeJob(job);
        out.drainSeq = seq++;
        outcomes.push_back(std::move(out));
        pool_->pumpProbes();
    }

    std::sort(outcomes.begin(), outcomes.end(),
              [](const JobOutcome &a, const JobOutcome &b) {
                  return a.id < b.id;
              });

    // End-of-drain persistence flush: newly derived propagators reach
    // disk at a deterministic point, so a process that exits after a
    // drain leaves a warm cache behind. Flush failures are structured
    // but non-fatal — the cache is an accelerator, never a
    // correctness dependency.
    flushPersistence();
    return outcomes;
}

} // namespace qpulse
