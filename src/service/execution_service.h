/**
 * @file
 * ExecutionService: the admission-controlled job layer over a
 * BackendPool.
 *
 * A production pulse backend is a shared resource: clients submit jobs
 * faster than the device can run them, some jobs matter more than
 * others, and a wedged device must not take the whole queue down with
 * it. This service provides the missing layer:
 *
 *   submit(JobRequest) --> bounded queue (admission control)
 *        |                   full? shed the lowest-priority job
 *        v                   (resource-exhausted) or reject the
 *   drain()                  newcomer when nothing outranks it
 *        |
 *        v per job, weighted-fair across tenants, priority order
 *   CancelToken/Deadline gate --> cancelled / deadline-exceeded
 *        |
 *        v
 *   BackendPool::routingOrder --> unavailable (fast fail, no retries)
 *        |                        when no member is routable
 *        v
 *   BackendPool::runOn --> validate / inject / retry / recalibrate /
 *        |                 degrade on the member's ResilientExecutor,
 *        v                 token and deadline threaded down to the
 *   JobOutcome             shot loop and the simulator evolve loops
 *
 * There is one job path. A single backend is a pool of one member
 * named "default": the single-backend constructor builds that pool,
 * so every service routes, fails over, quarantines and recovers the
 * same way (docs/ROBUSTNESS.md sections 5 and 6). Jobs are admitted
 * per tenant against a quota, dequeued weighted-fair across tenants,
 * routed to the healthiest active member, and failed over to the next
 * candidate (up to FleetPolicy::failoverBudget distinct members) when
 * a hop fails with a backend-health code. Every hop is recorded as a
 * FailoverHop breadcrumb on the JobOutcome, and the terminal Status
 * message carries the full path. A member whose breaker trips is
 * quarantined and only rejoins routing after deterministic half-open
 * health probes succeed; jobs fail fast while no member is routable.
 * Pinned jobs (backendName other than "default") run only on that
 * member and fail fast against it when it is not active, with a
 * Status naming the member and its breaker state.
 *
 * Deadlines expire to a structured `deadline-exceeded` Status carrying
 * the *partial result* — the shots completed before expiry — rather
 * than discarding finished work. Under QPULSE_VIRTUAL_TIME=1 deadlines
 * built with Deadline::afterMsOrBudget become simulated-sample budgets
 * charged deterministically at shot-batch granularity, so every
 * counter, routing decision and partial result is bit-identical
 * across QPULSE_THREADS.
 *
 * The service is sequential by design: submit()/drain() run on one
 * thread (the pool beneath is sequential state), and so does every
 * job, down to its shot loop. The one parallel step is the drain-time
 * precompile of distinct circuits. Telemetry: the service.* and
 * fleet.* counters/gauges/spans registered in docs/OBSERVABILITY.md.
 */
#ifndef QPULSE_SERVICE_EXECUTION_SERVICE_H
#define QPULSE_SERVICE_EXECUTION_SERVICE_H

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "compile/compiler.h"
#include "device/resilient_executor.h"
#include "service/backend_pool.h"
#include "service/circuit_breaker.h"

namespace qpulse {

class CompileCache;

/** Per-tenant admission quota and fair-share weight. */
struct TenantQuota
{
    /** Weighted-fair dequeue share; must be > 0. */
    double weight = 1.0;
    /** Max jobs a tenant may hold queued at once; 0 = uncapped. */
    std::size_t maxQueued = 0;
};

/** Routing and tenant scheduling, read by every service. */
struct FleetPolicy
{
    /** Max distinct backends one job may try (>= 1; 1 = no failover). */
    int failoverBudget = 3;
    /** Quota for tenants absent from `tenants`. */
    TenantQuota defaultQuota;
    /** Per-tenant overrides, keyed by tenant name. */
    std::map<std::string, TenantQuota> tenants;
};

/**
 * Service-wide policy knobs. `queueCapacity`, `maxThreads` and `fleet`
 * configure every service. The rest — `retry`, `watchdog`, `breaker`,
 * `artifactStore`, `compileMode` and `compileCache` — configure only
 * the pool of one that the single-backend constructor
 * builds (they become its BackendPool::Policies); a service over a
 * caller's pool ignores them, because the pool's own policies govern
 * its members.
 */
struct ServicePolicy
{
    /** Bounded queue capacity (>= 1; 0 is refused at construction). */
    std::size_t queueCapacity = 32;

    /** The member's ResilientExecutor policies (pool of one only). */
    RetryPolicy retry;
    DriftWatchdogPolicy watchdog;

    /** The member's circuit-breaker policy (pool of one only). */
    CircuitBreakerPolicy breaker;

    /**
     * Thread cap of the drain-time precompile, which lowers a drain's
     * distinct circuits on the shared pool (0 = the pool's size). Jobs
     * themselves run on the draining thread.
     */
    std::size_t maxThreads = 0;

    /** Routing, failover and tenant scheduling knobs. */
    FleetPolicy fleet;

    /**
     * Persistent artifact store for the compile cache's disk tier
     * (pool of one only; null: resolved from QPULSE_CACHE_DIR by the
     * pool, and still null after that means persistence stays off).
     * See BackendPool::Policies::artifactStore.
     */
    std::shared_ptr<store::ArtifactStore> artifactStore;

    /** Compile mode for circuit-carrying jobs (pool of one only). */
    CompileMode compileMode = CompileMode::Optimized;

    /**
     * Two-tier compile cache for circuit-carrying jobs (pool of one
     * only; null: the pool builds one over its artifact store). Pass
     * a shared instance to pool compile results across services.
     */
    std::shared_ptr<CompileCache> compileCache;
};

/** One unit of work a client submits. */
struct JobRequest
{
    Schedule schedule; ///< Primary schedule to execute.
    /**
     * Assembly circuit to compile instead of a pre-built schedule.
     * When set, `schedule` is ignored: the service lowers the circuit
     * through its memoized compile cache at drain time — distinct
     * pending circuits compile concurrently on the shared ThreadPool,
     * duplicates compile once (the drain dedups them), and failover
     * recompiles per hop through each member's compiler (a shared
     * calibration generation makes the hop compile a cache hit). A
     * compile whose validation fails terminates the job with that
     * structured Status before anything executes.
     */
    std::optional<QuantumCircuit> circuit;
    /** Standard-flow decomposition to degrade to (optional). */
    std::optional<Schedule> fallback;
    /** Stale-tracking identity (ResilientRequest::key). */
    std::string key;
    /**
     * "default" (or empty) routes freely across the pool; any other
     * value pins the job to that named member (no failover), and a
     * name the pool does not hold fails with InvalidArgument. The
     * single-backend constructor's one member is itself named
     * "default", so there both spellings reach it.
     */
    std::string backendName = "default";
    /** Submitting tenant: quota + weighted-fair lane. */
    std::string tenant = "default";
    long shots = 256;
    std::uint64_t seed = 1;
    /** Higher = more important. Ties broken by submission order. */
    int priority = 0;
    /** Job budget; default unlimited. See common/cancellation.h. */
    Deadline deadline;
    /** Cooperative cancel; default inert. */
    CancelToken token;
    /** Baseline proxy override (ResilientRequest::baselineProxy). */
    double baselineProxy = -1.0;
};

/** One hop of a job's routing path (failover breadcrumb). */
struct FailoverHop
{
    std::string backend;            ///< Pool member tried.
    ErrorCode code = ErrorCode::Ok; ///< That hop's terminal code.
};

/** Terminal record of one submitted job. */
struct JobOutcome
{
    std::uint64_t id = 0; ///< Submission order (0 = first submit).
    std::string key;
    int priority = 0;
    /**
     * Terminal status: Ok, or the structured reason — cancelled,
     * deadline-exceeded (partial result in execution.result),
     * resource-exhausted (shed), unavailable (breaker fast-fail),
     * or the executor's terminal error.
     */
    Status status;
    /** Full executor outcome; meaningful only when executed. */
    ResilientOutcome execution;
    bool executed = false;       ///< Reached the executor.
    bool shed = false;           ///< Evicted by admission control.
    bool breakerFastFail = false; ///< No routable member took it.

    /** Backend that produced the terminal outcome ("" = none ran). */
    std::string backend;
    /** Submitting tenant (its scheduling lane). */
    std::string tenant;
    /** Execution order within its drain; -1 = never dequeued (shed). */
    long drainSeq = -1;
    /** Routing breadcrumbs, one entry per backend tried. */
    std::vector<FailoverHop> path;
};

/**
 * Deterministic service counters, mirrored into the service.*
 * telemetry registry. Every field counts admission/terminal decisions
 * — work, never scheduling — so values are thread-count invariant
 * (under virtual-time deadlines; wall-clock deadlines are inherently
 * timing-dependent).
 */
struct ServiceStats
{
    long submitted = 0;
    long admitted = 0;
    long rejected = 0; ///< Newcomer refused at admission.
    long shed = 0;     ///< Queued job evicted for a newcomer.
    long cancelled = 0;
    long deadlineExceeded = 0;
    long breakerFastFails = 0;
    long completed = 0; ///< Terminal Ok.
    long failed = 0;    ///< Terminal non-Ok other than the above.
    long failovers = 0; ///< Extra backends tried beyond the first.
    long tenantRejected = 0; ///< Admissions refused by tenant quota.
};

class ExecutionService
{
  public:
    /**
     * Single backend: builds a BackendPool of one member named
     * "default" over `backend` and `sim`, from the policy's pool
     * fields (ServicePolicy), and schedules over it like the pool
     * constructor below. Reach the member through pool() under
     * "default". Sequential use only (see file comment). Throws
     * StatusError on a degenerate policy (validateBreakerPolicy and
     * the FleetPolicy checks), so a service never starts with a
     * breaker or scheduler that silently cannot do its job.
     */
    ExecutionService(std::shared_ptr<const PulseBackend> backend,
                     PulseSimulator sim, ServicePolicy policy = {});

    /**
     * Schedule over a shared BackendPool — health-aware routing,
     * cross-backend failover, quarantine and weighted-fair tenant
     * dequeue (file comment). The pool is shared so callers can
     * administer it (drain/readmit, fault injectors) alongside the
     * service. Same policy validation as above.
     */
    ExecutionService(std::shared_ptr<BackendPool> pool,
                     ServicePolicy policy = {});

    /** The pool this service schedules over. */
    BackendPool &pool() { return *pool_; }

    /** The pool's artifact store (null: persistence disabled). */
    std::shared_ptr<store::ArtifactStore> artifactStore() const
    {
        return pool_->artifactStore();
    }

    /** The pool's compile cache, shared by every member (never null). */
    std::shared_ptr<CompileCache> compileCache() const
    {
        return pool_->compileCache();
    }

    /**
     * Push the compile cache's queued write-backs to disk. drain()
     * already calls this at the end of each drain; call it directly
     * before a planned process exit.
     */
    Status flushPersistence() { return pool_->flushPersistence(); }

    /**
     * Admission control. Queue has room: admit, return Ok. Queue full:
     * when the newcomer strictly outranks the lowest-priority queued
     * job, that job is shed (most-recently-submitted among ties) and
     * recorded as a resource-exhausted JobOutcome; otherwise the
     * newcomer is rejected with resource-exhausted. A job asking for
     * fewer than one shot is rejected with invalid-argument; a job
     * whose token or deadline already fired, or whose tenant is at its
     * quota, is refused up front with its reason.
     */
    Status submit(JobRequest request);

    /**
     * Execute every queued job and return all outcomes — executed,
     * shed and fast-failed — sorted by submission id. Clears the
     * queue. Tenants interleave weighted-fair — each dequeue goes to
     * the tenant with the smallest virtual finish time (jobs served /
     * weight), priority order within the tenant (submission order
     * among equals) — and the quarantine probe loop is pumped between
     * jobs. JobOutcome::drainSeq records the actual execution order.
     *
     * `onOutcome`, when set, sees every outcome the moment it is
     * final, in execution order: first each job shed since the last
     * drain (drainSeq -1), then each dequeued job right after it ran,
     * before the probe pump and the next job, and all of them before
     * the end-of-drain persistence flush. It runs on the draining
     * thread. It may call submit(): that job lands in the next drain.
     * Calling drain() from it throws FatalError.
     */
    std::vector<JobOutcome>
    drain(const std::function<void(const JobOutcome &)> &onOutcome = {});

    std::size_t queueDepth() const { return queue_.size(); }
    std::size_t queueCapacity() const { return policy_.queueCapacity; }

    const ServiceStats &stats() const { return stats_; }

    /** The breaker of pool member `backendName`. */
    const CircuitBreaker &breaker(const std::string &backendName) const
    {
        return pool_->breaker(backendName);
    }

    /** Effective quota for `tenant` (override or the default). */
    const TenantQuota &tenantQuota(const std::string &tenant) const;

    /** Jobs `tenant` currently holds in the queue. */
    std::size_t queuedForTenant(const std::string &tenant) const;

  private:
    struct PendingJob
    {
        std::uint64_t id = 0;
        JobRequest request;
        /** Stamped at submit; the queue wait ends when execution
         *  starts (service.queue_wait_us). */
        std::chrono::steady_clock::time_point submitted;
    };

    JobOutcome executeJob(PendingJob &job);
    void noteTerminal(const Status &status);
    /**
     * Drain-time warm-up: compile every distinct pending circuit
     * concurrently on the shared ThreadPool through the healthiest
     * routable member's compiler (deduped by CompileKey first, so
     * counters stay deterministic: one miss per distinct key
     * regardless of thread count). Compile errors are swallowed
     * here — the per-job compile in executeJob reports them with the
     * job's identity attached.
     */
    void precompileQueued(std::vector<PendingJob> &jobs);
    /**
     * Lower `circuit` through `compiler`'s cache into `out`. Non-Ok:
     * the compile threw (structured) or its validation failed; the
     * job must terminate without executing.
     */
    static Status compileCircuit(const PulseCompiler &compiler,
                                 const QuantumCircuit &circuit,
                                 Schedule &out);

    ServicePolicy policy_;
    std::shared_ptr<BackendPool> pool_;
    std::deque<PendingJob> queue_;
    std::vector<JobOutcome> shedOutcomes_; ///< Victims since last drain.
    ServiceStats stats_;
    std::uint64_t nextId_ = 0;
    bool draining_ = false; ///< Refuses drain() from its own callback.
};

} // namespace qpulse

#endif // QPULSE_SERVICE_EXECUTION_SERVICE_H
