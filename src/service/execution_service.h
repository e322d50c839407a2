/**
 * @file
 * ExecutionService: the admission-controlled job layer over the
 * resilient execution stack.
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
 *        v per job, priority order
 *   CancelToken/Deadline gate --> cancelled / deadline-exceeded
 *        |
 *        v
 *   CircuitBreaker::allow() --> unavailable (fast fail, no retries)
 *        |
 *        v
 *   ResilientExecutor::run --> validate / inject / retry /
 *        |                     recalibrate / degrade, with the token
 *        v                     and deadline threaded down to the shot
 *   JobOutcome                 loop and the simulator evolve loops
 *
 * Deadlines expire to a structured `deadline-exceeded` Status carrying
 * the *partial result* — the shots completed before expiry — rather
 * than discarding finished work. Under QPULSE_VIRTUAL_TIME=1 deadlines
 * built with Deadline::afterMsOrBudget become simulated-sample budgets
 * charged deterministically at shot-batch granularity, so every
 * counter and partial result is bit-identical across QPULSE_THREADS.
 *
 * The service is sequential by design: submit()/drain() run on one
 * thread (the ResilientExecutor beneath is sequential state); the
 * parallelism lives inside each job's shot loop. Telemetry: the
 * service.* counters/gauges/spans registered in docs/OBSERVABILITY.md.
 *
 * **Fleet mode.** Constructed over a BackendPool instead of a single
 * backend, the service becomes a fleet scheduler (docs/ROBUSTNESS.md
 * section 8): jobs are admitted per tenant against a quota, dequeued
 * weighted-fair across tenants, routed to the healthiest active
 * backend (BackendPool::routingOrder), and failed over to the next
 * candidate — up to FleetPolicy::failoverBudget distinct backends —
 * when a hop fails with a backend-health code. Every hop is recorded
 * as a FailoverHop breadcrumb on the JobOutcome, and the terminal
 * Status message carries the full path. A backend whose breaker trips
 * is quarantined and only rejoins routing after deterministic
 * half-open health probes succeed; pinned jobs (backendName other
 * than "default") fail fast against a non-active backend with a
 * Status naming the backend and its breaker state. All of it replays
 * bit-identically across QPULSE_THREADS under QPULSE_VIRTUAL_TIME=1.
 */
#ifndef QPULSE_SERVICE_EXECUTION_SERVICE_H
#define QPULSE_SERVICE_EXECUTION_SERVICE_H

#include <chrono>
#include <deque>
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

/** Per-tenant admission quota and fair-share weight (fleet mode). */
struct TenantQuota
{
    /** Weighted-fair dequeue share; must be > 0. */
    double weight = 1.0;
    /** Max jobs a tenant may hold queued at once; 0 = uncapped. */
    std::size_t maxQueued = 0;
};

/** Fleet-scheduling policy (read only by pool-backed services). */
struct FleetPolicy
{
    /** Route failed jobs to the next-healthiest backend. */
    bool failoverEnabled = true;
    /** Max distinct backends one job may try (>= 1). */
    int failoverBudget = 3;
    /** Quota for tenants absent from `tenants`. */
    TenantQuota defaultQuota;
    /** Per-tenant overrides, keyed by tenant name. */
    std::map<std::string, TenantQuota> tenants;
};

/** Service-wide policy knobs. */
struct ServicePolicy
{
    /**
     * Bounded queue capacity. 0 = read QPULSE_SERVICE_QUEUE (default
     * 32, clamped to [1, 4096]).
     */
    std::size_t queueCapacity = 0;

    /** Policies forwarded to the per-service ResilientExecutor. */
    RetryPolicy retry;
    DriftWatchdogPolicy watchdog;
    DegradePolicy degrade;

    /** Per-backend circuit-breaker policy. */
    CircuitBreakerPolicy breaker;

    /** Thread cap forwarded to every job's shot loop (0 = pool). */
    std::size_t maxThreads = 0;

    /** Fleet scheduling knobs; ignored by single-backend services. */
    FleetPolicy fleet;

    /**
     * Persistent artifact store for the propagator disk tier (null:
     * resolved from QPULSE_CACHE_DIR at construction; still null
     * after that means persistence stays off and the service behaves
     * bit-identically to one without a store). Fleet-mode services
     * ignore this — the BackendPool owns the shared store there
     * (BackendPool::Policies::artifactStore).
     */
    std::shared_ptr<store::ArtifactStore> artifactStore;

    /** Compile mode for circuit-carrying jobs (single-backend mode;
     *  fleet members compile via BackendPool::Policies::compileMode). */
    CompileMode compileMode = CompileMode::Optimized;

    /**
     * Two-tier compile cache for circuit-carrying jobs (null: the
     * service builds one over its artifact store — the memory tier
     * always exists; the persistent tier only with a store). Pass a
     * shared instance to pool compile results across services.
     * Fleet-mode services ignore this — the BackendPool owns the
     * shared cache there (BackendPool::Policies::compileCache).
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
     * duplicates coalesce to one compile (single-flight), and fleet
     * failover recompiles per hop through each member's compiler (a
     * shared calibration generation makes the hop compile a cache
     * hit). A compile whose validation fails terminates the job with
     * that structured Status before anything executes.
     */
    std::optional<QuantumCircuit> circuit;
    /** Standard-flow decomposition to degrade to (optional). */
    std::optional<Schedule> fallback;
    /** Stale-tracking identity (ResilientRequest::key). */
    std::string key;
    /**
     * Breaker scope: jobs against one backend share one breaker. In
     * fleet mode "default" means "route freely"; any other value pins
     * the job to that named pool member (no failover). A single-backend
     * service serves only "default" (or an empty name) and fails any
     * other name with InvalidArgument.
     */
    std::string backendName = "default";
    /** Submitting tenant: quota + weighted-fair lane (fleet mode). */
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

/** One hop of a fleet job's routing path (failover breadcrumb). */
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
    bool breakerFastFail = false; ///< Denied by an Open breaker.

    /** Backend that produced the terminal outcome ("" = none ran). */
    std::string backend;
    /** Submitting tenant (scheduling lane in fleet mode). */
    std::string tenant;
    /** Execution order within its drain; -1 = never dequeued (shed). */
    long drainSeq = -1;
    /** Fleet routing breadcrumbs, one entry per backend tried. */
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
     * The service owns a simulator copy and a ResilientExecutor over
     * `backend`. Sequential use only (see file comment).
     * Throws StatusError on a degenerate policy (validateBreakerPolicy
     * and the fleet checks), so a service never starts with a breaker
     * or scheduler that silently cannot do its job.
     */
    ExecutionService(std::shared_ptr<const PulseBackend> backend,
                     PulseSimulator sim, ServicePolicy policy = {});

    /**
     * Fleet mode: the service schedules over a shared BackendPool —
     * health-aware routing, cross-backend failover, quarantine and
     * weighted-fair tenant dequeue (file comment). The pool is shared
     * so callers can administer it (drain/readmit, fault injectors)
     * alongside the service. Same policy validation as above.
     */
    ExecutionService(std::shared_ptr<BackendPool> pool,
                     ServicePolicy policy = {});

    /** True when this service schedules over a BackendPool. */
    bool fleetMode() const { return pool_ != nullptr; }

    /** The fleet (fleet mode only; fatals otherwise). */
    BackendPool &pool();

    /** Attach the fault source (single-backend mode only; fleet
     *  members get injectors via BackendPool::setFaultInjector). */
    void setFaultInjector(std::shared_ptr<FaultInjector> injector)
    {
        executor().setFaultInjector(std::move(injector));
    }

    /**
     * Drift-watchdog recalibration hook (single-backend mode). The
     * service keeps its own composite hook installed on the executor
     * — a recalibration first retires the persisted-propagator
     * generation (docs/PERSISTENCE.md), then runs this user hook.
     */
    void setRecalibrationHook(std::function<void()> hook)
    {
        executor(); // Fatals in fleet mode, as before.
        userRecalHook_ = std::move(hook);
    }

    /** This service's artifact store (null: persistence disabled;
     *  fleet mode: the pool's store). */
    std::shared_ptr<store::ArtifactStore> artifactStore() const;

    /**
     * The single-backend persistent propagator cache (null when
     * persistence is off or in fleet mode — fleet members keep
     * per-member caches inside the BackendPool).
     */
    const std::shared_ptr<store::PersistentPropagatorCache> &
    persistentCache() const
    {
        return persistCache_;
    }

    /**
     * The compile cache circuit-carrying jobs go through: this
     * service's own in single-backend mode, the pool's shared one in
     * fleet mode. Never null.
     */
    std::shared_ptr<CompileCache> compileCache() const;

    /** The single-backend compiler (fatals in fleet mode: each pool
     *  member owns its own — BackendPool::compiler). */
    PulseCompiler &compiler()
    {
        qpulseRequire(compiler_ != nullptr,
                      "ExecutionService::compiler: fleet-mode "
                      "services keep per-backend compilers inside "
                      "the BackendPool");
        return *compiler_;
    }

    /**
     * Push every queued propagator write-back to disk — this
     * service's cache, or every pool member's in fleet mode. drain()
     * already calls this at the end of each drain; call it directly
     * before a planned process exit.
     */
    Status flushPersistence();

    /**
     * Admission control. Queue has room: admit, return Ok. Queue full:
     * when the newcomer strictly outranks the lowest-priority queued
     * job, that job is shed (most-recently-submitted among ties) and
     * recorded as a resource-exhausted JobOutcome; otherwise the
     * newcomer is rejected with resource-exhausted. A job whose token
     * or deadline already fired is refused up front with its reason.
     */
    Status submit(JobRequest request);

    /**
     * Execute every queued job and return all outcomes — executed,
     * shed and fast-failed — sorted by submission id. Clears the
     * queue. Single-backend mode runs highest priority first
     * (submission order among equals). Fleet mode interleaves tenants
     * weighted-fair — each dequeue goes to the tenant with the
     * smallest virtual finish time (jobs served / weight), priority
     * order within the tenant — and pumps the quarantine probe loop
     * between jobs. JobOutcome::drainSeq records the actual execution
     * order for both modes.
     */
    std::vector<JobOutcome> drain();

    std::size_t queueDepth() const { return queue_.size(); }
    std::size_t queueCapacity() const { return capacity_; }

    const ServiceStats &stats() const { return stats_; }

    /** The breaker gating `backendName` (created on first use). */
    CircuitBreaker &breaker(const std::string &backendName);

    /** The single-backend executor (fatals in fleet mode: each pool
     *  member owns its own). */
    ResilientExecutor &executor()
    {
        qpulseRequire(executor_ != nullptr,
                      "ExecutionService::executor: fleet-mode "
                      "services keep per-backend executors inside "
                      "the BackendPool");
        return *executor_;
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
    JobOutcome executeFleetJob(PendingJob &job);
    void noteTerminal(const Status &status, bool executed);
    /** Composite recalibration handler: retire the persisted
     *  generation, then run the user hook (single-backend mode). */
    void onRecalibration();
    /**
     * Drain-time warm-up: compile every distinct pending circuit
     * concurrently on the shared ThreadPool (deduped by CompileKey
     * first, so counters stay deterministic: one miss per distinct
     * key regardless of thread count). Compile errors are swallowed
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

    std::shared_ptr<const PulseBackend> backend_;
    std::optional<PulseSimulator> sim_;   ///< Single-backend mode.
    ServicePolicy policy_;
    std::size_t capacity_ = 0;
    std::unique_ptr<ResilientExecutor> executor_; ///< Single-backend.
    std::unique_ptr<PulseCompiler> compiler_;     ///< Single-backend.
    std::shared_ptr<CompileCache> compileCache_;  ///< Single-backend.
    std::shared_ptr<BackendPool> pool_;           ///< Fleet mode.
    std::shared_ptr<store::ArtifactStore> artifactStore_;
    std::shared_ptr<store::PersistentPropagatorCache> persistCache_;
    std::function<void()> userRecalHook_;
    std::uint64_t recalEpoch_ = 0; ///< Keys the persist generation.
    std::deque<PendingJob> queue_;
    std::vector<JobOutcome> shedOutcomes_; ///< Victims since last drain.
    std::map<std::string, CircuitBreaker> breakers_;
    ServiceStats stats_;
    std::uint64_t nextId_ = 0;
};

} // namespace qpulse

#endif // QPULSE_SERVICE_EXECUTION_SERVICE_H
