/**
 * @file
 * BackendPool: the fault-tolerant backend fleet under the execution
 * service.
 *
 * The paper's workflow assumes a cloud fleet of independently
 * calibrated devices whose calibrations drift and fail independently;
 * this pool models exactly that. Each member owns its calibration
 * snapshot (backend + simulator), its own ResilientExecutor, its own
 * CircuitBreaker, and an independent seed-derived FaultInjector
 * (FaultPlan::deriveForBackend), so one wedged or drifting device
 * never takes the fleet down. The pool supplies the fleet primitives
 * the scheduler composes:
 *
 *  - **health-aware routing**: routingOrder() ranks the active
 *    backends by a deterministic health score — breaker state,
 *    rolling failure rate over a sliding outcome window, and
 *    calibration freshness (jobs since the last recalibration);
 *  - **quarantine / recovery**: a backend whose breaker trips Open is
 *    quarantined (excluded from routing) and re-admitted *only* after
 *    deterministic half-open health-probe jobs succeed
 *    (pumpProbes()), never by an admin call;
 *  - **graceful drain / re-admit**: beginDrain() removes a backend
 *    from routing for recalibration; readmit() refreshes its
 *    calibration snapshot (fault-injector recalibrate, freshness and
 *    breaker reset, calibration version bump) and restores it.
 *
 * Determinism: every routing, quarantine and probe decision is a pure
 * function of the job outcome sequence — breaker cooldowns count
 * denied calls, health windows count recorded outcomes, probe seeds
 * derive from a probe counter — so a fleet run under
 * QPULSE_VIRTUAL_TIME=1 is bit-identical across QPULSE_THREADS.
 * Sequential use only, like the service that drives it. Telemetry:
 * the fleet.* counters/gauges/spans in docs/OBSERVABILITY.md.
 */
#ifndef QPULSE_SERVICE_BACKEND_POOL_H
#define QPULSE_SERVICE_BACKEND_POOL_H

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "compile/compiler.h"
#include "device/fault_injector.h"
#include "device/resilient_executor.h"
#include "service/circuit_breaker.h"

namespace qpulse {

class CompileCache;

namespace store {
class ArtifactStore;
} // namespace store

/** Administrative state of one fleet member. */
enum class BackendAdminState
{
    Active,      ///< Routable: takes scheduled jobs.
    Quarantined, ///< Breaker tripped; only probe jobs may run.
    Draining     ///< Admin-drained for recalibration; not routable.
};

/** Stable lower-case name ("active" / "quarantined" / "draining"). */
const char *backendAdminStateName(BackendAdminState state);

/** Knobs of the deterministic per-backend health score. */
struct HealthPolicy
{
    /** Sliding window of recorded per-job outcomes per backend. */
    int window = 16;
    /** Jobs since recalibration at which staleness saturates at 1. */
    double freshnessHorizonJobs = 256.0;
};

/** Half-open health-probe configuration. */
struct ProbePolicy
{
    /** Shots per probe job (kept small: probes are overhead). */
    long shots = 8;
    /** Base seed; each probe derives from (seed, probe ordinal). */
    std::uint64_t seed = 0x9120BE5Eull;
};

/** Deterministic fleet-level counters (mirrored into fleet.*). */
struct FleetStats
{
    long jobs = 0;          ///< Jobs routed through runOn().
    long failures = 0;      ///< Health-relevant job failures recorded.
    long quarantines = 0;   ///< Active -> Quarantined transitions.
    long readmissions = 0;  ///< Quarantined -> Active via probes.
    long probes = 0;        ///< Half-open probe jobs run.
    long probeFailures = 0; ///< Probes that re-opened the breaker.
    long drains = 0;        ///< beginDrain() calls honoured.
    long drainReadmissions = 0; ///< readmit() calls honoured.
    long recalibrations = 0;    ///< Drift-watchdog recalibrations.
};

class BackendPool
{
  public:
    /** Policies shared by every member (per-member state is owned). */
    struct Policies
    {
        RetryPolicy retry;
        DriftWatchdogPolicy watchdog;
        CircuitBreakerPolicy breaker;
        HealthPolicy health;
        ProbePolicy probe;
        /**
         * Persistent artifact store under the compile cache (null:
         * resolved from QPULSE_CACHE_DIR at construction; still null
         * after that means persistence is off and behavior is
         * bit-identical to a store-less pool). It holds compiled
         * schedules keyed by each member's calibration generation
         * (docs/PERSISTENCE.md).
         */
        std::shared_ptr<store::ArtifactStore> artifactStore;

        /** Compile mode every member's compiler lowers in. */
        CompileMode compileMode = CompileMode::Optimized;

        /**
         * Compile cache shared by every member's compiler (null: the
         * pool builds one over its artifact store — the memory tier
         * exists even store-less, so failover hops between members
         * sharing a calibration generation hit instead of re-running
         * the pass pipeline). Keys carry each member's calibration
         * generation, so distinct calibrations never cross-serve.
         */
        std::shared_ptr<CompileCache> compileCache;
    };

    /** Result of routing one job to one member. */
    struct PoolRun
    {
        bool ran = false; ///< False: the member's breaker denied it.
        ResilientOutcome outcome;
    };

    /** Throws StatusError on a degenerate breaker/health policy.
     *  (Two overloads rather than one defaulted argument: a `= {}`
     *  default would be parsed before Policies' member initializers
     *  are complete.) */
    BackendPool();
    explicit BackendPool(Policies policies);

    /**
     * Register a fleet member. Names must be unique and non-empty.
     * The probe schedule defaults to backend->probeSchedule(0); pass
     * one explicitly for multi-qubit members. Insertion order is the
     * routing tie-break order, so add backends deterministically.
     */
    void addBackend(std::string name,
                    std::shared_ptr<const PulseBackend> backend,
                    PulseSimulator sim);
    void addBackend(std::string name,
                    std::shared_ptr<const PulseBackend> backend,
                    PulseSimulator sim, Schedule probe);

    /** Attach (or clear, with null) a member's fault source. */
    void setFaultInjector(const std::string &name,
                          std::shared_ptr<FaultInjector> injector);

    std::size_t size() const { return entries_.size(); }
    bool has(const std::string &name) const;
    /** Member names in insertion order. */
    std::vector<std::string> names() const;

    BackendAdminState adminState(const std::string &name) const;
    const CircuitBreaker &breaker(const std::string &name) const;
    long calibrationVersion(const std::string &name) const;
    long jobsSinceCalibration(const std::string &name) const;

    /**
     * Deterministic health score of one member: breaker base (closed
     * 1.0, half-open 0.5) minus the windowed failure rate and the
     * calibration-staleness penalties. Quarantined/draining members
     * score 0 (they are excluded from routing anyway).
     */
    double healthScore(const std::string &name) const;

    /**
     * Active members, healthiest first (score descending, insertion
     * order among ties). This is the failover order: a denied or
     * failed job retries down this list.
     */
    std::vector<std::string> routingOrder() const;

    /**
     * Execute one job on the named member: breaker gate, resilient
     * run, breaker/health accounting, and the Active -> Quarantined
     * transition when the member's breaker trips. The caller (the
     * fleet scheduler) owns failover across members.
     */
    PoolRun runOn(const std::string &name,
                  const ResilientRequest &request,
                  const PulseShotOptions &opts);

    /**
     * Quarantine recovery pump: for each quarantined member (in
     * insertion order) spend one breaker-cooldown denial, or — once
     * the cooldown is over — run one deterministic half-open health
     * probe. Enough successful probes close the breaker and re-admit
     * the member; a failed probe re-opens it and restarts the
     * cooldown. The service calls this once per drained job, so
     * recovery time is counted in scheduled work, not wall time.
     */
    void pumpProbes();

    /**
     * Remove an Active member from routing for recalibration.
     * Quarantined members cannot be drained (their path back is the
     * probe loop); draining twice is an error.
     */
    Status beginDrain(const std::string &name);

    /**
     * Re-admit a Draining member after recalibration: clears any
     * active drift (FaultInjector::recalibrate), resets calibration
     * freshness and the rolling health window, bumps the calibration
     * version and installs a fresh breaker. Only valid from
     * Draining — a quarantined member is re-admitted exclusively by
     * successful health probes.
     */
    Status readmit(const std::string &name);

    const FleetStats &stats() const { return stats_; }

    /** The shared policy block (read-only). */
    const Policies &policies() const { return policies_; }

    /** The shared artifact store (null: persistence disabled). */
    const std::shared_ptr<store::ArtifactStore> &artifactStore() const
    {
        return store_;
    }

    /** Flush the store: every pending compiled schedule reaches disk. */
    Status flushPersistence();

    /**
     * One member's gate-to-pulse compiler, wired to the pool's shared
     * compile cache. Its generation tracks the member's recalibration
     * epoch: drift-watchdog refresh and drain/readmit both advance it,
     * so schedules compiled under the old calibration miss.
     */
    PulseCompiler &compiler(const std::string &name);

    /** One member's current compile-key calibration generation. */
    std::uint64_t compileGeneration(const std::string &name) const;

    /** The compile cache every member's compiler shares (never null). */
    const std::shared_ptr<CompileCache> &compileCache() const
    {
        return compileCache_;
    }

  private:
    struct Entry
    {
        std::string name;
        std::shared_ptr<const PulseBackend> backend;
        PulseSimulator sim;
        ResilientExecutor executor;
        CircuitBreaker breaker;
        std::shared_ptr<FaultInjector> injector;
        Schedule probe;
        BackendAdminState admin = BackendAdminState::Active;
        std::vector<char> window; ///< Rolling outcomes, 1 = failure.
        std::size_t windowNext = 0;
        std::size_t windowFill = 0;
        long windowFailures = 0;
        long jobsSinceCalibration = 0;
        long calibrationVersion = 0;
        std::uint64_t probeCounter = 0;
        /** Monotonic recalibration count keyed into the compile
         *  generation. */
        std::uint64_t recalibrationEpoch = 0;
        /** Member compiler over the pool's shared compile cache. */
        std::unique_ptr<PulseCompiler> compiler;

        Entry(std::string name_,
              std::shared_ptr<const PulseBackend> backend_,
              PulseSimulator sim_, Schedule probe_,
              const Policies &policies);
    };

    Entry &find(const std::string &name);
    const Entry &find(const std::string &name) const;

    double scoreOf(const Entry &entry) const;
    /** Record one health-relevant outcome into the rolling window. */
    void recordOutcome(Entry &entry, bool failure);
    /** Move a tripped member into quarantine (idempotent). */
    void maybeQuarantine(Entry &entry);
    /** Run one half-open probe job against `entry`. */
    void runProbe(Entry &entry);
    /** Refresh the fleet.* admin gauges after a state change. */
    void updateGauges() const;
    /** Advance `entry`'s compile generation after a recalibration. */
    void bumpCompileGeneration(Entry &entry);

    Policies policies_;
    std::shared_ptr<store::ArtifactStore> store_;
    std::shared_ptr<CompileCache> compileCache_;
    std::vector<std::unique_ptr<Entry>> entries_;
    FleetStats stats_;
};

} // namespace qpulse

#endif // QPULSE_SERVICE_BACKEND_POOL_H
