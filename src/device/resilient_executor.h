/**
 * @file
 * ResilientExecutor: pulse execution that survives a faulty substrate
 * (validate -> inject -> retry -> recalibrate -> degrade).
 *
 * Wraps PulseBackend::runShots with the recovery loop a production
 * client of a real OpenPulse backend needs:
 *
 *  - every schedule passes the validateSchedule gate before touching
 *    the simulator (structured reject, never silent garbage);
 *  - transient batch failures/timeouts are retried with bounded
 *    exponential backoff and *deterministic* jitter (seed-derived, so
 *    fault-injected runs stay bit-identical across thread counts);
 *  - corrupted AWG uploads (NaN, clipped envelopes) are caught by the
 *    same gate and re-uploaded;
 *  - a drift watchdog compares a readout-fidelity proxy (probability
 *    of the expected top basis state) against the calibrated baseline
 *    and triggers a targeted calibration refresh when the tolerance is
 *    crossed — once per crossing, bounded per run;
 *  - when a (typically augmented-basis: DirectRx / CR(theta)) entry is
 *    structurally invalid or repeatedly failing, the executor degrades
 *    gracefully to the caller-supplied standard cmd_def decomposition
 *    instead of erroring out, mirroring how the paper's optimized flow
 *    coexists with the standard flow.
 *
 * Every outcome is counted in a ResilienceStats block threaded into
 * the returned PulseShotResult. The executor is deliberately *not*
 * thread-safe across calls (stale tracking and the fault injector are
 * sequential state), and runShots below it runs on the calling thread
 * too, so one run is sequential end to end.
 */
#ifndef QPULSE_DEVICE_RESILIENT_EXECUTOR_H
#define QPULSE_DEVICE_RESILIENT_EXECUTOR_H

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "device/fault_injector.h"
#include "device/pulse_backend.h"
#include "device/resilience_stats.h"

namespace qpulse {

/**
 * Bounded-retry policy with exponential backoff. The executor accounts
 * each delay (ResilienceStats::backoffTotalMs) and never sleeps: the
 * simulated backend has no rate limit to respect.
 */
struct RetryPolicy
{
    int maxAttempts = 4;        ///< Attempt budget per schedule phase.
    double backoffBaseMs = 1.0; ///< Delay before the first retry.
    double backoffFactor = 2.0; ///< Exponential growth per retry.
    double backoffCapMs = 64.0; ///< Upper bound on a single delay.
    double jitter = 0.25;       ///< +/- fraction, deterministic.
    /**
     * Cap on the *cumulative* backoff of one run() call, both phases
     * included. backoffCapMs bounds a single delay, but maxAttempts
     * delays still sum to ~maxAttempts * cap — a latency hole under a
     * deadline. Once the cumulative delay reaches this cap, later
     * retries proceed immediately. Negative = unbounded (legacy
     * behaviour). Delays are additionally clamped to the deadline's
     * remainingMs() so backoff can never overshoot the job budget.
     */
    double maxTotalBackoffMs = -1.0;
};

/** Drift-watchdog policy. */
struct DriftWatchdogPolicy
{
    /** Allowed drop of the fidelity proxy below the baseline. */
    double tolerance = 0.08;
    /** Calibration refreshes the watchdog may trigger per run. */
    int maxRecalibrations = 2;
};

/** One resilient execution request. */
struct ResilientRequest
{
    Schedule schedule; ///< Primary (optimized/augmented) schedule.
    /**
     * Identity for stale tracking, e.g. "direct_rx/q0". Only requests
     * with a fallback are tracked; empty means no cross-run tracking.
     */
    std::string key;
    /** Standard-flow decomposition to degrade to (optional). */
    std::optional<Schedule> fallback;
    /**
     * Expected probability of the dominant basis state (the readout
     * fidelity proxy's baseline). Negative = derive from a clean
     * fault-free evolution of the schedule.
     */
    double baselineProxy = -1.0;
};

/** Everything a resilient run reports. */
struct ResilientOutcome
{
    /** Ok on success (possibly degraded); the terminal error else. */
    Status status;
    /** Last fault seen, preserved even when recovery succeeded. */
    Status lastError;
    /** Shot result; counts empty if status is not ok. The stats block
     *  is mirrored in result.resilience. */
    PulseShotResult result;
    bool usedFallback = false;
    /** True when the accepted result stayed below the proxy baseline
     *  (best-effort after the retry/recalibration budget ran out). */
    bool degraded = false;
    double baseline = 0.0; ///< Baseline proxy used.
    double proxy = 0.0;    ///< Measured proxy of the accepted result.
    ResilienceStats stats; ///< This run's counters.
};

/**
 * The resilient execution layer over PulseBackend::runShots.
 */
class ResilientExecutor
{
  public:
    explicit ResilientExecutor(
        std::shared_ptr<const PulseBackend> backend,
        RetryPolicy retry = {}, DriftWatchdogPolicy watchdog = {});

    /** Attach the fault source (null = fault-free substrate). */
    void setFaultInjector(std::shared_ptr<FaultInjector> injector)
    {
        injector_ = std::move(injector);
    }

    /**
     * Invoked whenever the drift watchdog fires, in addition to the
     * injector's own recalibrate(). Hook a targeted Calibrator refresh
     * here on a real device. The hook must not change the simulator
     * or the backend during a run: a phase reuses its shot results
     * across the recalibration (see run()).
     */
    void setRecalibrationHook(std::function<void()> hook)
    {
        recalibrationHook_ = std::move(hook);
    }

    /**
     * Execute one request (sequential; see class comment). The clean
     * baselines and every attempt evolve through one propagator cache,
     * picked by runPropagatorCache(sim, opts), so the run derives each
     * propagator once. An attempt that would run a schedule its phase
     * already executed reuses that complete shot result
     * (executor.shot_reuses).
     */
    ResilientOutcome run(const PulseSimulator &sim,
                         const ResilientRequest &request,
                         const PulseShotOptions &opts);

    /**
     * True once `key` failed two runs in a row: future runs then go
     * straight to its fallback decomposition.
     */
    bool entryStale(const std::string &key) const;

    /** Clear a key's failure streak (e.g. after recalibration). */
    void markFresh(const std::string &key);

    /** Lifetime totals across all run() calls. */
    const ResilienceStats &stats() const { return stats_; }

    const RetryPolicy &retryPolicy() const { return retry_; }
    const DriftWatchdogPolicy &watchdogPolicy() const
    {
        return watchdog_;
    }

  private:
    /** Deterministic backoff delay for retry number `attempt`. */
    double backoffMs(int attempt, std::uint64_t run_id,
                     std::uint64_t seed) const;

    void registerFailure(const std::string &key);

    std::shared_ptr<const PulseBackend> backend_;
    std::shared_ptr<FaultInjector> injector_;
    std::function<void()> recalibrationHook_;
    RetryPolicy retry_;
    DriftWatchdogPolicy watchdog_;
    std::map<std::string, int> failureStreaks_;
    ResilienceStats stats_;
    std::uint64_t runCounter_ = 0;
};

} // namespace qpulse

#endif // QPULSE_DEVICE_RESILIENT_EXECUTOR_H
