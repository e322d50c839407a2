/**
 * @file
 * PulseBackend: turns a calibrated PulseLibrary into the cmd_def
 * translation table of Figure 1 — both the standard flow's entries
 * (rz frame changes, the calibrated X90, the echoed-CR CNOT, measure)
 * and the augmented-basis entries this paper adds (DirectX, DirectRx,
 * CR(theta), CR halves). It also provides the channel bookkeeping a
 * schedule consumer needs (which control channel belongs to which
 * directed edge, and which channels receive an Rz frame change).
 */
#ifndef QPULSE_DEVICE_PULSE_BACKEND_H
#define QPULSE_DEVICE_PULSE_BACKEND_H

#include <cstddef>
#include <memory>

#include "circuit/circuit.h"
#include "common/cancellation.h"
#include "common/rng.h"
#include "common/status.h"
#include "device/calibration.h"
#include "device/resilience_stats.h"
#include "pulse/cmd_def.h"
#include "pulsesim/simulator.h"

namespace qpulse {

/**
 * runShots runs at most this many shot batches, in shot order. A batch
 * is the unit of one "backend.shot_batch" span and of one virtual-time
 * charge (docs/OBSERVABILITY.md).
 */
inline constexpr std::size_t kShotBatches = 64;

/** Options for pulse-level shot execution (PulseBackend::runShots). */
struct PulseShotOptions
{
    long shots = 1024;
    std::uint64_t seed = 1;

    /**
     * Cross-shot propagator cache. When null, runShots uses the cache
     * attached to the simulator (PulseSimulator::setPropagatorCache),
     * else creates one for the duration of the call (every shot after
     * the first still hits). ResilientExecutor::run resolves the cache
     * the same way once per run and shares it between its clean
     * baseline and every attempt. Pass a caller-owned cache to extend
     * reuse across schedules, e.g. over an RB sequence batch. Unused
     * when the simulator has caching disabled
     * (setCachingEnabled(false)): the shots then run the per-sample
     * reference path.
     */
    std::shared_ptr<PropagatorCache> cache;

    /**
     * Cooperative cancellation. The default token is inert (free to
     * check, can never fire); pass CancelToken::make() and cancel it
     * from another thread to wind the run down between panels / every
     * few hundred simulated samples. The shots completed so far come
     * back as a partial result (PulseShotResult::partial).
     */
    CancelToken token;

    /**
     * Execution deadline. Wall-clock deadlines are checked per panel
     * and mid-evolution; a virtual-time budget (common/cancellation.h)
     * is charged one shot batch at a time just before the batch runs,
     * so the partial counts are a pure function of the workload.
     */
    Deadline deadline;
};

/**
 * The propagator cache one run on `sim` evolves through: opts.cache if
 * the caller passed one, else the cache attached to `sim`, else a fresh
 * cache. Null when `sim` has caching disabled. runShots and
 * ResilientExecutor::run both pick their cache here.
 */
std::shared_ptr<PropagatorCache>
runPropagatorCache(const PulseSimulator &sim,
                   const PulseShotOptions &opts);

/** Result of a pulse-level shot run. */
struct PulseShotResult
{
    /** Sampled counts per full-space basis state (sum = shots). */
    std::vector<long> counts;

    /** Final-state populations the shots were drawn from. */
    std::vector<double> populations;

    /** Cache counters accumulated during this run (zeros if off). */
    PropagatorCacheStats cacheStats;

    /**
     * Resilience counters. Plain runShots leaves this zeroed; the
     * ResilientExecutor fills in its retry/fault/recalibration
     * accounting so every consumer reads outcomes from one place.
     */
    ResilienceStats resilience;

    /**
     * Partial-result channel. When a cancel token fires or a deadline
     * expires mid-run, runShots returns normally with the shots that
     * did complete (sum(counts) == shotsCompleted < shotsRequested),
     * partial = true, and `interruption` carrying the structured
     * Cancelled / DeadlineExceeded reason. A full run has partial =
     * false and an Ok interruption.
     */
    bool partial = false;
    long shotsRequested = 0;
    long shotsCompleted = 0;
    Status interruption;
};

/**
 * A calibrated backend able to translate basis gates into schedules.
 */
class PulseBackend
{
  public:
    explicit PulseBackend(PulseLibrary library);

    const PulseLibrary &library() const { return library_; }
    const BackendConfig &config() const { return library_.config; }

    /**
     * The cmd_def covering every defined (gate, qubits) pair:
     * standard entries always, augmented entries included so that the
     * optimized compiler can emit them (the standard flow simply never
     * uses them, as on real OpenPulse backends where users may add
     * pulse definitions).
     */
    const CmdDef &cmdDef() const { return cmdDef_; }

    /** Schedule for one basis-gate instance. */
    Schedule schedule(const Gate &gate) const { return cmdDef_.schedule(gate); }

    /**
     * Schedule for a whole basis-level circuit, composed ASAP with a
     * barrier between gates that share qubits (plain per-channel ASAP
     * otherwise). Measures map to the measurement stimulus.
     */
    Schedule scheduleCircuit(const QuantumCircuit &circuit) const;

    /**
     * Minimal health-probe schedule for fleet quarantine recovery: the
     * calibrated x180 on `qubit`, the cheapest pulse whose outcome
     * distribution still separates a healthy substrate from a wedged
     * or badly drifted one. BackendPool runs this through the
     * backend's executor as the deterministic half-open probe job.
     */
    Schedule probeSchedule(std::size_t qubit = 0) const;

    /** Duration (dt) the backend charges a single gate instance. */
    long gateDuration(const Gate &gate) const;

    /** Number of calibrated-pulse applications in one gate instance. */
    std::size_t gatePulseCount(const Gate &gate) const;

    /** Peak |d(t)| across the gate's pulses (for the leakage knob). */
    double gatePeakAmplitude(const Gate &gate) const;

    /**
     * Execute `schedule` on `sim` for opts.shots shots: every shot
     * evolves the ground state through the schedule (drawing from the
     * shared propagator cache, so repeated evolutions after the first
     * are near-free) and samples one measured basis state with its own
     * Rng(deriveSeed(seed, shot)) stream. The shots run in order on
     * the calling thread, as at most kShotBatches batches of panels;
     * parallelism belongs to callers running independent schedules.
     *
     * Per-shot evolution is deliberate: forthcoming per-shot noise
     * (quasi-static drift, stochastic readout) varies shot to shot,
     * and the cache — not a hoisted single evolution — is what keeps
     * the repeated-schedule workload cheap.
     *
     * The schedule is validated against the backend's channel budget
     * before any evolution (device/schedule_validation.h); a
     * malformed schedule — NaN/Inf samples, |d| > 1 saturation,
     * unknown channels, negative or non-monotonic times — throws a
     * StatusError carrying the distinct reject code instead of
     * flowing into the propagator cache. Use ResilientExecutor for
     * the non-throwing, retrying form.
     */
    PulseShotResult runShots(const PulseSimulator &sim,
                             const Schedule &schedule,
                             const PulseShotOptions &opts = {}) const;

  private:
    void buildCmdDef();
    void defineQubitEntries(std::size_t qubit);
    void defineEdgeEntries(std::size_t edge_index);

    /** Rz(lambda) on `qubit`: frame shifts on d and affected u lines. */
    Schedule rzSchedule(std::size_t qubit, double lambda) const;

    /** Echoed CR(theta) with calibrated phase corrections. */
    Schedule crSchedule(std::size_t control, std::size_t target,
                        double theta) const;

    /** Full CNOT schedule (Section 5.1 decomposition). */
    Schedule cnotSchedule(std::size_t control, std::size_t target) const;

    PulseLibrary library_;
    CmdDef cmdDef_;
};

} // namespace qpulse

#endif // QPULSE_DEVICE_PULSE_BACKEND_H
