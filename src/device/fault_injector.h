/**
 * @file
 * Deterministic fault injection for the pulse execution stack.
 *
 * Real OpenPulse backends fail in ways the simulator's clean substrate
 * never does: shot batches are transiently rejected or time out, the
 * device drifts coherently between the daily calibrations (the
 * bench_ablation_drift model), AWG uploads corrupt samples (NaN
 * glitches, DAC saturation clips, dropped samples) and the readout
 * chain drops or flips outcomes. FaultInjector models all of these as
 * a *deterministic, seed-derived* fault plan: every decision is drawn
 * from an Rng stream derived (splitmix64, Rng::deriveSeed) from the
 * plan seed and the (run, attempt) coordinates — the same determinism
 * contract as the shot loop — so a fault-injected run is bit-identical
 * across thread counts and reruns.
 *
 * Plans come from code or from the QPULSE_FAULT_PLAN environment spec
 * (grammar in docs/ROBUSTNESS.md), e.g.
 *   QPULSE_FAULT_PLAN="seed=7,transient=0.2,drift=0.1,drift_khz=4000"
 */
#ifndef QPULSE_DEVICE_FAULT_INJECTOR_H
#define QPULSE_DEVICE_FAULT_INJECTOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "device/resilience_stats.h"
#include "pulse/schedule.h"

namespace qpulse {

/** Per-class fault probabilities (all default to "never"). */
struct FaultPlan
{
    std::uint64_t seed = 0x5EEDFA11ull;

    // Transient shot-batch failures (per attempt).
    double transientRate = 0.0; ///< Batch rejected by the backend.
    double timeoutRate = 0.0;   ///< Batch times out.

    // Coherent calibration drift: a spike appears at a run boundary
    // with probability driftRate and *persists* until recalibration
    // (FaultInjector::recalibrate), mirroring how a drifted device
    // stays drifted until the next calibration pass.
    double driftRate = 0.0;
    double driftFreqKhz = 0.0; ///< Frequency drift magnitude.
    double driftAmpError = 0.0; ///< Relative amplitude drift.

    // AWG sample corruption (per attempt, one Play instruction hit).
    double awgNanRate = 0.0;  ///< A sample becomes NaN.
    double awgClipRate = 0.0; ///< Samples saturate above |d| = 1.
    double awgDropRate = 0.0; ///< A chunk of samples is zeroed.

    // Readout channel faults (per shot, applied to sampled counts).
    double readoutFlipRate = 0.0; ///< Outcome flipped to another state.
    double readoutDropRate = 0.0; ///< Shot dropped and re-triggered.

    // Ingestion faults (per document, applied to the raw payload at
    // the request boundary before parsing; src/ingest/frontend.h).
    double ingestTruncateRate = 0.0;   ///< Payload tail dropped.
    double ingestCorruptRate = 0.0;    ///< One payload byte flipped.
    double ingestDupKeyRate = 0.0;     ///< Duplicate member key spliced in.
    double ingestDisconnectRate = 0.0; ///< Connection cut mid-stream.

    /** True when any fault class can fire. */
    bool enabled() const;

    /** Canonical spec string (parse(toString()) round-trips). */
    std::string toString() const;

    /**
     * Parse a "key=value,key=value" spec (',' or ';' separators).
     * Keys: seed, transient, timeout, drift, drift_khz, drift_amp,
     * awg_nan, awg_clip, awg_drop, ro_flip, ro_drop, ingest_trunc,
     * ingest_corrupt, ingest_dupkey, ingest_disc. Rates must lie in
     * [0, 1]. Returns ParseError (and leaves `out` untouched) on an
     * unknown key, bad number, or out-of-range rate.
     */
    static Status parse(const std::string &spec, FaultPlan &out);

    /**
     * Plan from QPULSE_FAULT_PLAN; a malformed spec warns on stderr
     * (env.h diagnostic) and yields a disabled plan rather than
     * silently half-applying.
     */
    static FaultPlan fromEnv();

    /**
     * The same rates with a seed derived (splitmix64) from this
     * plan's seed and `backend_index`, so every member of a backend
     * fleet draws its transients, timeouts and drift spikes from an
     * *independent* deterministic stream — backends fail and drift
     * independently, yet the whole fleet replays bit-identically.
     */
    FaultPlan deriveForBackend(std::uint64_t backend_index) const;
};

/**
 * Draws deterministic fault decisions from a FaultPlan.
 *
 * Not thread-safe: one injector belongs to one (sequential) execution
 * loop. The shot-level parallelism below it is unaffected because the
 * injector only acts at batch granularity.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan);

    const FaultPlan &plan() const { return plan_; }

    /**
     * What the injector decided for one (run, attempt).
     *
     * `schedule` is one of two things. A corrupted injection carries
     * an AWG-corrupted copy drawn from the (run, attempt) stream, so
     * it differs between attempts. Any other injection carries the
     * clean schedule, with the active drift applied exactly when
     * `driftApplied` (drift depends on the plan alone). So within a
     * run, every uncorrupted injection with the same `driftApplied`
     * yields the same schedule. ResilientExecutor relies on this to
     * reuse a phase's shot result instead of re-running it, together
     * with the run's simulator staying fixed for the whole run (the
     * recalibration hooks only bump cache generations).
     */
    struct Injection
    {
        bool transient = false; ///< Batch fails transiently.
        bool timeout = false;   ///< Batch times out.
        bool corrupted = false; ///< AWG corruption applied.
        bool driftApplied = false; ///< Coherent drift applied.
        Schedule schedule;      ///< The schedule to actually execute.
    };

    /**
     * Deterministic injection for attempt `attempt` of run `run`:
     * draws the transient/timeout/corruption decisions from the
     * (seed, run, attempt) stream, rolls the per-run drift spike, and
     * returns the schedule with corruption and any active drift
     * applied (the clean schedule when nothing fired).
     */
    Injection inject(const Schedule &clean, std::uint64_t run,
                     int attempt);

    /** True while a drift spike is active (until recalibrate()). */
    bool driftActive() const { return driftActive_; }

    /**
     * Model a targeted Calibrator refresh: the device is re-tuned, so
     * the active drift spike disappears.
     */
    void recalibrate() { driftActive_ = false; }

    /**
     * Apply readout faults to aggregated counts (sum preserved):
     * flipped shots move to a uniformly-drawn other basis state,
     * dropped shots are re-triggered, i.e. redrawn from
     * `populations`. Deterministic per (run, attempt) stream.
     * @return Number of shots affected.
     */
    long applyReadoutFaults(std::vector<long> &counts,
                            const std::vector<double> &populations,
                            std::uint64_t run, int attempt);

    /** What the injector decided for one ingested document. */
    struct IngestInjection
    {
        bool truncated = false;    ///< Payload tail was dropped.
        bool corrupted = false;    ///< One payload byte was flipped.
        bool duplicatedKey = false; ///< Duplicate key spliced in.
        bool disconnected = false; ///< Connection cut mid-document.
        /** Bytes delivered before the cut (when disconnected). */
        std::size_t disconnectAfter = 0;
        /** The payload to actually deliver to the parser. */
        std::string payload;

        /** True when the payload bytes differ from the original. */
        bool mutated() const
        {
            return truncated || corrupted || duplicatedKey;
        }
    };

    /**
     * Deterministic ingest-boundary injection for document `request`:
     * draws truncation/corruption/duplicate-key mutations (at most one
     * fires, priority truncate > corrupt > dup-key) and an independent
     * mid-stream disconnect decision from the (seed, request) stream.
     * The returned payload is what the front end should feed the
     * parser; when `disconnected`, only the first `disconnectAfter`
     * bytes arrive before the connection dies.
     */
    IngestInjection injectIngest(const std::string &document,
                                 std::uint64_t request);

    /** Injected-side counters accumulated over this injector's life. */
    const ResilienceStats &stats() const { return stats_; }

  private:
    /** Roll (once per run) whether a drift spike starts. */
    void rollDrift(std::uint64_t run);

    /** Corrupt one Play instruction of `schedule` per the draw. */
    Schedule corrupt(const Schedule &clean, Rng &rng, bool nan,
                     bool clip, bool drop) const;

    /** Wrap drive/control Plays with the active drift error. */
    Schedule applyDrift(const Schedule &clean) const;

    FaultPlan plan_;
    bool driftActive_ = false;
    std::uint64_t lastDriftRollRun_ = ~0ull;
    ResilienceStats stats_;
};

} // namespace qpulse

#endif // QPULSE_DEVICE_FAULT_INJECTOR_H
