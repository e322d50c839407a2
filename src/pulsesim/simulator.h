/**
 * @file
 * Pulse-level simulator: executes a Schedule against a TransmonModel.
 *
 * Faithful to the AWG semantics of Section 3.1.4: the complex envelope
 * is piecewise-constant per dt sample, so the evolution is computed as
 * a product of exact per-sample propagators exp(-i H(t_mid) dt) with
 * the slowly-rotating detuning/coupling phases evaluated at the sample
 * midpoint. Virtual-Z frame changes (ShiftPhase) multiply subsequent
 * samples on the channel by a phase, exactly as hardware frame changes
 * do; they cost zero time and are exact (Section 4).
 *
 * Decoherence (T1 relaxation, pure dephasing) is available through a
 * Lindblad master-equation path using per-sample operator splitting:
 * the unitary step followed by an amplitude-damping/dephasing step of
 * the same duration.
 *
 * Performance model (docs/PERFORMANCE.md): every evolve entry point
 * runs one loop, the private step walker, and differs from the others
 * only in how it applies each (propagator, count) step. The walker's
 * default step source run-length-encodes the timeline, so runs of
 * identical consecutive samples (flat-tops, constant CR tones, idle
 * stretches) become one step, and serves each step's propagator from
 * a PropagatorCache keyed on the quantized drive vector. Attaching a
 * caller-owned cache with setPropagatorCache extends the reuse across
 * calls, making repeated execution of the same schedule (shots, ZNE
 * stretch sweeps, RB sequences) near-free after the first pass.
 * Each propagator is derived by linalg's expm kernel: a trace-shifted
 * Taylor polynomial in Paterson-Stockmeyer form, at most six d x d
 * gemms for a step of the validated drive range. Without an attached
 * cache nothing outside the call could reuse a propagator, so
 * evolveState takes each short step as a Hamiltonian and applies
 * exp(-i H dt) to the state directly (a truncated Taylor series),
 * deriving no propagator for it.
 */
#ifndef QPULSE_PULSESIM_SIMULATOR_H
#define QPULSE_PULSESIM_SIMULATOR_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "linalg/workspace.h"
#include "pulse/schedule.h"
#include "pulsesim/propagator_cache.h"
#include "pulsesim/transmon.h"

namespace qpulse {

/** Where a control channel's drive lands and at what detuning. */
struct ControlChannelSpec
{
    std::size_t driveTransmon;  ///< Which transmon the line shakes.
    double detuningRadPerNs;    ///< omega_transmon - omega_drive.
};

/** Result of a unitary evolution. */
struct UnitaryResult
{
    Matrix unitary;                 ///< Raw propagator in the drive frame.
    std::vector<double> framePhase; ///< Accumulated ShiftPhase per qubit.
    long duration = 0;              ///< Schedule duration in dt.
};

/**
 * Executes pulse schedules on a transmon model.
 */
class PulseSimulator
{
  public:
    explicit PulseSimulator(TransmonModel model);

    /** Register a control channel (u_i) mapping. */
    void setControlChannel(std::size_t index,
                           const ControlChannelSpec &spec);

    const TransmonModel &model() const { return model_; }

    /**
     * Attach a caller-owned propagator cache shared across evolve
     * calls (and safely across threads). Pass nullptr to detach; the
     * simulator then memoizes only within each call, and evolveState
     * derives no propagator for a step shorter than eight samples (it
     * applies the step's action on the state instead).
     */
    void setPropagatorCache(std::shared_ptr<PropagatorCache> cache)
    {
        cache_ = std::move(cache);
    }

    const std::shared_ptr<PropagatorCache> &propagatorCache() const
    {
        return cache_;
    }

    /**
     * Choose the step walker's step source. With caching off every
     * evolve call walks the per-sample exact reference — one
     * stepPropagator derivation per AWG sample, each applied
     * once, through the same applier as the cached steps — the oracle
     * that correctness tests and perf benches compare the cached
     * source against.
     */
    void setCachingEnabled(bool enabled) { cachingEnabled_ = enabled; }
    bool cachingEnabled() const { return cachingEnabled_; }

    /**
     * Attach a cooperative interrupt to this simulator instance: the
     * step walker polls the token — and a *wall-clock* deadline —
     * every kInterruptStride AWG samples (per collapsed run on the
     * cached source) and throw a StatusError carrying the structured
     * Cancelled / DeadlineExceeded reason mid-evolution. Virtual-time
     * deadlines are deliberately ignored here: their budget is charged
     * deterministically at shot-batch admission (PulseBackend), and an
     * admitted batch must be allowed to finish even when the charge
     * crossed the budget boundary. Default (inert token, no deadline)
     * costs one branch per stride.
     */
    void setInterrupt(CancelToken token, Deadline deadline = {})
    {
        cancelToken_ = std::move(token);
        wallDeadline_ =
            deadline.isVirtual() ? Deadline::none() : deadline;
        interruptible_ = cancelToken_.cancellable() ||
                         !wallDeadline_.unlimited();
    }

    /** Samples between interrupt polls on the reference source. */
    static constexpr long kInterruptStride = 256;

    /**
     * Poll the attached interrupt (see setInterrupt); throws
     * StatusError(Cancelled|DeadlineExceeded) when it fired. Public so
     * batch drivers (runShots) can share one check between shots.
     */
    void checkInterrupt() const
    {
        if (interruptible_)
            throwIfInterrupted();
    }

    /**
     * Fingerprint of the Hamiltonian building blocks (static
     * Hamiltonian, drive/coupling operators, coupling detuning). Mixed
     * into every PropagatorKey so a recalibrated model can never be
     * served propagators cached under stale parameters.
     */
    std::uint64_t basisVersion() const { return basisVersion_; }

    /** Full propagator of the schedule (drive frame, frames reported). */
    UnitaryResult evolveUnitary(const Schedule &schedule) const;

    /**
     * Effective unitary with the pending virtual-Z frames folded back
     * in, so that compiled schedules compare directly against target
     * gate matrices. For d-level transmons the frame phase acts as
     * exp(-i phase * n).
     */
    Matrix effectiveUnitary(const UnitaryResult &result) const;

    /**
     * Final state from an initial state (drive frame). With an
     * attached cache (or caching off) every step applies its
     * propagator. Without one, each step of fewer than eight samples
     * applies exp(-i H count dt) to the state by a truncated Taylor
     * series instead (sim.action.steps counts those samples). Those
     * steps agree with the propagator to round-off and, being plain
     * scalar loops, give the same bits on every SIMD tier.
     */
    Vector evolveState(const Schedule &schedule,
                       const Vector &initial) const;

    /**
     * Batched state evolution: every column of `panel` is evolved
     * through the schedule in place, so the per-sample propagators
     * (cache lookups, derivations, binary powers) are computed ONCE
     * and applied to all K states as a single gemm per step
     * (linalg/state_panel.h). Matches per-column evolveState to
     * <= 1e-12 max-abs (pinned in tests/test_batch.cc); within one
     * dispatch mode the result is deterministic, so it is bit-identical
     * across QPULSE_THREADS. Interrupt polling is the step walker's,
     * as for every entry point. `ws` provides panel scratch
     * (state-panel slot 0, matrix slots 0-2), reused across calls at
     * the widest width seen.
     */
    void evolveStatesBatched(const Schedule &schedule, StatePanel &panel,
                             Workspace &ws) const;

    /** evolveStatesBatched against the thread-local workspace. */
    void evolveStatesBatched(const Schedule &schedule,
                             StatePanel &panel) const;

    /**
     * Density-matrix evolution with T1/T2 decoherence. The initial
     * density matrix must match the model dimension.
     */
    Matrix evolveLindblad(const Schedule &schedule,
                          const Matrix &rho0) const;

    /**
     * Populations of the computational (qubit-subspace + leakage)
     * basis states from a state vector.
     */
    std::vector<double> populations(const Vector &state) const;

  private:
    /**
     * Runs at least this long are applied to states by binary powering
     * of their propagator (log2(count) matmuls instead of count
     * matvecs); shorter ones step sample by sample.
     */
    static constexpr long kPoweredRun = 8;

    /**
     * One run of consecutive AWG samples whose quantized Hamiltonian
     * is identical: a single propagator applied `count` times.
     */
    struct DriveStep
    {
        PropagatorKey key;
        std::vector<Complex> drives; ///< Per-transmon summed drive.
        double tMidNs = 0.0;         ///< Midpoint of the first sample.
        long count = 0;              ///< Run length in samples.
    };

    /** Per-sample total drive on each transmon (frames applied). */
    std::vector<std::vector<Complex>> buildDriveTimeline(
        const Schedule &schedule, long duration,
        std::vector<double> *frame_out) const;

    /** Quantize one sample's Hamiltonian inputs into a cache key. */
    PropagatorKey makeKey(const std::vector<Complex> &drives,
                          double t_mid_ns) const;

    /**
     * Run-length-encode the drive timeline into DriveSteps (cached
     * source only).
     */
    std::vector<DriveStep> compileSteps(
        const std::vector<std::vector<Complex>> &drives,
        long duration) const;

    /**
     * The Hamiltonian H(t_mid) of one AWG sample, written into `h`
     * (its storage reused). Returns false when no drive and no
     * coupling enter, i.e. `h` is the diagonal static part alone.
     */
    bool sampleHamiltonian(double t_mid_ns,
                           const std::vector<Complex> &drives,
                           Matrix &h) const;

    /**
     * Propagator exp(-i H(t_mid) dt) of one AWG sample, by expMinusIHt
     * (exact to round-off; sim.expm.calls counts each derivation), or
     * by its diagonal phases when no drive or coupling enters: cache
     * values on the cached source, every step of the reference source.
     */
    Matrix stepPropagator(double t_mid_ns,
                          const std::vector<Complex> &drives) const;

    /**
     * A step handed to an applier by its Hamiltonian instead of its
     * propagator: the applier applies exp(-i H count dt) itself.
     */
    struct HamiltonianStep
    {
        const Matrix &hamiltonian;
    };

    /**
     * The one evolution loop: builds the drive timeline (frames into
     * `frame_out` when non-null) and calls `apply(step_u, count)` per
     * step in time order. Cached source: each compileSteps run, its
     * propagator from the attached cache, else one local to the call,
     * polling the interrupt per run. An applier that also accepts
     * `apply(HamiltonianStep, count)` (evolveState's) is handed every
     * run shorter than kPoweredRun that way when no cache is attached,
     * so no propagator is derived for it. Reference source: each
     * sample's exact stepPropagator with count 1, polling every
     * kInterruptStride samples.
     */
    template <typename Apply>
    void walkSteps(const Schedule &schedule, long duration,
                   std::vector<double> *frame_out, Apply &&apply) const;

    /** Slow half of checkInterrupt: throws if the interrupt fired. */
    void throwIfInterrupted() const;

    TransmonModel model_;
    std::map<std::size_t, ControlChannelSpec> controlChannels_;

    // Cached operators.
    Matrix staticH_;
    std::vector<Matrix> raising_; ///< (omega_j / 2) * a_j^dag.
    Matrix couplingOp_;           ///< J * a_A^dag a_B (0 if uncoupled).
    double couplingDetuning_ = 0.0;
    bool hasCoupling_ = false;
    std::uint64_t basisVersion_ = 0;

    // Memoization state.
    std::shared_ptr<PropagatorCache> cache_; ///< Caller-owned, optional.
    bool cachingEnabled_ = true;

    // Cooperative interruption (setInterrupt). Copies of the simulator
    // share the token/deadline state through their shared_ptr guts.
    CancelToken cancelToken_;
    Deadline wallDeadline_;
    bool interruptible_ = false;
};

} // namespace qpulse

#endif // QPULSE_PULSESIM_SIMULATOR_H
