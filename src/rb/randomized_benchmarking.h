/**
 * @file
 * Randomized-benchmarking-style experiment (Section 8.3 / Figure 13):
 * K-1 random single-qubit unitaries followed by the single unitary
 * that inverts the whole sequence, executed under a compile mode, with
 * the survival probability fit to a * f^K + b to extract the per-gate
 * fidelity f. The "optimized-slow" mode pads the optimized schedule
 * with NO-OP idling to standard duration, isolating the
 * shorter-pulses contribution from the fewer-/smaller-pulses ones.
 */
#ifndef QPULSE_RB_RANDOMIZED_BENCHMARKING_H
#define QPULSE_RB_RANDOMIZED_BENCHMARKING_H

#include "compile/compiler.h"
#include "device/fault_injector.h"
#include "opt/fitting.h"

namespace qpulse {

/** The three Figure 13 execution modes. */
enum class RbMode
{
    Standard,
    Optimized,
    OptimizedSlow, ///< Optimized pulses + idle padding to standard time.
};

/** One decay point: sequence length and mean survival probability. */
struct RbPoint
{
    int sequenceLength = 0;
    double survival = 0.0;
};

/** Full result of an RB run. */
struct RbResult
{
    RbMode mode;
    std::vector<RbPoint> decay;
    double gateFidelity = 0.0; ///< Fitted f.
    double spamOffset = 0.0;   ///< Fitted b.
    double amplitude = 0.0;    ///< Fitted a.

    /**
     * Fault/retry accounting accumulated over every (length, seq)
     * cell when RbConfig::faultPlan is enabled; all-zero otherwise.
     */
    ResilienceStats resilience;
};

/** Configuration for the RB experiment. */
struct RbConfig
{
    int minLength = 2;
    int maxLength = 25;
    int lengthStride = 1;
    int sequencesPerLength = 5; ///< Paper: 5 random seeds per K.
    long shots = 8000;          ///< Paper: 8k shots per sequence.
    /** Cell c (length-major) draws from Rng(deriveSeed(seed, c)). */
    std::uint64_t seed = 0xB35;

    /**
     * Fault plan for RB-under-faults (disabled by default, so plain
     * runs are untouched). When enabled, each (length, seq) cell
     * charges bounded transient/timeout retry accounting and perturbs
     * its sampled counts with the plan's readout faults, every
     * decision drawn from a deterministic per-cell stream
     * (bit-identical across thread counts). The pulse-level fault
     * classes (AWG corruption, coherent drift) act on schedules and
     * are exercised by ResilientExecutor, not by this density-matrix
     * path.
     */
    FaultPlan faultPlan;

    /** Retry budget charged per cell when the fault plan fires. */
    int faultMaxAttempts = 4;
};

/**
 * Generate one RB circuit: K-1 Haar-ish random U3 gates plus the
 * analytic inverse of their product (so the ideal output is |0>).
 */
QuantumCircuit rbSequence(int length, std::size_t qubit,
                          std::size_t n_qubits, Rng &rng);

/**
 * Run the full RB experiment for one mode against a calibrated
 * backend, using the duration-aware noisy simulator. The (length,
 * seq) cells run on the shared thread pool, each on its own Rng
 * stream, so results depend on the seed and never on the thread
 * count.
 */
RbResult runRb(const std::shared_ptr<const PulseBackend> &backend,
               RbMode mode, const RbConfig &config);

/**
 * Coherence-limit estimate of the average gate error for a pulse of
 * the given duration (the bound the paper cites for the minimum
 * improvement a 2x speedup must give): the T1/T2-limited error of an
 * otherwise perfect gate.
 */
double coherenceLimitError(double duration_ns, double t1_us, double t2_us);

} // namespace qpulse

#endif // QPULSE_RB_RANDOMIZED_BENCHMARKING_H
