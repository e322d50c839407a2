/**
 * @file
 * PulseCompiler: the end-to-end compiler of Figure 1. It owns a
 * calibrated PulseBackend and a transpiler pipeline, and lowers
 * hardware-agnostic assembly circuits down to pulse schedules in one
 * of two modes:
 *
 *  - Standard:  the conventional Qiskit-style flow — every 1q gate
 *    becomes a U3 (two X90 pulses + frame changes, Equation 2), every
 *    two-qubit operation goes through monolithic calibrated CNOTs.
 *  - Optimized: this paper's flow — the augmented basis gates
 *    (DirectX / DirectRx / CR(theta) / CR halves) plus the CD + ABGD
 *    template passes, yielding shorter schedules with fewer calibrated
 *    pulse applications.
 *
 * The compiler also produces the per-gate noise accounting consumed by
 * the duration-aware density-matrix simulator, so that compiled
 * programs can be executed under the paper's three-source error model.
 */
#ifndef QPULSE_COMPILE_COMPILER_H
#define QPULSE_COMPILE_COMPILER_H

#include <cstdint>
#include <memory>

#include "device/pulse_backend.h"
#include "noisesim/density_sim.h"
#include "transpile/passes.h"
#include "transpile/routing.h"

namespace qpulse {

class CompileCache;
struct CompileKey;

/** Which of the two Figure 1 flows to run. */
enum class CompileMode
{
    Standard,
    Optimized,
};

/** Everything a compile produces. */
struct CompileResult
{
    explicit CompileResult(QuantumCircuit basis)
        : basisCircuit(std::move(basis))
    {}

    QuantumCircuit basisCircuit;  ///< After the transpiler pipeline.
    Schedule schedule;            ///< The lowered pulse schedule.
    long durationDt = 0;          ///< Schedule makespan in dt.
    std::size_t pulseCount = 0;   ///< Play instructions (non-measure).
    std::size_t frameChangeCount = 0; ///< Virtual-Z instructions.
    CompileMode mode = CompileMode::Standard;

    /**
     * Structural validation of the lowered schedule against the
     * backend's channel budget (device/schedule_validation.h), run as
     * part of compile(). The compiler's own output always passes on a
     * healthy library; a non-Ok code here means a cmd_def entry is
     * miscalibrated (e.g. an augmented DirectRx scaled past |d| = 1)
     * and flags it *before* the schedule is submitted anywhere —
     * consumers can divert to the standard decomposition instead of
     * letting PulseBackend::runShots throw.
     */
    Status validation;

    /** Makespan in nanoseconds. */
    double durationNs() const;
};

/**
 * The end-to-end gate-to-pulse compiler.
 */
class PulseCompiler
{
  public:
    PulseCompiler(std::shared_ptr<const PulseBackend> backend,
                  CompileMode mode);

    CompileMode mode() const { return mode_; }
    const PulseBackend &backend() const { return *backend_; }

    /** Run the transpiler pipeline only (assembly -> basis gates). */
    QuantumCircuit transpile(const QuantumCircuit &circuit) const;

    /**
     * Route a circuit onto the backend's coupling graph (greedy SWAP
     * insertion). Needed before compile() when the circuit touches
     * non-neighbouring pairs; remember to read measurement outcomes
     * through the returned final layout.
     */
    RoutingResult route(const QuantumCircuit &circuit) const;

    /**
     * Full lowering: assembly -> basis gates -> pulse schedule. With a
     * compile cache attached, a key hit skips the whole pipeline but
     * still re-runs validateSchedule against the current library
     * before the result is returned (a stale or miscalibrated record
     * can never be served unchecked).
     */
    CompileResult compile(const QuantumCircuit &circuit) const;

    /**
     * Attach a (shareable) two-tier compile cache; nullptr detaches.
     * Without a cache, compile() behaves exactly as before — the
     * no-cache path stays bit-identical.
     */
    void setCompileCache(std::shared_ptr<CompileCache> cache);
    const std::shared_ptr<CompileCache> &compileCache() const
    {
        return cache_;
    }

    /**
     * Generation component of this compiler's cache keys. Defaults to
     * calibrationGeneration(library, 0); recalibration owners bump it
     * so schedules compiled under the old calibration miss.
     */
    std::uint64_t compileGeneration() const { return generation_; }
    void setCompileGeneration(std::uint64_t generation)
    {
        generation_ = generation;
    }

    /** The exact key compile(circuit) memoizes under (for dedup). */
    CompileKey cacheKey(const QuantumCircuit &circuit) const;

    /**
     * Per-gate noise accounting for the DensitySimulator, computed
     * from the backend's cmd_def schedules: duration, per-pulse error
     * weights and peak amplitude.
     */
    NoiseInfoProvider noiseProvider() const;

    /** Convenience: a density simulator wired to this backend. */
    DensitySimulator makeSimulator() const;

  private:
    /** The original uncached pipeline (transpile/schedule/validate). */
    CompileResult compileUncached(const QuantumCircuit &circuit) const;

    std::shared_ptr<const PulseBackend> backend_;
    CompileMode mode_;
    TranspilerTarget target_;
    std::shared_ptr<CompileCache> cache_;
    std::uint64_t generation_ = 0;
    std::uint64_t passFingerprint_ = 0;
};

/** Build a calibrated backend for a config (runs the calibration). */
std::shared_ptr<const PulseBackend>
makeCalibratedBackend(const BackendConfig &config,
                      bool include_qutrit = false);

} // namespace qpulse

#endif // QPULSE_COMPILE_COMPILER_H
