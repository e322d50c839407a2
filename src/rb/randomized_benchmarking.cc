#include "rb/randomized_benchmarking.h"

#include <cmath>

#include "common/constants.h"
#include "common/thread_pool.h"
#include "linalg/gates.h"
#include "synth/euler.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qpulse {

QuantumCircuit
rbSequence(int length, std::size_t qubit, std::size_t n_qubits, Rng &rng)
{
    qpulseRequire(length >= 1, "rbSequence needs length >= 1");
    QuantumCircuit circuit(n_qubits);
    Matrix product = Matrix::identity(2);
    for (int k = 0; k + 1 < length; ++k) {
        // Haar-ish random U3: theta from arccos distribution,
        // phi/lambda uniform. Barriers keep the compiler from fusing
        // the sequence into a single gate — each element must be
        // executed as its own pulse(s), as in a real RB experiment.
        const double theta = std::acos(1.0 - 2.0 * rng.uniform());
        const double phi = rng.uniform(-kPi, kPi);
        const double lambda = rng.uniform(-kPi, kPi);
        circuit.u3(theta, phi, lambda, qubit);
        circuit.barrier();
        product = gates::u3(theta, phi, lambda) * product;
    }
    // Terminal inverting unitary.
    const Matrix inverse = product.adjoint();
    const U3Angles angles = u3FromUnitary(inverse);
    circuit.u3(angles.theta, angles.phi, angles.lambda, qubit);
    return circuit;
}

RbResult
runRb(const std::shared_ptr<const PulseBackend> &backend, RbMode mode,
      const RbConfig &config)
{
    telemetry::TraceSpan run_span("rb.run");
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    static telemetry::Counter &c_runs = registry.counter("rb.runs");
    static telemetry::Counter &c_cells = registry.counter("rb.cells");
    c_runs.increment();

    const CompileMode compile_mode = mode == RbMode::Standard
        ? CompileMode::Standard
        : CompileMode::Optimized;
    PulseCompiler compiler(backend, compile_mode);
    PulseCompiler standard_compiler(backend, CompileMode::Standard);

    // optimized-slow: optimized pulses, but every gate is charged the
    // standard flow's U3 duration (NO-OP idling inserted at the pulse
    // level), isolating error source #1 from #2/#3 (Section 8.3).
    NoiseInfoProvider provider = compiler.noiseProvider();
    if (mode == RbMode::OptimizedSlow) {
        const long standard_u3_duration =
            2 * backend->config().pulseDuration;
        const NoiseInfoProvider inner = provider;
        provider = [inner, standard_u3_duration](const Gate &gate) {
            GateNoiseInfo info = inner(gate);
            if (!gateIsDirective(gate.type) && gate.qubits.size() == 1 &&
                info.duration > 0)
                info.duration =
                    std::max(info.duration, standard_u3_duration);
            return info;
        };
    }
    DensitySimulator simulator(backend->config(), std::move(provider));

    RbResult result;
    result.mode = mode;

    std::vector<int> lengths;
    for (int length = config.minLength; length <= config.maxLength;
         length += config.lengthStride)
        lengths.push_back(length);

    // Every (length, seq) cell gets its own Rng stream, so the
    // transpile + noisy-run + sampling pipeline — the dominant cost —
    // fans out over the thread pool while staying deterministic for
    // any thread count.
    const std::size_t cells = lengths.size() *
        static_cast<std::size_t>(config.sequencesPerLength);
    std::vector<double> cell_survival(cells, 0.0);

    // RB-under-faults: the density path always completes, so the
    // batch-level fault classes reduce to deterministic retry
    // accounting plus readout perturbation of the sampled counts.
    // AWG/drift classes are pulse-level (they act on schedules) and
    // are masked off so the injected-side stats stay honest; the
    // unconditional draw order keeps the transient/timeout decisions
    // identical to the full plan's.
    const bool inject_faults = config.faultPlan.enabled();
    FaultPlan cell_plan = config.faultPlan;
    cell_plan.awgNanRate = 0.0;
    cell_plan.awgClipRate = 0.0;
    cell_plan.awgDropRate = 0.0;
    cell_plan.driftRate = 0.0;
    std::vector<ResilienceStats> cell_stats(inject_faults ? cells : 0);

    c_cells.add(cells);
    parallelFor(cells, [&](std::size_t cell) {
        telemetry::TraceSpan cell_span("rb.cell");
        const int length =
            lengths[cell /
                    static_cast<std::size_t>(config.sequencesPerLength)];
        Rng cell_rng(Rng::deriveSeed(config.seed, cell));
        QuantumCircuit circuit = rbSequence(length, 0, 1, cell_rng);
        circuit.measure(0);
        const QuantumCircuit compiled = compiler.transpile(circuit);
        const NoisyRunResult run = simulator.run(compiled);
        std::vector<long> counts =
            simulator.sampleCounts(run, config.shots, cell_rng);
        if (inject_faults) {
            // One injector per cell, keyed on the cell index, so the
            // accounting is independent of thread count. A
            // transient/timeout decision "rejects the batch" and
            // charges a retry out of the bounded budget; a cell that
            // exhausts it keeps its (always-available) density result
            // and is counted as degraded.
            FaultInjector injector(cell_plan);
            ResilienceStats &stats = cell_stats[cell];
            const Schedule batch_marker;
            int attempt = 0;
            for (; attempt < config.faultMaxAttempts; ++attempt) {
                ++stats.attempts;
                if (attempt > 0)
                    ++stats.retries;
                const FaultInjector::Injection injection =
                    injector.inject(batch_marker, cell, attempt);
                if (!injection.transient && !injection.timeout)
                    break;
                ++stats.faultsDetected;
            }
            if (attempt == config.faultMaxAttempts) {
                ++stats.degradedRuns;
                attempt = config.faultMaxAttempts - 1;
            }
            stats.readoutFaultShots += injector.applyReadoutFaults(
                counts, run.probs, cell, attempt);
            stats.transientFailures = injector.stats().transientFailures;
            stats.timeouts = injector.stats().timeouts;
            stats.faultsInjected = injector.stats().faultsInjected;
        }
        cell_survival[cell] = static_cast<double>(counts[0]) /
                              static_cast<double>(config.shots);
    });
    for (const ResilienceStats &stats : cell_stats)
        result.resilience += stats;

    std::vector<double> ks, survivals;
    for (std::size_t li = 0; li < lengths.size(); ++li) {
        double total = 0.0;
        for (int seq = 0; seq < config.sequencesPerLength; ++seq)
            total += cell_survival
                [li * static_cast<std::size_t>(config.sequencesPerLength) +
                 static_cast<std::size_t>(seq)];
        const double survival =
            total / static_cast<double>(config.sequencesPerLength);
        result.decay.push_back({lengths[li], survival});
        ks.push_back(static_cast<double>(lengths[li]));
        survivals.push_back(survival);
    }

    // In the slow-decay regime a free-offset exponential fit is
    // ill-conditioned, so pin the offset to the mixed-state asymptote
    // through the readout: P(read 0 | maximally mixed).
    const ReadoutError &readout = backend->config().readout[0];
    const double asymptote =
        ((1.0 - readout.probFlip0to1) + readout.probFlip1to0) / 2.0;
    const FitResult fit =
        fitExponentialDecayFixedOffset(ks, survivals, asymptote);
    result.amplitude = fit.params[0];
    result.gateFidelity = fit.params[1];
    result.spamOffset = fit.params[2];
    return result;
}

double
coherenceLimitError(double duration_ns, double t1_us, double t2_us)
{
    // Average gate error of an identity-intent gate limited purely by
    // relaxation/dephasing over its duration (cf. Naik et al., Eq. 24):
    // E = 1/2 (1 - e^{-t/T1}/3 - 2 e^{-t/T2}/3) to first order
    //   ~ t/6 (1/T1) + t/3 (1/T2).
    const double t1_ns = t1_us * 1000.0;
    const double t2_ns = t2_us * 1000.0;
    return 0.5 * (1.0 - std::exp(-duration_ns / t1_ns) / 3.0 -
                  2.0 * std::exp(-duration_ns / t2_ns) / 3.0);
}

} // namespace qpulse
