#include "compile/compiler.h"

#include <cmath>

#include "common/constants.h"
#include "compile/compile_cache.h"
#include "device/schedule_validation.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qpulse {

double
CompileResult::durationNs() const
{
    return dtToNs(durationDt);
}

PulseCompiler::PulseCompiler(std::shared_ptr<const PulseBackend> backend,
                             CompileMode mode)
    : backend_(std::move(backend)), mode_(mode)
{
    qpulseRequire(backend_ != nullptr, "PulseCompiler needs a backend");
    for (const auto &cr : backend_->library().crs)
        target_.edges.emplace_back(cr.control, cr.target);
    target_.augmented = mode_ == CompileMode::Optimized;
    generation_ = calibrationGeneration(backend_->library(), 0);
    passFingerprint_ = passConfigFingerprint(target_, mode_);
}

void
PulseCompiler::setCompileCache(std::shared_ptr<CompileCache> cache)
{
    cache_ = std::move(cache);
}

CompileKey
PulseCompiler::cacheKey(const QuantumCircuit &circuit) const
{
    CompileKey key;
    key.circuitFingerprint =
        circuitFingerprint(circuit, backend_->config());
    key.mode = static_cast<std::uint32_t>(mode_);
    key.calibrationGeneration = generation_;
    key.passConfigFingerprint = passFingerprint_;
    return key;
}

QuantumCircuit
PulseCompiler::transpile(const QuantumCircuit &circuit) const
{
    const PassManager manager = mode_ == CompileMode::Optimized
        ? optimizedPassManager(target_)
        : standardPassManager(target_);
    return manager.run(circuit);
}

RoutingResult
PulseCompiler::route(const QuantumCircuit &circuit) const
{
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (const auto &edge : backend_->config().couplings)
        edges.emplace_back(edge.control, edge.target);
    const CouplingGraph graph(backend_->config().numQubits,
                              std::move(edges));
    return routeCircuit(circuit, graph);
}

CompileResult
PulseCompiler::compile(const QuantumCircuit &circuit) const
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    static telemetry::Counter &c_compiles =
        registry.counter("compile.calls");
    static telemetry::Counter &c_gates_in =
        registry.counter("compile.gates_in");
    static telemetry::Counter &c_gates_out =
        registry.counter("compile.gates_out");
    static telemetry::Counter &c_pulses =
        registry.counter("compile.pulses");
    static telemetry::Histogram &h_wall =
        registry.histogram("compile.wall_us",
                           telemetry::defaultLatencyBoundsUs());
    c_compiles.increment();
    c_gates_in.add(circuit.gates().size());

    const std::uint64_t t0 = telemetry::Tracer::nowNs();
    telemetry::TraceSpan total_span("compile.total");

    CompileResult result = [&] {
        if (cache_ == nullptr)
            return compileUncached(circuit);
        bool from_cache = false;
        CompileResult cached = cache_->getOrCompile(
            cacheKey(circuit),
            [&] { return compileUncached(circuit); }, &from_cache);
        if (from_cache) {
            // A hit skips every pass, but is never trusted blindly:
            // re-validate against the *current* library and channel
            // budget so a miscalibrated cmd_def (or a stale record)
            // cannot be served unchecked.
            telemetry::TraceSpan span("compile.validate");
            cached.validation =
                validateSchedule(cached.schedule, backend_->config());
        }
        return cached;
    }();

    c_gates_out.add(result.basisCircuit.gates().size());
    c_pulses.add(result.pulseCount);
    // Wall-clock is scheduling-dependent by nature, so it lives in a
    // histogram (excluded from the cross-thread determinism contract)
    // rather than a counter. compile.wall_us covers *every* compile
    // (cache hits included); compile.uncached_wall_us, observed in
    // compileUncached, isolates fresh pipeline runs.
    h_wall.observe(
        static_cast<double>(telemetry::Tracer::nowNs() - t0) / 1e3);
    return result;
}

CompileResult
PulseCompiler::compileUncached(const QuantumCircuit &circuit) const
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    static telemetry::Histogram &h_uncached =
        registry.histogram("compile.uncached_wall_us",
                           telemetry::defaultLatencyBoundsUs());
    const std::uint64_t t0 = telemetry::Tracer::nowNs();

    CompileResult result = [&] {
        telemetry::TraceSpan span("compile.transpile");
        return CompileResult{transpile(circuit)};
    }();
    result.mode = mode_;
    {
        telemetry::TraceSpan span("compile.schedule");
        result.schedule =
            backend_->scheduleCircuit(result.basisCircuit);
    }
    result.durationDt = result.schedule.duration();
    {
        telemetry::TraceSpan span("compile.analyze");
        for (const auto &inst : result.schedule.instructions()) {
            if (inst.kind == PulseInstructionKind::Play &&
                inst.channel.kind != ChannelKind::Measure)
                ++result.pulseCount;
            else if (inst.kind == PulseInstructionKind::ShiftPhase)
                ++result.frameChangeCount;
        }
    }
    {
        telemetry::TraceSpan span("compile.validate");
        result.validation =
            validateSchedule(result.schedule, backend_->config());
    }
    h_uncached.observe(
        static_cast<double>(telemetry::Tracer::nowNs() - t0) / 1e3);
    return result;
}

NoiseInfoProvider
PulseCompiler::noiseProvider() const
{
    const std::shared_ptr<const PulseBackend> backend = backend_;
    return [backend](const Gate &gate) {
        GateNoiseInfo info;
        if (gateIsDirective(gate.type)) {
            if (gate.type == GateType::Measure)
                info.duration = backend->config().measureDuration;
            return info;
        }
        const Schedule schedule = backend->schedule(gate);
        info.duration = schedule.duration();
        const auto &library = backend->library();
        for (const auto &inst : schedule.instructions()) {
            if (inst.kind != PulseInstructionKind::Play)
                continue;
            const double peak = inst.waveform->peakAmplitude();
            info.peakAmplitude = std::max(info.peakAmplitude, peak);
            if (inst.channel.kind == ChannelKind::Drive) {
                // Error source 2: each calibrated 1q pulse application
                // weighted by its squared relative amplitude (an
                // amplitude-downscaled pulse carries proportionally
                // less calibration error).
                const double cal_amp =
                    library.qubits[inst.channel.index].x180Amp;
                const double ratio = peak / std::max(cal_amp, 1e-12);
                info.error1qWeight += ratio * ratio;
            } else if (inst.channel.kind == ChannelKind::Control) {
                // CR pulse halves weighted by their stretch fraction:
                // a shorter (stretched-down) CR pulse accumulates
                // proportionally less coherent error.
                const auto &cr = library.crs[inst.channel.index];
                const long full =
                    cr.flatFor90 + 2 * cr.risefall;
                info.error2qWeight +=
                    static_cast<double>(inst.waveform->duration()) /
                    static_cast<double>(std::max(full, 1L));
            }
        }
        return info;
    };
}

DensitySimulator
PulseCompiler::makeSimulator() const
{
    return DensitySimulator(backend_->config(), noiseProvider());
}

std::shared_ptr<const PulseBackend>
makeCalibratedBackend(const BackendConfig &config, bool include_qutrit)
{
    Calibrator calibrator(config);
    return std::make_shared<const PulseBackend>(
        calibrator.calibrateAll(include_qutrit));
}

} // namespace qpulse
