#include "device/pulse_backend.h"

#include <cmath>

#include "common/constants.h"
#include "device/schedule_validation.h"
#include "synth/euler.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qpulse {

namespace {

/**
 * Ground states runShots evolves together in one StatePanel. Panel
 * boundaries fall at the same shot indices for every run, so every
 * shot's final state, and with it its draw, is reproducible.
 */
constexpr std::size_t kShotPanelWidth = 64;

} // namespace

PulseBackend::PulseBackend(PulseLibrary library)
    : library_(std::move(library))
{
    buildCmdDef();
}

Schedule
PulseBackend::rzSchedule(std::size_t qubit, double lambda) const
{
    // Virtual-Z: an Rz(lambda) becomes a -lambda frame change on the
    // qubit's drive line and on every control line whose CR drive sits
    // in this qubit's frame (i.e. edges that *target* this qubit).
    Schedule schedule("rz");
    schedule.shiftPhase(driveChannel(qubit), -lambda);
    for (std::size_t i = 0; i < library_.crs.size(); ++i)
        if (library_.crs[i].target == qubit)
            schedule.shiftPhase(controlChannel(i), -lambda);
    return schedule;
}

Schedule
PulseBackend::crSchedule(std::size_t control, std::size_t target,
                         double theta) const
{
    // CR(theta + 2 pi) = -CR(theta), a global phase: wrap into
    // (-pi, pi] so the stretch never exceeds a half turn.
    theta = wrapAngle(theta);
    const CrCalibration &cal = library_.cr(control, target);
    const std::size_t u_index =
        library_.controlChannelIndex(control, target);
    const double sign = theta >= 0.0 ? 1.0 : -1.0;
    const auto stretch = cal.stretchFor(theta);

    Schedule schedule("cr");
    // Calibrated corrections at this stretch angle.
    const CrCalibration::PhaseFixPoint fix = cal.fixAt(theta);
    // Axis straightening: virtual-Z sandwich on the target (free).
    schedule.appendBarrier(rzSchedule(target, fix.axis));

    long cursor = 0;
    const auto first = cal.halfPulse(stretch.flat, stretch.ampScale, sign);
    const auto second =
        cal.halfPulse(stretch.flat, stretch.ampScale, -sign);
    const auto x180 = library_.qubits[control].x180Pulse();

    schedule.playAt(cursor, controlChannel(u_index), first);
    cursor += first->duration();
    schedule.playAt(cursor, driveChannel(control), x180);
    cursor += x180->duration();
    schedule.playAt(cursor, controlChannel(u_index), second);
    cursor += second->duration();
    schedule.playAt(cursor, driveChannel(control), x180);

    // Calibrated phase corrections: undo the axis sandwich and apply
    // the Stark-like after-phases, interpolated from the per-angle
    // calibration table (those residuals grow with the pulse area but
    // not exactly linearly).
    schedule.appendBarrier(rzSchedule(control, fix.control));
    schedule.appendBarrier(rzSchedule(target, fix.target - fix.axis));
    return schedule;
}

Schedule
PulseBackend::cnotSchedule(std::size_t control, std::size_t target) const
{
    // CNOT = e^{-i pi/4} Rz(-90)_c . Rx(-90)_t . CR(90) (all factors
    // commute); scheduled as the target pre-rotation followed by the
    // echoed CR (Section 5.1).
    Schedule schedule("cx");
    schedule.appendBarrier(rzSchedule(control, -kPi / 2));
    const auto x90_neg = std::make_shared<ScaledWaveform>(
        library_.qubits[target].x90Pulse(), Complex{-1.0, 0.0});
    schedule.playAt(0, driveChannel(target), x90_neg);
    schedule.appendBarrier(crSchedule(control, target, kPi / 2));
    return schedule;
}

void
PulseBackend::defineQubitEntries(std::size_t qubit)
{
    const QubitCalibration &cal = library_.qubits[qubit];

    cmdDef_.define(GateType::Rz, {qubit}, [this, qubit](const Gate &g) {
        return rzSchedule(qubit, g.params[0]);
    });
    cmdDef_.define(GateType::U1, {qubit}, [this, qubit](const Gate &g) {
        return rzSchedule(qubit, g.params[0]);
    });
    cmdDef_.define(GateType::X90, {qubit}, [cal, qubit](const Gate &) {
        Schedule schedule("x90");
        schedule.play(driveChannel(qubit), cal.x90Pulse());
        return schedule;
    });
    cmdDef_.define(GateType::DirectX, {qubit},
                   [cal, qubit](const Gate &) {
                       Schedule schedule("direct_x");
                       schedule.play(driveChannel(qubit), cal.x180Pulse());
                       return schedule;
                   });
    cmdDef_.define(
        GateType::DirectRx, {qubit}, [cal, qubit](const Gate &g) {
            // Amplitude-scale the calibrated Rx(180) by theta/180deg
            // (Section 4.2); theta is wrapped into [-pi, pi] so the
            // scale never exceeds the calibrated amplitude.
            const double theta = wrapAngle(g.params[0]);
            Schedule schedule("direct_rx");
            if (std::abs(theta) > 1e-12)
                schedule.play(driveChannel(qubit),
                              std::make_shared<ScaledWaveform>(
                                  cal.x180Pulse(),
                                  Complex{theta / kPi, 0.0}));
            return schedule;
        });
    cmdDef_.define(GateType::I, {qubit}, [cal, qubit](const Gate &) {
        Schedule schedule("id");
        schedule.delay(driveChannel(qubit), cal.duration);
        return schedule;
    });

    const long measure_duration = library_.config.measureDuration;
    cmdDef_.define(GateType::Measure, {qubit},
                   [measure_duration, qubit](const Gate &) {
                       Schedule schedule("measure");
                       schedule.play(
                           measureChannel(qubit),
                           std::make_shared<GaussianSquareWaveform>(
                               measure_duration, 64.0, 256,
                               Complex{0.1, 0.0}));
                       schedule.acquire(acquireChannel(qubit),
                                        measure_duration);
                       return schedule;
                   });
}

void
PulseBackend::defineEdgeEntries(std::size_t edge_index)
{
    const CrCalibration &cal = library_.crs[edge_index];
    const std::size_t control = cal.control;
    const std::size_t target = cal.target;

    cmdDef_.define(GateType::Cnot, {control, target},
                   [this, control, target](const Gate &) {
                       return cnotSchedule(control, target);
                   });
    cmdDef_.define(GateType::Cr, {control, target},
                   [this, control, target](const Gate &g) {
                       return crSchedule(control, target, g.params[0]);
                   });
    cmdDef_.define(
        GateType::CrHalf, {control, target},
        [this, cal, edge_index, control, target](const Gate &g) {
            // A single (unechoed) CR pulse half; valid inside echo
            // patterns where the transpiler guarantees the partner
            // pulse. The net angle of a full echo with this half is
            // 2 * theta, so the stretch targets 2|theta|. The
            // calibrated corrections are applied pro-rated: the full
            // axis sandwich (a fixed property of the drive line) and
            // half of the Stark after-fixes, scaled with the pulse
            // area.
            const double theta = g.params[0];
            const auto stretch = cal.stretchFor(2.0 * std::abs(theta));
            const CrCalibration::PhaseFixPoint fix =
                cal.fixAt(2.0 * std::abs(theta));
            Schedule schedule("cr_half");
            schedule.appendBarrier(rzSchedule(target, fix.axis));
            schedule.play(controlChannel(edge_index),
                          cal.halfPulse(stretch.flat, stretch.ampScale,
                                        theta >= 0.0 ? 1.0 : -1.0));
            schedule.appendBarrier(
                rzSchedule(control, fix.control / 2.0));
            schedule.appendBarrier(rzSchedule(
                target, fix.target / 2.0 - fix.axis));
            return schedule;
        });
}

void
PulseBackend::buildCmdDef()
{
    for (std::size_t q = 0; q < library_.qubits.size(); ++q)
        defineQubitEntries(q);
    for (std::size_t e = 0; e < library_.crs.size(); ++e)
        defineEdgeEntries(e);
}

Schedule
PulseBackend::scheduleCircuit(const QuantumCircuit &circuit) const
{
    Schedule total("circuit");
    std::vector<long> cursor(config().numQubits, 0);

    for (const auto &gate : circuit.gates()) {
        if (gate.type == GateType::Barrier) {
            long latest = 0;
            for (long c : cursor)
                latest = std::max(latest, c);
            for (auto &c : cursor)
                c = latest;
            continue;
        }
        const Schedule piece = cmdDef_.schedule(gate);
        long start = 0;
        for (std::size_t q : gate.qubits)
            start = std::max(start, cursor[q]);
        const Schedule placed = piece.shifted(start);
        for (const auto &inst : placed.instructions())
            total.addInstruction(inst);
        const long advance = piece.duration();
        for (std::size_t q : gate.qubits)
            cursor[q] = start + advance;
    }
    return total;
}

Schedule
PulseBackend::probeSchedule(std::size_t qubit) const
{
    qpulseRequire(qubit < library_.qubits.size(),
                  "probeSchedule: qubit outside the backend");
    Schedule schedule("health_probe");
    schedule.play(driveChannel(qubit),
                  library_.qubits[qubit].x180Pulse());
    return schedule;
}

long
PulseBackend::gateDuration(const Gate &gate) const
{
    return cmdDef_.schedule(gate).duration();
}

std::size_t
PulseBackend::gatePulseCount(const Gate &gate) const
{
    const Schedule schedule = cmdDef_.schedule(gate);
    std::size_t count = 0;
    for (const auto &inst : schedule.instructions())
        if (inst.kind == PulseInstructionKind::Play &&
            inst.channel.kind != ChannelKind::Measure)
            ++count;
    return count;
}

std::shared_ptr<PropagatorCache>
runPropagatorCache(const PulseSimulator &sim, const PulseShotOptions &opts)
{
    if (!sim.cachingEnabled())
        return nullptr;
    if (opts.cache)
        return opts.cache;
    if (sim.propagatorCache())
        return sim.propagatorCache();
    return std::make_shared<PropagatorCache>();
}

PulseShotResult
PulseBackend::runShots(const PulseSimulator &sim,
                       const Schedule &schedule,
                       const PulseShotOptions &opts) const
{
    qpulseRequire(opts.shots >= 1, "runShots needs shots >= 1");

    telemetry::TraceSpan run_span("backend.run_shots");
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    static telemetry::Counter &c_runs =
        registry.counter("backend.runs");
    static telemetry::Counter &c_shots =
        registry.counter("backend.shots");
    static telemetry::Counter &c_batches =
        registry.counter("backend.shot_batches");
    c_runs.increment();
    c_shots.add(static_cast<std::uint64_t>(opts.shots));

    // Validation gate: a malformed schedule (NaN/Inf samples,
    // saturated envelopes, unknown channels, non-monotonic times)
    // must never reach the quantized cache keys or the
    // propagator derivation — reject it with its structured
    // reason here, once per run, before any evolution.
    throwIfError(validateSchedule(schedule, library_.config));

    // Work on a copy so the shot run can attach its cache without
    // mutating the caller's simulator (the copy is a few small
    // matrices). Caching follows the caller's simulator: with it off,
    // every shot takes the per-sample reference path.
    PulseSimulator worker = sim;
    const std::shared_ptr<PropagatorCache> cache =
        runPropagatorCache(sim, opts);
    worker.setPropagatorCache(cache);
    // The worker polls the token and any *wall-clock* deadline
    // mid-evolution. Virtual budgets are deliberately not checked
    // inside evolve (setInterrupt drops them): the loop below charges
    // them per batch, and an admitted batch runs to completion.
    worker.setInterrupt(opts.token, opts.deadline);
    const PropagatorCacheStats before =
        cache ? cache->stats() : PropagatorCacheStats{};

    const std::size_t dim = worker.model().dim();
    Vector ground(dim);
    ground[0] = Complex{1.0, 0.0};

    PulseShotResult result;
    result.shotsRequested = opts.shots;
    result.counts.assign(dim, 0);
    result.populations.assign(dim, 0.0);

    static telemetry::Counter &c_interrupted =
        registry.counter("backend.runs_interrupted");
    const auto finishInterrupted = [&](Status reason) {
        result.partial = true;
        result.interruption = std::move(reason);
        c_interrupted.increment();
    };

    // Pre-start gate: a job already cancelled or expired returns an
    // empty partial result instead of burning the warm-up evolution.
    if (const Status gate = opts.deadline.check(opts.token);
        !gate.ok()) {
        finishInterrupted(gate);
        return result;
    }

    const std::size_t shots = static_cast<std::size_t>(opts.shots);
    // Shots run in order, in a fixed number of batches: each batch is
    // one "backend.shot_batch" span and one virtual-time charge. Each
    // batch evolves as panels of at most kShotPanelWidth ground states,
    // then draws shot s from its own Rng(deriveSeed(seed, s)) stream.
    const std::size_t batches = std::min(shots, kShotBatches);
    const std::uint64_t sample_cost = static_cast<std::uint64_t>(
        std::max<long>(schedule.duration(), 1));
    try {
        result.populations =
            worker.populations(worker.evolveState(schedule, ground));
        c_batches.add(batches);

        Workspace &ws = tlsWorkspace();
        Vector &shot_state = ws.vector(0, dim);
        for (std::size_t batch = 0; batch < batches; ++batch) {
            const std::size_t begin = batch * shots / batches;
            const std::size_t end = (batch + 1) * shots / batches;
            if (opts.deadline.isVirtual() &&
                !opts.deadline.tryCharge((end - begin) * sample_cost)) {
                finishInterrupted(Status::error(
                    ErrorCode::DeadlineExceeded,
                    "virtual-time budget exhausted after " +
                        std::to_string(result.shotsCompleted) + " of " +
                        std::to_string(opts.shots) + " shots"));
                break;
            }
            telemetry::TraceSpan batch_span("backend.shot_batch");
            for (std::size_t shot = begin; shot < end;) {
                worker.checkInterrupt();
                const std::size_t width =
                    std::min(kShotPanelWidth, end - shot);
                StatePanel &panel = ws.statePanel(1, dim, width);
                panel.fillColumns(ground);
                worker.evolveStatesBatched(schedule, panel, ws);
                for (std::size_t c = 0; c < width; ++c, ++shot) {
                    panel.getColumn(c, shot_state);
                    Rng rng(Rng::deriveSeed(opts.seed, shot));
                    ++result.counts[rng.discrete(
                        worker.populations(shot_state))];
                    ++result.shotsCompleted;
                }
            }
        }
    } catch (const StatusError &err) {
        // An interrupt keeps the shots already drawn (they are
        // complete, valid draws); anything else propagates.
        if (err.code() != ErrorCode::Cancelled &&
            err.code() != ErrorCode::DeadlineExceeded)
            throw;
        finishInterrupted(err.status());
    }
    if (cache) {
        const PropagatorCacheStats after = cache->stats();
        result.cacheStats.hits = after.hits - before.hits;
        result.cacheStats.misses = after.misses - before.misses;
        result.cacheStats.evictions =
            after.evictions - before.evictions;
    }
    return result;
}

double
PulseBackend::gatePeakAmplitude(const Gate &gate) const
{
    const Schedule schedule = cmdDef_.schedule(gate);
    double peak = 0.0;
    for (const auto &inst : schedule.instructions())
        if (inst.kind == PulseInstructionKind::Play &&
            inst.channel.kind != ChannelKind::Measure)
            peak = std::max(peak, inst.waveform->peakAmplitude());
    return peak;
}

} // namespace qpulse
