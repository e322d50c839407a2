#include "device/calibration.h"

#include <cmath>
#include <sstream>

#include "common/constants.h"
#include "linalg/gates.h"
#include "opt/fitting.h"
#include "opt/nelder_mead.h"
#include "opt/spsa.h"
#include "synth/euler.h"

namespace qpulse {

WaveformPtr
QubitCalibration::x90Pulse() const
{
    return std::make_shared<DragWaveform>(duration, sigma,
                                          Complex{x90Amp, 0.0}, dragBeta);
}

WaveformPtr
QubitCalibration::x180Pulse() const
{
    return std::make_shared<DragWaveform>(duration, sigma,
                                          Complex{x180Amp, 0.0}, dragBeta);
}

CrCalibration::Stretch
CrCalibration::stretchFor(double theta_rad) const
{
    const double magnitude = std::abs(theta_rad);
    // Each echo half contributes theta/2; the per-half angle at a
    // given flat length is radAtZeroFlat + radPerDtFlat * flat in the
    // *net* angle convention (the calibration fit is against the net
    // rotation, so the formulas below are already in net angle).
    if (magnitude >= radAtZeroFlat) {
        const long flat = static_cast<long>(std::llround(
            (magnitude - radAtZeroFlat) / radPerDtFlat));
        return {flat, 1.0};
    }
    // Below the edge-only angle, scale the amplitude down instead of
    // stretching (the CR rate is linear in drive amplitude to first
    // order, the same bootstrap assumption as DirectRx).
    return {0, magnitude / radAtZeroFlat};
}

CrCalibration::PhaseFixPoint
CrCalibration::fixAt(double theta_rad) const
{
    const double magnitude = std::abs(theta_rad);
    if (fixTable.empty()) {
        // Legacy path: linear scaling of the 90-degree values.
        const double scale = magnitude / (kPi / 2);
        return {magnitude, phaseFixControl * scale,
                phaseFixTarget * scale, axisPhaseTarget};
    }
    auto blend = [&](const PhaseFixPoint &lo, const PhaseFixPoint &hi,
                     double w) {
        return PhaseFixPoint{magnitude,
                             lo.control + w * (hi.control - lo.control),
                             lo.target + w * (hi.target - lo.target),
                             lo.axis + w * (hi.axis - lo.axis)};
    };
    if (magnitude <= fixTable.front().theta) {
        const double scale =
            fixTable.front().theta > 0.0
                ? magnitude / fixTable.front().theta
                : 0.0;
        // The after-fixes vanish with the pulse area; the axis is a
        // property of the drive line and stays at the first point.
        return {magnitude, fixTable.front().control * scale,
                fixTable.front().target * scale,
                fixTable.front().axis};
    }
    for (std::size_t i = 1; i < fixTable.size(); ++i)
        if (magnitude <= fixTable[i].theta)
            return blend(fixTable[i - 1], fixTable[i],
                         (magnitude - fixTable[i - 1].theta) /
                             (fixTable[i].theta -
                              fixTable[i - 1].theta));
    // Beyond the table: extrapolate along the last segment.
    const auto &lo = fixTable[fixTable.size() - 2];
    const auto &hi = fixTable.back();
    return blend(lo, hi,
                 (magnitude - lo.theta) / (hi.theta - lo.theta));
}

WaveformPtr
CrCalibration::halfPulse(long flat, double amp_scale, double sign) const
{
    return std::make_shared<GaussianSquareWaveform>(
        flat + 2 * risefall, sigma, risefall,
        Complex{amplitude * amp_scale * sign, 0.0});
}

const CrCalibration &
PulseLibrary::cr(std::size_t control, std::size_t target) const
{
    for (const auto &cal : crs)
        if (cal.control == control && cal.target == target)
            return cal;
    qpulseFatal("no CR calibration for edge ", control, "->", target);
}

std::size_t
PulseLibrary::controlChannelIndex(std::size_t control,
                                  std::size_t target) const
{
    for (std::size_t i = 0; i < crs.size(); ++i)
        if (crs[i].control == control && crs[i].target == target)
            return i;
    qpulseFatal("no control channel for edge ", control, "->", target);
}

Calibrator::Calibrator(BackendConfig config) : config_(std::move(config))
{
}

TransmonModel
Calibrator::qubitModel(std::size_t qubit) const
{
    qpulseRequire(qubit < config_.numQubits, "qubit out of range");
    return TransmonModel::single(config_.qubits[qubit], 3);
}

PulseSimulator
Calibrator::pairSimulator(std::size_t control, std::size_t target) const
{
    const auto &edge = config_.edge(control, target);
    CouplingParams coupling;
    coupling.qubitA = 0;
    coupling.qubitB = 1;
    coupling.strengthGhz = edge.strengthGhz;
    TransmonModel model = TransmonModel::pair(
        config_.qubits[control], config_.qubits[target], coupling, 3);
    PulseSimulator sim(std::move(model));
    const double detuning =
        2.0 * kPi * (config_.qubits[control].frequencyGhz -
                     config_.qubits[target].frequencyGhz);
    sim.setControlChannel(0, ControlChannelSpec{0, detuning});
    return sim;
}

namespace {

std::string
qubitKey(const TransmonParams &params)
{
    std::ostringstream os;
    os << params.frequencyGhz << "/" << params.anharmonicityGhz << "/"
       << params.driveStrengthGhz;
    return os.str();
}

std::string
crKey(const TransmonParams &c, const TransmonParams &t, double j_ghz)
{
    return qubitKey(c) + "|" + qubitKey(t) + "|" + std::to_string(j_ghz);
}

/** P(level == want) of transmon `which` (0-based) in a pair state. */
double
marginalPopulation(const Vector &state, std::size_t which,
                   std::size_t want, std::size_t n_transmons,
                   std::size_t levels)
{
    double total = 0.0;
    for (std::size_t idx = 0; idx < state.size(); ++idx) {
        std::size_t rest = idx;
        std::size_t level = 0;
        for (std::size_t j = n_transmons; j-- > 0;) {
            const std::size_t this_level = rest % levels;
            rest /= levels;
            if (j == which)
                level = this_level;
        }
        if (level == want)
            total += std::norm(state[idx]);
    }
    return total;
}

} // namespace

QubitCalibration
Calibrator::calibrateQubit(std::size_t qubit)
{
    const std::string key = qubitKey(config_.qubits[qubit]);
    const auto cached = qubitCache_.find(key);
    if (cached != qubitCache_.end())
        return cached->second;

    PulseSimulator sim(qubitModel(qubit));
    QubitCalibration cal;
    cal.duration = config_.pulseDuration;
    cal.sigma = config_.pulseSigma;

    Vector ground(3);
    ground[0] = Complex{1.0, 0.0};

    // --- Rabi amplitude scan (Section 2.3): plain Gaussian pulses. ---
    std::vector<double> amps, p1s;
    for (int k = 0; k <= 24; ++k) {
        const double amp = 0.3 * static_cast<double>(k) / 24.0;
        Schedule schedule("rabi");
        schedule.play(driveChannel(0),
                      std::make_shared<GaussianWaveform>(
                          cal.duration, cal.sigma, Complex{amp, 0.0}));
        const Vector out = sim.evolveState(schedule, ground);
        amps.push_back(amp);
        p1s.push_back(std::norm(out[1]));
    }
    const FitResult rabi = fitCosine(amps, p1s);
    // p1 = offset + A cos(2 pi f amp + phase); the first maximum of p1
    // is the pi-pulse amplitude.
    const double freq = rabi.params[2];
    double pi_amp = -rabi.params[3] / (2.0 * kPi * freq);
    while (pi_amp <= 0.0)
        pi_amp += 1.0 / freq;
    cal.x180Amp = pi_amp;
    cal.x90Amp = pi_amp / 2.0;

    // --- DRAG calibration: null the X component of the post-pulse
    //     state (tomography observable). The DRAG quadrature corrects
    //     both leakage and the Stark-induced axis tilt; for these slow
    //     pulses the tilt dominates, and zeroing <X> after an X pulse
    //     is the standard fine-tuning experiment. ---
    auto x_error_for = [&](double beta) {
        Schedule schedule("drag");
        schedule.play(driveChannel(0),
                      std::make_shared<DragWaveform>(
                          cal.duration, cal.sigma,
                          Complex{cal.x180Amp, 0.0}, beta));
        const Vector out = sim.evolveState(schedule, ground);
        const Complex cross = std::conj(out[0]) * out[1];
        const double x_component = 2.0 * cross.real();
        return x_component * x_component + std::norm(out[2]);
    };
    cal.dragBeta = brentMinimize(x_error_for, -6.0, 6.0, 1e-7);

    // --- Fine amplitude scan with DRAG applied: peak the |1> pop. ---
    auto miss_for = [&](double amp) {
        Schedule schedule("fine-amp");
        schedule.play(driveChannel(0),
                      std::make_shared<DragWaveform>(
                          cal.duration, cal.sigma, Complex{amp, 0.0},
                          cal.dragBeta));
        const Vector out = sim.evolveState(schedule, ground);
        return 1.0 - std::norm(out[1]);
    };
    cal.x180Amp = brentMinimize(miss_for, 0.85 * cal.x180Amp,
                                1.15 * cal.x180Amp, 1e-7);
    cal.x90Amp = cal.x180Amp / 2.0;

    qubitCache_[key] = cal;
    return cal;
}

void
Calibrator::calibrateQutrit(std::size_t qubit, QubitCalibration &cal)
{
    PulseSimulator sim(qubitModel(qubit));
    const double alpha = config_.qubits[qubit].anharmonicityGhz;
    Vector ground(3);
    ground[0] = Complex{1.0, 0.0};
    cal.qutritDuration = cal.duration;

    // --- f12 sideband pi pulse: prepare |1> with the calibrated X,
    //     then drive at f12 = f01 + alpha and scan the amplitude. ---
    auto x12_miss = [&](double amp) {
        Schedule schedule("x12-scan");
        schedule.play(driveChannel(0), cal.x180Pulse());
        schedule.play(driveChannel(0),
                      std::make_shared<SidebandWaveform>(
                          std::make_shared<GaussianWaveform>(
                              cal.qutritDuration, cal.sigma,
                              Complex{amp, 0.0}),
                          alpha));
        const Vector out = sim.evolveState(schedule, ground);
        return 1.0 - std::norm(out[2]);
    };
    // The 1-2 matrix element is sqrt(2) stronger, so the pi amplitude
    // sits near x180Amp / sqrt(2); bracket that and refine.
    cal.x12Amp = brentMinimize(x12_miss, 0.3 * cal.x180Amp,
                               1.3 * cal.x180Amp, 1e-6);

    // --- f02/2 two-photon pi pulse: drive from |0> at (f01+f12)/2.
    //     The 0-2 coupling is suppressed (Section 7.2), so the scan
    //     covers much larger amplitudes; the Rabi rate is quadratic in
    //     the amplitude, so a coarse scan locates the first peak. ---
    auto p2_for = [&](double amp) {
        Schedule schedule("x02-scan");
        schedule.play(driveChannel(0),
                      std::make_shared<SidebandWaveform>(
                          std::make_shared<GaussianWaveform>(
                              cal.qutritDuration, cal.sigma,
                              Complex{amp, 0.0}),
                          alpha / 2.0));
        const Vector out = sim.evolveState(schedule, ground);
        return std::norm(out[2]);
    };
    double best_amp = 0.2, best_p2 = 0.0;
    for (int k = 4; k <= 48; ++k) {
        const double amp = static_cast<double>(k) / 50.0;
        const double p2 = p2_for(amp);
        if (p2 > best_p2) {
            best_p2 = p2;
            best_amp = amp;
        }
        // Stop at the first strong peak: past it the next lobe would
        // confuse the bracket.
        if (best_p2 > 0.9 && p2 < best_p2 - 0.2)
            break;
    }
    cal.x02Amp = brentMinimize([&](double a) { return 1.0 - p2_for(a); },
                               std::max(0.05, best_amp - 0.08),
                               std::min(0.96, best_amp + 0.08), 1e-6);
}

namespace {

/** Time-sequential echoed-CR body used during calibration. */
Schedule
echoBody(const CrCalibration &cr, const QubitCalibration &control_cal,
         long flat, double amp_scale, double sign)
{
    Schedule schedule("cr-echo");
    long cursor = 0;
    const auto cr_plus = cr.halfPulse(flat, amp_scale, sign);
    const auto cr_minus = cr.halfPulse(flat, amp_scale, -sign);
    const auto x180 = control_cal.x180Pulse();

    schedule.playAt(cursor, controlChannel(0), cr_plus);
    cursor += cr_plus->duration();
    schedule.playAt(cursor, driveChannel(0), x180);
    cursor += x180->duration();
    schedule.playAt(cursor, controlChannel(0), cr_minus);
    cursor += cr_minus->duration();
    schedule.playAt(cursor, driveChannel(0), x180);
    return schedule;
}

} // namespace

CrCalibration
Calibrator::calibrateCr(std::size_t control, std::size_t target,
                        const QubitCalibration &control_cal)
{
    const auto &edge = config_.edge(control, target);
    const std::string key = crKey(config_.qubits[control],
                                  config_.qubits[target],
                                  edge.strengthGhz);
    const auto cached = crCache_.find(key);
    if (cached != crCache_.end()) {
        CrCalibration cal = cached->second;
        cal.control = control;
        cal.target = target;
        return cal;
    }

    PulseSimulator sim = pairSimulator(control, target);
    CrCalibration cal;
    cal.control = control;
    cal.target = target;
    cal.amplitude = config_.crAmplitude;
    cal.risefall = config_.crRisefall;
    cal.sigma = static_cast<double>(config_.crRisefall) / 4.0;

    Vector ground(9);
    ground[0] = Complex{1.0, 0.0};

    // --- Flat-top duration scan: net target rotation vs flat. ---
    // p1 = 0.5 - 0.5 cos(theta) with theta = rad_per_flat * flat + b:
    // match offset + A cos(2 pi f flat + phase) by theta = 2 pi f flat
    // + phase - pi. (The zero-flat intercept is the small edge-area
    // angle; fit noise can push it marginally negative, so clamp.)
    auto fringe_scan = [&]() {
        std::vector<double> flats, p1s;
        for (long flat = 0; flat <= 1600; flat += 100) {
            const Schedule schedule =
                echoBody(cal, control_cal, flat, 1.0, 1.0);
            const Vector out = sim.evolveState(schedule, ground);
            flats.push_back(static_cast<double>(flat));
            p1s.push_back(marginalPopulation(out, 1, 1, 2, 3));
        }
        const FitResult fit = fitCosine(flats, p1s);
        cal.radPerDtFlat = 2.0 * kPi * fit.params[2];
        cal.radAtZeroFlat =
            std::max(1e-4, wrapAngle(fit.params[3] - kPi));
    };
    fringe_scan();

    // Sign of the rotation via Y tomography at a quarter period: apply
    // an ideal basis change on the target and compare populations.
    const long probe_flat = static_cast<long>(
        std::llround((kPi / 2 - cal.radAtZeroFlat) / cal.radPerDtFlat));
    {
        const Schedule schedule =
            echoBody(cal, control_cal, std::max(probe_flat, 0L), 1.0, 1.0);
        const Vector out = sim.evolveState(schedule, ground);
        // <Y> on target: rotate by Rx(pi/2) (maps Y to Z) and read P1:
        // P1 = (1 + <Y>)/2.
        const Matrix rot = kron(Matrix::identity(3),
                                [] {
                                    Matrix r(3, 3);
                                    const Matrix rx = gates::rx(kPi / 2);
                                    for (std::size_t i = 0; i < 2; ++i)
                                        for (std::size_t j = 0; j < 2; ++j)
                                            r(i, j) = rx(i, j);
                                    r(2, 2) = Complex{1.0, 0.0};
                                    return r;
                                }());
        const Vector rotated = rot.apply(out);
        const double y_expect =
            2.0 * marginalPopulation(rotated, 1, 1, 2, 3) - 1.0;
        // CR(+theta) from |00> leaves the target with <Y> = -sin theta.
        if (y_expect > 0.0)
            cal.amplitude = -cal.amplitude;
    }

    // Per-half flat for a net CR(90).
    cal.flatFor90 = std::max(
        0L, static_cast<long>(std::llround(
                (kPi / 2 - cal.radAtZeroFlat) / cal.radPerDtFlat)));

    // --- Fine amplitude trim: at theta = 90 the target sits on the
    //     equator (P1 = 1/2), the most sensitive point of the fringe;
    //     trim the amplitude until the fringe crosses it exactly. ---
    {
        auto miss = [&](double trim) {
            CrCalibration trial = cal;
            trial.amplitude = cal.amplitude * trim;
            const Schedule schedule =
                echoBody(trial, control_cal, cal.flatFor90, 1.0, 1.0);
            const Vector out = sim.evolveState(schedule, ground);
            const double p1 = marginalPopulation(out, 1, 1, 2, 3);
            return (p1 - 0.5) * (p1 - 0.5);
        };
        // Trim resolution 1e-4 bounds the angle error at ~0.01 deg —
        // far below the other residuals — while keeping calibration
        // time reasonable.
        const double trim = brentMinimize(miss, 0.90, 1.10, 1e-4, 28);
        cal.amplitude *= trim;
        // The rate is only approximately linear in the drive, so
        // rather than rescaling the bookkeeping, redo the fringe scan
        // at the trimmed amplitude — that keeps CR(theta) stretching
        // accurate across the whole 0..180 degree range.
        fringe_scan();
        cal.flatFor90 = std::max(
            0L, static_cast<long>(std::llround(
                    (kPi / 2 - cal.radAtZeroFlat) / cal.radPerDtFlat)));
    }

    // --- Phase corrections: free Rz's after the echo that maximise
    //     fidelity to the ideal CR(90) (bootstrapped from simulated
    //     process tomography, not from the Hamiltonian). ---
    {
        // The sign flip (if any) is already folded into cal.amplitude,
        // so a +1.0 echo realises CR(+90).
        const Schedule schedule =
            echoBody(cal, control_cal, cal.flatFor90, 1.0, 1.0);
        const UnitaryResult result = sim.evolveUnitary(schedule);

        // Project the 9x9 propagator onto the 2x2 (x) 2x2 subspace.
        auto project = [&](const Matrix &u) {
            const std::size_t idx[4] = {0, 1, 3, 4};
            Matrix p(4, 4);
            for (std::size_t r = 0; r < 4; ++r)
                for (std::size_t c = 0; c < 4; ++c)
                    p(r, c) = u(idx[r], idx[c]);
            return p;
        };
        const Matrix u_qubit = project(result.unitary);
        const Matrix target_u = gates::cr(kPi / 2);
        // p = {phi_control_after, phi_target_after, psi_axis}: the
        // psi sandwich rotates the echo's target axis onto X, the two
        // after-phases absorb the Stark-like IZ/ZI residuals. All
        // three are free virtual-Z frame changes.
        Objective objective = [&](const std::vector<double> &p) {
            const Matrix after =
                kron(gates::rz(p[0]), gates::rz(p[1] - p[2]));
            const Matrix before =
                kron(Matrix::identity(2), gates::rz(p[2]));
            return 1.0 -
                   unitaryOverlap(target_u, after * u_qubit * before);
        };
        Rng rng(0xCA1);
        const OptResult best = nelderMeadMultiStart(
            objective, {0.0, 0.0, 0.0}, 12, kPi, rng);
        // The after-fixes are scaled linearly with theta when the CR
        // is stretched, so they must be the wrapped representatives
        // (an unwrapped 2pi offset would not scale equivalently).
        cal.phaseFixControl = wrapAngle(best.x[0]);
        cal.phaseFixTarget = wrapAngle(best.x[1]);
        cal.axisPhaseTarget = wrapAngle(best.x[2]);
    }

    // --- Per-angle fix table: the Stark residuals are not exactly
    //     linear in the stretch, so measure them at several net
    //     angles. Each point seeds from the previous one so the
    //     table stays on a continuous branch (no 2 pi jumps). ---
    {
        auto project = [&](const Matrix &u) {
            const std::size_t idx[4] = {0, 1, 3, 4};
            Matrix p(4, 4);
            for (std::size_t r = 0; r < 4; ++r)
                for (std::size_t c = 0; c < 4; ++c)
                    p(r, c) = u(idx[r], idx[c]);
            return p;
        };
        std::vector<double> seed = {cal.phaseFixControl / 4.0,
                                    cal.phaseFixTarget / 4.0,
                                    cal.axisPhaseTarget};
        for (double theta : {kPi / 8, kPi / 4, kPi / 2, 3 * kPi / 4,
                             kPi}) {
            const auto stretch = cal.stretchFor(theta);
            const Schedule schedule = echoBody(
                cal, control_cal, stretch.flat, stretch.ampScale, 1.0);
            const UnitaryResult result = sim.evolveUnitary(schedule);
            const Matrix u_qubit = project(result.unitary);
            const Matrix target_u = gates::cr(theta);
            Objective objective = [&](const std::vector<double> &p) {
                const Matrix after =
                    kron(gates::rz(p[0]), gates::rz(p[1] - p[2]));
                const Matrix before =
                    kron(Matrix::identity(2), gates::rz(p[2]));
                return 1.0 - unitaryOverlap(target_u,
                                            after * u_qubit * before);
            };
            const OptResult best = nelderMead(objective, seed);
            cal.fixTable.push_back(
                {theta, best.x[0], best.x[1], best.x[2]});
            seed = best.x;
        }
    }

    crCache_[key] = cal;
    return cal;
}

PulseLibrary
Calibrator::calibrateAll(bool include_qutrit)
{
    PulseLibrary library;
    library.config = config_;
    for (std::size_t q = 0; q < config_.numQubits; ++q) {
        QubitCalibration cal = calibrateQubit(q);
        if (include_qutrit)
            calibrateQutrit(q, cal);
        library.qubits.push_back(cal);
    }
    for (const auto &edge : config_.couplings)
        library.crs.push_back(calibrateCr(edge.control, edge.target,
                                          library.qubits[edge.control]));
    return library;
}

} // namespace qpulse
