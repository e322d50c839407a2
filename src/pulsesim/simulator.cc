#include "pulsesim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/constants.h"
#include "common/status.h"
#include "linalg/eigen.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qpulse {

namespace {

/** Work counters for one evolve call (thread-count invariant). */
void
countEvolve(telemetry::Counter &calls, long duration)
{
    static telemetry::Counter &c_samples =
        telemetry::MetricsRegistry::global().counter("sim.samples");
    calls.increment();
    c_samples.add(static_cast<std::uint64_t>(
        duration >= 0 ? duration : 0));
}

/** max_i |v_i|. */
double
maxAbs(const Vector &v)
{
    double max_sq = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i)
        max_sq = std::max(max_sq, std::norm(v[i]));
    return std::sqrt(max_sq);
}

/**
 * psi <- exp(-i h tau) psi without forming the exponential: the
 * truncated Taylor series of Al-Mohy & Higham's expmv, applied to the
 * state. h is shifted by mu = tr(h)/d (the phase e^{-i mu tau} is
 * applied at the end) and tau split into ceil(||h - mu I||_1 tau)
 * substeps, so each substep's series converges like 1/k!; terms are
 * added until two consecutive ones fall below 2^-53 of the partial
 * sum. Plain scalar loops, so the result is the same on every SIMD
 * tier. `term` and `next` are scratch of psi's size.
 */
void
applyTaylorAction(const Matrix &h, double tau, Vector &psi, Vector &term,
                  Vector &next)
{
    // With ||A|| <= 1 per substep the terms fall below the tolerance
    // by k = 20; the cap only bounds the loop on non-finite input.
    constexpr int kMaxTerms = 30;
    constexpr double kTol = 0x1p-53;
    const std::size_t dim = psi.size();
    next.resize(dim);
    double mu = 0.0;
    for (std::size_t i = 0; i < dim; ++i)
        mu += h(i, i).real();
    mu /= static_cast<double>(dim);
    // |z| as sqrt(norm(z)): std::abs's overflow-safe hypot cost a fifth
    // of a d = 9 step here.
    double norm1 = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
        double column = 0.0;
        for (std::size_t r = 0; r < dim; ++r)
            column += std::sqrt(std::norm(r == c ? h(r, c) - mu : h(r, c)));
        norm1 = std::max(norm1, column);
    }
    // Validated drives need a handful of substeps; the range check
    // keeps an absurd (or NaN) norm from overflowing the count.
    const double wanted = std::ceil(norm1 * tau);
    const long substeps =
        wanted >= 1.0 && wanted <= 1e6 ? static_cast<long>(wanted) : 1L;
    const double dt = tau / static_cast<double>(substeps);
    for (long s = 0; s < substeps; ++s) {
        term = psi;
        double previous = maxAbs(term);
        for (int k = 1; k <= kMaxTerms; ++k) {
            // next = (-i dt / k) (h - mu I) term.
            const Complex scale{0.0, -dt / static_cast<double>(k)};
            for (std::size_t r = 0; r < dim; ++r) {
                Complex acc = -mu * term[r];
                for (std::size_t c = 0; c < dim; ++c)
                    acc += h(r, c) * term[c];
                next[r] = acc * scale;
            }
            for (std::size_t r = 0; r < dim; ++r)
                psi[r] += next[r];
            std::swap(term, next);
            const double current = maxAbs(term);
            if (previous + current <= kTol * maxAbs(psi))
                break;
            previous = current;
        }
    }
    const Complex phase = std::exp(Complex{0.0, -mu * tau});
    for (std::size_t r = 0; r < dim; ++r)
        psi[r] *= phase;
}

/** One applier made of one lambda per step kind it accepts. */
template <typename... Fs>
struct Overloaded : Fs...
{
    using Fs::operator()...;
};

/** FNV-1a step over the bit pattern of one double. */
std::uint64_t
fnvMixDouble(std::uint64_t h, double x)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    h ^= bits;
    h *= 0x100000001B3ull;
    return h;
}

/** Fold a matrix's shape and every entry into the fingerprint. */
std::uint64_t
fnvMixMatrix(std::uint64_t h, const Matrix &m)
{
    h = fnvMixDouble(h, static_cast<double>(m.rows()));
    h = fnvMixDouble(h, static_cast<double>(m.cols()));
    for (const Complex &z : m.data()) {
        h = fnvMixDouble(h, z.real());
        h = fnvMixDouble(h, z.imag());
    }
    return h;
}

/**
 * Per-channel frame-phase lookup in O(log events): sorted event times
 * with prefix sums. Replaces the per-sample linear rescan of every
 * ShiftPhase/ShiftFrequency event (quadratic in schedule size).
 *
 * The frequency-shift contribution at sample t is
 *   -2 pi dt * sum_{e: t_e <= t} f_e (t - t_e)
 *     = -2 pi dt * (t * sum f_e  -  sum f_e t_e),
 * so two prefix sums make each lookup O(1) after the binary search.
 */
struct FrameTrack
{
    std::vector<long> phaseTimes;
    std::vector<double> phasePrefix;
    std::vector<long> freqTimes;
    std::vector<double> freqPrefix;     ///< Cumulative sum of f_e.
    std::vector<double> freqTimePrefix; ///< Cumulative sum of f_e t_e.

    double at(long t) const
    {
        double phase = 0.0;
        const auto pit = std::upper_bound(phaseTimes.begin(),
                                          phaseTimes.end(), t);
        if (pit != phaseTimes.begin())
            phase += phasePrefix[static_cast<std::size_t>(
                pit - phaseTimes.begin() - 1)];
        const auto fit = std::upper_bound(freqTimes.begin(),
                                          freqTimes.end(), t);
        if (fit != freqTimes.begin()) {
            const std::size_t k = static_cast<std::size_t>(
                fit - freqTimes.begin() - 1);
            phase -= 2.0 * kPi * kDtNs *
                     (static_cast<double>(t) * freqPrefix[k] -
                      freqTimePrefix[k]);
        }
        return phase;
    }
};

} // namespace

PulseSimulator::PulseSimulator(TransmonModel model)
    : model_(std::move(model))
{
    staticH_ = model_.staticHamiltonian();
    for (std::size_t j = 0; j < model_.numTransmons(); ++j) {
        const double omega =
            2.0 * kPi * model_.qubit(j).driveStrengthGhz;
        raising_.push_back(model_.lowering(j).adjoint() *
                           Complex{omega / 2.0, 0.0});
    }
    if (model_.coupling()) {
        const auto &coupling = *model_.coupling();
        const double j_rad = 2.0 * kPi * coupling.strengthGhz;
        couplingOp_ = model_.lowering(coupling.qubitA).adjoint() *
                      model_.lowering(coupling.qubitB) *
                      Complex{j_rad, 0.0};
        couplingDetuning_ =
            2.0 * kPi * (model_.qubit(coupling.qubitA).frequencyGhz -
                         model_.qubit(coupling.qubitB).frequencyGhz);
        hasCoupling_ = true;
    }

    // Fingerprint of every Hamiltonian building block. Mixed into
    // every PropagatorKey so recalibration (a new simulator over
    // changed model parameters) can never hit propagators cached under
    // stale parameters, even when the caller keeps sharing one cache.
    std::uint64_t h = 0xCBF29CE484222325ull;
    h = fnvMixMatrix(h, staticH_);
    for (const Matrix &op : raising_)
        h = fnvMixMatrix(h, op);
    if (hasCoupling_) {
        h = fnvMixMatrix(h, couplingOp_);
        h = fnvMixDouble(h, couplingDetuning_);
    }
    basisVersion_ = h;
}

void
PulseSimulator::setControlChannel(std::size_t index,
                                  const ControlChannelSpec &spec)
{
    qpulseRequire(spec.driveTransmon < model_.numTransmons(),
                  "control channel drives an unknown transmon");
    controlChannels_[index] = spec;
}

std::vector<std::vector<Complex>>
PulseSimulator::buildDriveTimeline(const Schedule &schedule, long duration,
                                   std::vector<double> *frame_out) const
{
    std::vector<std::vector<Complex>> drives(
        model_.numTransmons(),
        std::vector<Complex>(static_cast<std::size_t>(duration),
                             Complex{0.0, 0.0}));

    // Per-channel phase/frequency events, sorted once and folded into
    // prefix sums so the per-sample frame lookup is O(log events).
    struct PhaseEvent { long time; double phase; };
    struct FreqEvent { long time; double freqGhz; };
    std::map<Channel, std::vector<PhaseEvent>> phase_events;
    std::map<Channel, std::vector<FreqEvent>> freq_events;
    for (const auto &inst : schedule.instructions()) {
        if (inst.kind == PulseInstructionKind::ShiftPhase)
            phase_events[inst.channel].push_back(
                {inst.startTime, inst.phase});
        else if (inst.kind == PulseInstructionKind::ShiftFrequency)
            freq_events[inst.channel].push_back(
                {inst.startTime, inst.frequencyGhz});
    }

    std::map<Channel, FrameTrack> frames;
    for (auto &entry : phase_events) {
        std::sort(entry.second.begin(), entry.second.end(),
                  [](const PhaseEvent &a, const PhaseEvent &b) {
                      return a.time < b.time;
                  });
        FrameTrack &track = frames[entry.first];
        double total = 0.0;
        for (const auto &event : entry.second) {
            total += event.phase;
            track.phaseTimes.push_back(event.time);
            track.phasePrefix.push_back(total);
        }
    }
    for (auto &entry : freq_events) {
        std::sort(entry.second.begin(), entry.second.end(),
                  [](const FreqEvent &a, const FreqEvent &b) {
                      return a.time < b.time;
                  });
        FrameTrack &track = frames[entry.first];
        double f_total = 0.0, ft_total = 0.0;
        for (const auto &event : entry.second) {
            f_total += event.freqGhz;
            ft_total += event.freqGhz * static_cast<double>(event.time);
            track.freqTimes.push_back(event.time);
            track.freqPrefix.push_back(f_total);
            track.freqTimePrefix.push_back(ft_total);
        }
    }

    for (const auto &inst : schedule.instructions()) {
        if (inst.kind != PulseInstructionKind::Play)
            continue;

        std::size_t transmon;
        double detuning = 0.0;
        if (inst.channel.kind == ChannelKind::Drive) {
            transmon = inst.channel.index;
            qpulseRequire(transmon < model_.numTransmons(),
                          "schedule drives transmon ", transmon,
                          " outside the ", model_.numTransmons(),
                          "-transmon model");
        } else if (inst.channel.kind == ChannelKind::Control) {
            const auto it = controlChannels_.find(inst.channel.index);
            qpulseRequire(it != controlChannels_.end(),
                          "unmapped control channel u",
                          inst.channel.index);
            transmon = it->second.driveTransmon;
            detuning = it->second.detuningRadPerNs;
        } else {
            continue; // Measurement stimulus does not drive qubits.
        }

        const auto track_it = frames.find(inst.channel);
        const FrameTrack *track =
            track_it != frames.end() ? &track_it->second : nullptr;
        for (long k = 0; k < inst.duration; ++k) {
            const long ts = inst.startTime + k;
            if (ts >= duration)
                break;
            const double t_mid =
                (static_cast<double>(ts) + 0.5) * kDtNs;
            // In the transmon's own rotating frame a drive at
            // omega_drive couples through a^dag with phase
            // e^{+i (omega_own - omega_drive) t} = e^{+i detuning t}.
            const double frame = track ? track->at(ts) : 0.0;
            const Complex value =
                inst.waveform->sample(k) *
                std::exp(Complex{0.0, frame + detuning * t_mid});
            // Last line of defence under the validation gate: a
            // NaN/Inf sample would otherwise poison the quantized
            // propagator-cache key (llround on NaN is undefined) and
            // every propagator derived from it.
            if (!std::isfinite(value.real()) ||
                !std::isfinite(value.imag()))
                throw StatusError(Status::error(
                    ErrorCode::NonFiniteSample,
                    "non-finite drive sample on " +
                        inst.channel.toString() + " at t=" +
                        std::to_string(ts) +
                        " reached the simulator; validate the "
                        "schedule (device/schedule_validation.h)"));
            drives[transmon][static_cast<std::size_t>(ts)] += value;
        }
    }

    if (frame_out) {
        frame_out->assign(model_.numTransmons(), 0.0);
        for (const auto &inst : schedule.instructions())
            if (inst.kind == PulseInstructionKind::ShiftPhase &&
                inst.channel.kind == ChannelKind::Drive)
                (*frame_out)[inst.channel.index] += inst.phase;
    }
    return drives;
}

PropagatorKey
PulseSimulator::makeKey(const std::vector<Complex> &drives,
                        double t_mid_ns) const
{
    PropagatorKey key;
    key.words.reserve(1 + 2 * drives.size() + (hasCoupling_ ? 2 : 0));
    // The basis fingerprint leads every key: two simulators sharing a
    // cache but built over different model parameters can never
    // exchange propagators.
    key.words.push_back(static_cast<std::int64_t>(basisVersion_));
    const auto quantize = [](double x) {
        return static_cast<std::int64_t>(
            std::llround(x / kDriveQuantum));
    };
    for (const Complex &d : drives) {
        key.words.push_back(quantize(d.real()));
        key.words.push_back(quantize(d.imag()));
    }
    if (hasCoupling_) {
        // The coupling term rotates at the qubit-qubit detuning, so
        // the sample time enters the Hamiltonian only through this
        // phase; keying on it makes time-dependence explicit.
        const Complex phase =
            std::exp(Complex{0.0, couplingDetuning_ * t_mid_ns});
        key.words.push_back(quantize(phase.real()));
        key.words.push_back(quantize(phase.imag()));
    }
    return key;
}

std::vector<PulseSimulator::DriveStep>
PulseSimulator::compileSteps(
    const std::vector<std::vector<Complex>> &drives,
    long duration) const
{
    std::vector<DriveStep> steps;
    std::vector<Complex> sample(model_.numTransmons());
    for (long ts = 0; ts < duration; ++ts) {
        for (std::size_t j = 0; j < model_.numTransmons(); ++j)
            sample[j] = drives[j][static_cast<std::size_t>(ts)];
        const double t_mid = (static_cast<double>(ts) + 0.5) * kDtNs;
        PropagatorKey key = makeKey(sample, t_mid);
        if (!steps.empty() && steps.back().key == key) {
            ++steps.back().count;
            continue;
        }
        steps.push_back(
            DriveStep{std::move(key), sample, t_mid, 1});
    }
    return steps;
}

void
PulseSimulator::throwIfInterrupted() const
{
    if (cancelToken_.cancelled())
        throw StatusError(cancelToken_.reason());
    if (wallDeadline_.expired())
        throw StatusError(Status::error(
            ErrorCode::DeadlineExceeded,
            "wall-clock deadline passed mid-evolution"));
}

bool
PulseSimulator::sampleHamiltonian(double t_mid_ns,
                                  const std::vector<Complex> &drives,
                                  Matrix &h) const
{
    h = staticH_;
    const std::size_t dim = model_.dim();
    // h += t + t^dag with t = op * scale, entry by entry in the order
    // Matrix's operators would take, so every propagator derived from
    // h keeps its bits.
    const auto add_hermitian = [&](const Matrix &op, Complex scale) {
        for (std::size_t r = 0; r < dim; ++r)
            for (std::size_t c = 0; c < dim; ++c)
                h(r, c) += op(r, c) * scale + std::conj(op(c, r) * scale);
    };
    bool any_drive = false;
    for (std::size_t j = 0; j < drives.size(); ++j) {
        if (drives[j] == Complex{0.0, 0.0})
            continue;
        any_drive = true;
        add_hermitian(raising_[j], drives[j]);
    }
    if (hasCoupling_)
        add_hermitian(couplingOp_,
                      std::exp(Complex{0.0, couplingDetuning_ * t_mid_ns}));
    return any_drive || hasCoupling_;
}

Matrix
PulseSimulator::stepPropagator(double t_mid_ns,
                               const std::vector<Complex> &drives) const
{
    Matrix h;
    if (!sampleHamiltonian(t_mid_ns, drives, h)) {
        // Diagonal fast path: free evolution under the static part.
        std::vector<Complex> phases(model_.dim());
        for (std::size_t idx = 0; idx < model_.dim(); ++idx)
            phases[idx] = std::exp(
                Complex{0.0, -staticH_(idx, idx).real() * kDtNs});
        return Matrix::diagonal(phases);
    }
    return expMinusIHt(h, kDtNs);
}

template <typename Apply>
void
PulseSimulator::walkSteps(const Schedule &schedule, long duration,
                          std::vector<double> *frame_out,
                          Apply &&apply) const
{
    const auto drives = buildDriveTimeline(schedule, duration, frame_out);
    if (cachingEnabled_) {
        constexpr bool takes_hamiltonians =
            std::is_invocable_v<Apply &, const HamiltonianStep &, long>;
        std::unique_ptr<PropagatorCache> local;
        PropagatorCache *cache = cache_.get();
        if (!cache) {
            local = std::make_unique<PropagatorCache>();
            cache = local.get();
        }
        Matrix step_u, h;
        for (const DriveStep &step : compileSteps(drives, duration)) {
            checkInterrupt();
            if constexpr (takes_hamiltonians) {
                // A cache local to this call could only serve a later
                // run of the same key; a short run is cheaper applied
                // as an action than exponentiated.
                if (!cache_ && step.count < kPoweredRun) {
                    sampleHamiltonian(step.tMidNs, step.drives, h);
                    apply(HamiltonianStep{h}, step.count);
                    continue;
                }
            }
            cache->getOrComputeInto(
                step.key,
                [this, &step] {
                    return stepPropagator(step.tMidNs, step.drives);
                },
                step_u);
            apply(step_u, step.count);
        }
        return;
    }
    // Per-sample exact reference: one propagator per AWG sample.
    std::vector<Complex> sample(model_.numTransmons());
    for (long ts = 0; ts < duration; ++ts) {
        if ((ts % kInterruptStride) == 0)
            checkInterrupt();
        for (std::size_t j = 0; j < model_.numTransmons(); ++j)
            sample[j] = drives[j][static_cast<std::size_t>(ts)];
        const double t_mid = (static_cast<double>(ts) + 0.5) * kDtNs;
        apply(stepPropagator(t_mid, sample), 1L);
    }
}

UnitaryResult
PulseSimulator::evolveUnitary(const Schedule &schedule) const
{
    telemetry::TraceSpan span("sim.evolve_unitary");
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter(
            "sim.evolve_unitary.calls");
    const long duration = schedule.duration();
    countEvolve(c_calls, duration);
    UnitaryResult result;
    result.duration = duration;
    Matrix u = Matrix::identity(model_.dim());
    Workspace pow_ws;
    Matrix u_pow, u_next;
    walkSteps(schedule, duration, &result.framePhase,
              [&](const Matrix &step_u, long count) {
                  powmInto(u_pow, step_u,
                           static_cast<std::uint64_t>(count), pow_ws);
                  gemmInto(u_next, u_pow, u);
                  std::swap(u, u_next);
              });
    result.unitary = std::move(u);
    return result;
}

Matrix
PulseSimulator::effectiveUnitary(const UnitaryResult &result) const
{
    // A pulse played with frame phase phi acts as
    // exp(i phi n) U_pulse exp(-i phi n), so a schedule whose frames
    // accumulate to phi satisfies U_raw = exp(i phi n) U_logical, i.e.
    // the logical (compiler-intended) unitary is recovered by applying
    // exp(-i phi n) on the left.
    Matrix correction = Matrix::identity(model_.dim());
    for (std::size_t j = 0; j < model_.numTransmons(); ++j) {
        const double phi = result.framePhase[j];
        if (phi == 0.0)
            continue;
        std::vector<Complex> phases(model_.dim());
        const Matrix n = model_.number(j);
        for (std::size_t idx = 0; idx < model_.dim(); ++idx)
            phases[idx] =
                std::exp(Complex{0.0, -phi * n(idx, idx).real()});
        correction = Matrix::diagonal(phases) * correction;
    }
    return correction * result.unitary;
}

Vector
PulseSimulator::evolveState(const Schedule &schedule,
                            const Vector &initial) const
{
    qpulseRequire(initial.size() == model_.dim(),
                  "evolveState dimension mismatch");
    telemetry::TraceSpan span("sim.evolve_state");
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter(
            "sim.evolve_state.calls");
    static telemetry::Counter &c_action_steps =
        telemetry::MetricsRegistry::global().counter("sim.action.steps");
    const long duration = schedule.duration();
    countEvolve(c_calls, duration);
    Vector state = initial;
    Vector state_next, term;
    Workspace pow_ws;
    Matrix u_pow;
    walkSteps(schedule, duration, nullptr,
              Overloaded{
                  [&](const Matrix &step_u, long count) {
                      // Long runs (idle stretches, flat-tops): binary
                      // powering costs log2(count) matmuls instead of
                      // count matvecs.
                      if (count >= kPoweredRun) {
                          powmInto(u_pow, step_u,
                                   static_cast<std::uint64_t>(count),
                                   pow_ws);
                          applyInto(state_next, u_pow, state);
                          std::swap(state, state_next);
                          return;
                      }
                      for (long k = 0; k < count; ++k) {
                          applyInto(state_next, step_u, state);
                          std::swap(state, state_next);
                      }
                  },
                  [&](const HamiltonianStep &step, long count) {
                      applyTaylorAction(step.hamiltonian,
                                        kDtNs * static_cast<double>(count),
                                        state, term, state_next);
                      c_action_steps.add(static_cast<std::uint64_t>(count));
                  }});
    return state;
}

namespace {

/**
 * Schedule-independent decoherence tables for the operator-split
 * Lindblad step, hoisted out of the sample loop: per transmon a
 * dim x dim matrix of coherence decay factors, the n -> n-1 transfer
 * coefficients, and the lowered index. Applying them per sample is
 * then exp-free.
 */
struct DecoherenceModel
{
    std::size_t dim = 0;
    std::size_t numTransmons = 0;
    std::vector<std::vector<double>> decayFactor;
    std::vector<std::vector<double>> transferCoef;
    std::vector<std::vector<std::size_t>> lowerIndex;

    explicit DecoherenceModel(const TransmonModel &model)
        : dim(model.dim()), numTransmons(model.numTransmons())
    {
        // Per-transmon decay rates (per ns).
        std::vector<double> gamma1(numTransmons);
        std::vector<double> gamma_phi(numTransmons);
        for (std::size_t j = 0; j < numTransmons; ++j) {
            const auto &params = model.qubit(j);
            const double t1_ns = params.t1Us * 1000.0;
            const double t2_ns = params.t2Us * 1000.0;
            gamma1[j] = 1.0 / t1_ns;
            gamma_phi[j] = std::max(0.0, 1.0 / t2_ns - 0.5 / t1_ns);
        }

        // Decompose a full-space index into per-transmon levels.
        const std::size_t levels = model.levels();
        auto level_of = [&](std::size_t index, std::size_t j) {
            std::size_t divisor = 1;
            for (std::size_t k = numTransmons; k-- > j + 1;)
                divisor *= levels;
            return (index / divisor) % levels;
        };

        decayFactor.assign(numTransmons,
                           std::vector<double>(dim * dim));
        transferCoef.assign(numTransmons,
                            std::vector<double>(dim, 0.0));
        lowerIndex.assign(numTransmons,
                          std::vector<std::size_t>(dim, 0));
        for (std::size_t j = 0; j < numTransmons; ++j) {
            const double g1 = gamma1[j] * kDtNs;
            const double gp = gamma_phi[j] * kDtNs;
            for (std::size_t r = 0; r < dim; ++r) {
                const double nr = static_cast<double>(level_of(r, j));
                for (std::size_t c = 0; c < dim; ++c) {
                    const double nc =
                        static_cast<double>(level_of(c, j));
                    const double relax = g1 * (nr + nc) / 2.0;
                    const double diff = nr - nc;
                    const double dephase = gp * diff * diff;
                    decayFactor[j][r * dim + c] =
                        std::exp(-(relax + dephase));
                }
                const std::size_t n = level_of(r, j);
                if (n == 0)
                    continue;
                std::size_t divisor = 1;
                for (std::size_t k = numTransmons; k-- > j + 1;)
                    divisor *= levels;
                lowerIndex[j][r] = r - divisor;
                transferCoef[j][r] =
                    std::expm1(static_cast<double>(n) * g1);
            }
        }
    }

    /**
     * Operator-split decoherence for one dt on the dim x dim density
     * matrix: coherence decay followed by the trace-preserving
     * population transfer n -> n-1 (the diagonal decay removed
     * exactly exp(-n g1 dt) from rho(r,r)).
     */
    void apply(Matrix &rho_matrix) const
    {
        Complex *rho = rho_matrix.data().data();
        for (std::size_t j = 0; j < numTransmons; ++j) {
            const std::vector<double> &factor = decayFactor[j];
            for (std::size_t r = 0; r < dim; ++r)
                for (std::size_t c = 0; c < dim; ++c)
                    rho[r * dim + c] *= factor[r * dim + c];
            for (std::size_t r = 0; r < dim; ++r) {
                if (transferCoef[j][r] == 0.0)
                    continue;
                const double transfer =
                    transferCoef[j][r] * rho[r * dim + r].real();
                const std::size_t lo = lowerIndex[j][r];
                rho[lo * dim + lo] += Complex{transfer, 0.0};
            }
        }
    }
};

} // namespace

Matrix
PulseSimulator::evolveLindblad(const Schedule &schedule,
                               const Matrix &rho0) const
{
    qpulseRequire(rho0.rows() == model_.dim() &&
                      rho0.cols() == model_.dim(),
                  "evolveLindblad dimension mismatch");
    telemetry::TraceSpan span("sim.evolve_lindblad");
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter(
            "sim.evolve_lindblad.calls");
    const long duration = schedule.duration();
    countEvolve(c_calls, duration);
    const DecoherenceModel deco(model_);
    Matrix rho = rho0;
    Matrix u_rho, rho_next;
    // The decoherence split interleaves with every sample, so runs
    // reuse the propagator but still step sample-wise.
    walkSteps(schedule, duration, nullptr,
              [&](const Matrix &u, long count) {
                  for (long k = 0; k < count; ++k) {
                      gemmInto(u_rho, u, rho);
                      gemmAdjBInto(rho_next, u_rho, u);
                      std::swap(rho, rho_next);
                      deco.apply(rho);
                  }
              });
    return rho;
}

namespace {

/** Work counters for one batched evolve (thread-count invariant):
 *  calls, states packed into the panel, and AWG samples walked —
 *  sim.batch.states / sim.batch.calls is the realized mean batch
 *  width K. */
void
countBatch(long duration, std::size_t width)
{
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter("sim.batch.calls");
    static telemetry::Counter &c_states =
        telemetry::MetricsRegistry::global().counter(
            "sim.batch.states");
    static telemetry::Counter &c_samples =
        telemetry::MetricsRegistry::global().counter(
            "sim.batch.samples");
    c_calls.increment();
    c_states.add(static_cast<std::uint64_t>(width));
    c_samples.add(
        static_cast<std::uint64_t>(duration >= 0 ? duration : 0));
}

} // namespace

void
PulseSimulator::evolveStatesBatched(const Schedule &schedule,
                                    StatePanel &panel,
                                    Workspace &ws) const
{
    qpulseRequire(panel.dim() == model_.dim(),
                  "evolveStatesBatched dimension mismatch");
    const std::size_t width = panel.width();
    if (width == 0)
        return;
    telemetry::TraceSpan span("sim.evolve_batched");
    const long duration = schedule.duration();
    countBatch(duration, width);
    const std::size_t dim = model_.dim();
    // Scratch: state-panel slot 0 (ping-pong target) plus matrix slots
    // 0-2 (0-1 are powmInto's, 2 holds the binary power), all reusing
    // their capacity across calls.
    StatePanel &next = ws.statePanel(0, dim, width);
    Matrix &u_pow = ws.matrix(2, dim, dim);
    walkSteps(schedule, duration, nullptr,
              [&](const Matrix &step_u, long count) {
                  // Long runs (idle stretches, flat-tops): binary
                  // powering costs log2(count) matmuls instead of
                  // count panel gemms.
                  if (count >= kPoweredRun) {
                      powmInto(u_pow, step_u,
                               static_cast<std::uint64_t>(count), ws);
                      applyPanelInto(next, u_pow, panel);
                      std::swap(panel, next);
                      return;
                  }
                  for (long k = 0; k < count; ++k) {
                      applyPanelInto(next, step_u, panel);
                      std::swap(panel, next);
                  }
              });
}

void
PulseSimulator::evolveStatesBatched(const Schedule &schedule,
                                    StatePanel &panel) const
{
    evolveStatesBatched(schedule, panel, tlsWorkspace());
}

std::vector<double>
PulseSimulator::populations(const Vector &state) const
{
    std::vector<double> pops(state.size());
    for (std::size_t i = 0; i < state.size(); ++i)
        pops[i] = std::norm(state[i]);
    return pops;
}

} // namespace qpulse
