/**
 * @file
 * Differential checks of the simulator on generated schedules: on
 * every seeded schedule of tests/schedule_gen.h the cached evolution
 * (run-length steps served by the propagator cache) must agree with
 * the per-sample exact reference (setCachingEnabled(false)) for
 * evolveUnitary, evolveState, evolveLindblad and evolveStatesBatched,
 * and both must keep the physics invariants: a unitary U, a Hermitian
 * unit-trace density matrix, and evolveState(psi) == U psi.
 *
 * The 1e-12 agreement holds because every generated drive is either
 * bit-identical to the sample that filled its cache key or differs
 * from it by far less than one kDriveQuantum. A slow ramp that puts
 * many distinct samples into each key is checked separately, against
 * the collision bound of docs/PERFORMANCE.md section 2.
 *
 * The interrupt tests pin the evolve loops' cancellation contract on
 * both step sources.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>

#include "common/cancellation.h"
#include "common/constants.h"
#include "common/status.h"
#include "linalg/state_panel.h"
#include "pulsesim/simulator.h"
#include "schedule_gen.h"
#include "telemetry/metrics.h"

namespace qpulse {
namespace {

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    double max_diff = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            max_diff = std::max(max_diff, std::abs(a(r, c) - b(r, c)));
    return max_diff;
}

double
maxAbsDiff(const Vector &a, const Vector &b)
{
    double max_diff = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k)
        max_diff = std::max(max_diff, std::abs(a[k] - b[k]));
    return max_diff;
}

/** Allowed round-off growth of |U^dag U - I| and |tr rho - 1| per
 *  AWG sample (observed <= 6e-16 per sample). */
constexpr double kInvariantPerSample = 2e-15;

TransmonParams
testQubit(double frequency_ghz)
{
    TransmonParams params;
    params.frequencyGhz = frequency_ghz;
    params.anharmonicityGhz = -0.33;
    params.driveStrengthGhz = 0.25;
    params.t1Us = 50.0;
    params.t2Us = 70.0;
    return params;
}

/**
 * One d = 3 transmon. u0 drives the same transmon 50 MHz off
 * resonance, so its plays overlap d0's on one summed drive.
 */
PulseSimulator
singleTransmonSimulator()
{
    PulseSimulator sim(TransmonModel::single(testQubit(5.0), 3));
    sim.setControlChannel(0, ControlChannelSpec{0, 2.0 * kPi * 0.05});
    return sim;
}

/** Coupled 5.0/5.1 GHz pair (dim 9) with the CR line on u0. */
PulseSimulator
crPairSimulator()
{
    PulseSimulator sim(TransmonModel::pair(
        testQubit(5.0), testQubit(5.1), CouplingParams{0, 1, 0.0035},
        3));
    sim.setControlChannel(
        0, ControlChannelSpec{0, 2.0 * kPi * (5.0 - 5.1)});
    return sim;
}

testgen::ScheduleShape
singleTransmonShape()
{
    testgen::ScheduleShape shape;
    shape.channels = {driveChannel(0), controlChannel(0)};
    shape.minDuration = 400;
    shape.maxDuration = 2400;
    return shape;
}

testgen::ScheduleShape
crPairShape()
{
    testgen::ScheduleShape shape;
    shape.channels = {driveChannel(0), driveChannel(1),
                      controlChannel(0)};
    shape.minDuration = 400;
    shape.maxDuration = 1400;
    shape.maxAmp = 0.15;
    return shape;
}

/** A normalized superposition of every basis state. */
Vector
spreadState(std::size_t dim)
{
    Vector psi(dim);
    for (std::size_t i = 0; i < dim; ++i)
        psi[i] = std::polar(1.0 / std::sqrt(static_cast<double>(dim)),
                            0.7 * static_cast<double>(i));
    return psi;
}

/** Every evolve entry point of one simulator on one schedule. */
struct Evolution
{
    Matrix unitary;
    Vector ground;               ///< evolveState(|0>).
    Vector spread;               ///< evolveState(spreadState).
    std::vector<Vector> batched; ///< evolveStatesBatched of both.
    Matrix rho;                  ///< evolveLindblad(|0><0|).
};

Evolution
evolveAll(const PulseSimulator &sim, const Schedule &schedule)
{
    const std::size_t dim = sim.model().dim();
    Vector ground(dim);
    ground[0] = Complex{1.0, 0.0};
    const Vector spread = spreadState(dim);
    Matrix rho0(dim, dim);
    rho0(0, 0) = Complex{1.0, 0.0};

    Evolution out;
    out.unitary = sim.evolveUnitary(schedule).unitary;
    out.ground = sim.evolveState(schedule, ground);
    out.spread = sim.evolveState(schedule, spread);
    StatePanel panel(dim, 2);
    panel.setColumn(0, ground);
    panel.setColumn(1, spread);
    sim.evolveStatesBatched(schedule, panel);
    out.batched.resize(2);
    panel.getColumn(0, out.batched[0]);
    panel.getColumn(1, out.batched[1]);
    out.rho = sim.evolveLindblad(schedule, rho0);
    return out;
}

/** The physics invariants and self-consistency of one evolution. */
void
expectConsistent(const Evolution &e, const PulseSimulator &sim,
                 long duration, const char *path)
{
    SCOPED_TRACE(path);
    const std::size_t dim = sim.model().dim();
    const double budget =
        kInvariantPerSample * static_cast<double>(duration);

    EXPECT_LE(maxAbsDiff(e.unitary.adjoint() * e.unitary,
                         Matrix::identity(dim)),
              budget)
        << "U is not unitary";
    Vector ground(dim);
    ground[0] = Complex{1.0, 0.0};
    EXPECT_LE(maxAbsDiff(e.ground, e.unitary.apply(ground)), 1e-12);
    EXPECT_LE(maxAbsDiff(e.spread, e.unitary.apply(spreadState(dim))),
              1e-12);
    EXPECT_LE(maxAbsDiff(e.batched[0], e.ground), 1e-12);
    EXPECT_LE(maxAbsDiff(e.batched[1], e.spread), 1e-12);

    EXPECT_LE(maxAbsDiff(e.rho, e.rho.adjoint()), 1e-12)
        << "rho is not Hermitian";
    EXPECT_LE(std::abs(e.rho.trace() - Complex{1.0, 0.0}), budget);
}

/**
 * Cached and reference evolutions of one schedule on one model;
 * returns the reference's.
 */
Evolution
expectCachedMatchesReference(const PulseSimulator &cached,
                             const PulseSimulator &reference,
                             const Schedule &schedule)
{
    SCOPED_TRACE(schedule.name());
    const Evolution fast = evolveAll(cached, schedule);
    Evolution exact = evolveAll(reference, schedule);
    EXPECT_LE(maxAbsDiff(fast.unitary, exact.unitary), 1e-12);
    EXPECT_LE(maxAbsDiff(fast.ground, exact.ground), 1e-12);
    EXPECT_LE(maxAbsDiff(fast.spread, exact.spread), 1e-12);
    EXPECT_LE(maxAbsDiff(fast.rho, exact.rho), 1e-12);
    expectConsistent(fast, cached, schedule.duration(), "cached");
    expectConsistent(exact, reference, schedule.duration(), "reference");
    return exact;
}

/**
 * evolveState of a simulator with no cache attached against the
 * reference's states, and the norm it must keep.
 */
void
expectStatesMatchReference(const PulseSimulator &uncached,
                           const Evolution &exact, const Schedule &schedule)
{
    SCOPED_TRACE(schedule.name());
    const std::size_t dim = uncached.model().dim();
    Vector ground(dim);
    ground[0] = Complex{1.0, 0.0};
    const Vector got_ground = uncached.evolveState(schedule, ground);
    const Vector got_spread =
        uncached.evolveState(schedule, spreadState(dim));
    EXPECT_LE(maxAbsDiff(got_ground, exact.ground), 1e-12);
    EXPECT_LE(maxAbsDiff(got_spread, exact.spread), 1e-12);
    const double budget =
        kInvariantPerSample * static_cast<double>(schedule.duration());
    EXPECT_LE(std::abs(got_ground.norm() - 1.0), budget);
    EXPECT_LE(std::abs(got_spread.norm() - 1.0), budget);
}

TEST(PulseSimReference, GeneratedSingleTransmonSchedules)
{
    // No attached cache: every call memoizes in its own local cache.
    const PulseSimulator cached = singleTransmonSimulator();
    PulseSimulator reference = singleTransmonSimulator();
    reference.setCachingEnabled(false);
    const testgen::ScheduleShape shape = singleTransmonShape();
    for (std::uint64_t seed = 1; seed <= 32; ++seed)
        expectCachedMatchesReference(
            cached, reference, testgen::generateSchedule(seed, shape));
}

TEST(PulseSimReference, GeneratedCrPairSchedules)
{
    // An attached cache: the five cached evolutions of a schedule
    // derive each 9x9 propagator once.
    PulseSimulator cached = crPairSimulator();
    cached.setPropagatorCache(std::make_shared<PropagatorCache>());
    // No cache attached: evolveState applies every sample of the
    // coupled pair (each its own step) as an action on the state.
    const PulseSimulator uncached = crPairSimulator();
    PulseSimulator reference = crPairSimulator();
    reference.setCachingEnabled(false);
    const testgen::ScheduleShape shape = crPairShape();
    for (std::uint64_t seed = 101; seed <= 108; ++seed) {
        const Schedule schedule = testgen::generateSchedule(seed, shape);
        const Evolution exact =
            expectCachedMatchesReference(cached, reference, schedule);
        expectStatesMatchReference(uncached, exact, schedule);
    }
}

TEST(PulseSimReference, UncachedStateEvolutionDerivesNoPropagator)
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    const telemetry::Counter &derivations =
        registry.counter("sim.expm.calls");
    const telemetry::Counter &action_steps =
        registry.counter("sim.action.steps");
    const Schedule schedule = testgen::generateSchedule(101, crPairShape());
    const auto samples = static_cast<std::uint64_t>(schedule.duration());
    Vector ground(9);
    ground[0] = Complex{1.0, 0.0};

    // No cache attached: every sample is applied as an action.
    const PulseSimulator uncached = crPairSimulator();
    std::uint64_t derived0 = derivations.value();
    std::uint64_t act0 = action_steps.value();
    (void)uncached.evolveState(schedule, ground);
    EXPECT_EQ(derivations.value() - derived0, 0u);
    EXPECT_EQ(action_steps.value() - act0, samples);

    // An attached cache derives one propagator per distinct key.
    PulseSimulator attached = crPairSimulator();
    const auto cache = std::make_shared<PropagatorCache>();
    attached.setPropagatorCache(cache);
    derived0 = derivations.value();
    act0 = action_steps.value();
    (void)attached.evolveState(schedule, ground);
    const std::uint64_t distinct = cache->size();
    EXPECT_GT(distinct, 0u);
    EXPECT_EQ(cache->stats().misses, distinct);
    EXPECT_EQ(derivations.value() - derived0, distinct);
    EXPECT_EQ(action_steps.value() - act0, 0u);

    // evolveUnitary without a cache still derives them, in a cache
    // local to the call.
    derived0 = derivations.value();
    act0 = action_steps.value();
    (void)uncached.evolveUnitary(schedule);
    EXPECT_EQ(derivations.value() - derived0, distinct);
    EXPECT_EQ(action_steps.value() - act0, 0u);
}

TEST(PulseSimReference, SlowRampStaysWithinTheCollisionBound)
{
    // A real ramp rising far less than one quantum per sample puts
    // several distinct samples into each quantized key. The cached
    // evolution applies the propagator of the first sample of each key
    // to all of them, so its error grows with the number of collided
    // samples times the per-step bound (docs/PERFORMANCE.md section 2):
    // |dd| < sqrt(2) q per drive, ||dH|| <= 2 ||raising|| |dd| with
    // ||raising|| = (Omega / 2) sqrt(levels - 1), and
    // ||dU|| <= ||dH|| dt per step.
    const TransmonParams params = testQubit(5.0);
    PulseSimulator cached(TransmonModel::single(params, 3));
    PulseSimulator reference(TransmonModel::single(params, 3));
    reference.setCachingEnabled(false);
    const double omega = 2.0 * kPi * params.driveStrengthGhz;
    const double raising_norm = (omega / 2.0) * std::sqrt(3.0 - 1.0);
    const double per_step =
        2.0 * raising_norm * std::sqrt(2.0) * kDriveQuantum * kDtNs;

    for (const double slope : {1e-14, 2e-14, 3e-14, 4e-14}) {
        SCOPED_TRACE(slope);
        std::vector<Complex> samples(2000);
        std::map<std::int64_t, double> first_in_key;
        long collided = 0;
        for (std::size_t k = 0; k < samples.size(); ++k) {
            const double x = 0.05 + slope * static_cast<double>(k);
            samples[k] = Complex{x, 0.0};
            const auto key = static_cast<std::int64_t>(
                std::llround(x / kDriveQuantum));
            const auto [it, fresh] = first_in_key.emplace(key, x);
            if (!fresh && it->second != x)
                ++collided;
        }
        Schedule ramp("ramp");
        ramp.play(driveChannel(0), std::make_shared<SampledWaveform>(
                                       std::move(samples), "ramp"));
        ASSERT_GT(collided, 1000);
        EXPECT_LE(maxAbsDiff(cached.evolveUnitary(ramp).unitary,
                             reference.evolveUnitary(ramp).unitary),
                  static_cast<double>(collided) * per_step);
    }
}

/** The code of the StatusError `fn` throws (Ok if it returns). */
template <typename Fn>
ErrorCode
thrownCode(Fn fn)
{
    try {
        fn();
    } catch (const StatusError &error) {
        return error.code();
    }
    return ErrorCode::Ok;
}

/**
 * With `token` and `deadline` attached, all four evolve entry points
 * must throw StatusError(`want`) on both step sources.
 */
void
expectEveryEntryPointThrows(const CancelToken &token,
                            const Deadline &deadline, ErrorCode want)
{
    const Schedule schedule =
        testgen::generateSchedule(3, singleTransmonShape());
    for (const bool caching : {true, false}) {
        SCOPED_TRACE(caching ? "cached" : "reference");
        PulseSimulator sim = singleTransmonSimulator();
        sim.setCachingEnabled(caching);
        sim.setInterrupt(token, deadline);
        const std::size_t dim = sim.model().dim();
        Vector ground(dim);
        ground[0] = Complex{1.0, 0.0};
        Matrix rho0(dim, dim);
        rho0(0, 0) = Complex{1.0, 0.0};
        StatePanel panel(dim, 2);
        panel.fillColumns(ground);
        EXPECT_EQ(
            thrownCode([&] { (void)sim.evolveUnitary(schedule); }), want);
        EXPECT_EQ(
            thrownCode([&] { (void)sim.evolveState(schedule, ground); }),
            want);
        EXPECT_EQ(
            thrownCode([&] { (void)sim.evolveLindblad(schedule, rho0); }),
            want);
        EXPECT_EQ(
            thrownCode([&] { sim.evolveStatesBatched(schedule, panel); }),
            want);
    }
}

TEST(PulseSimInterrupt, PreCancelledTokenStopsEveryEntryPoint)
{
    CancelToken token = CancelToken::make();
    token.cancel();
    expectEveryEntryPointThrows(token, Deadline::none(),
                                ErrorCode::Cancelled);
}

TEST(PulseSimInterrupt, ExpiredWallDeadlineStopsEveryEntryPoint)
{
    expectEveryEntryPointThrows(CancelToken(), Deadline::afterMs(0.0),
                                ErrorCode::DeadlineExceeded);
}

TEST(PulseSimInterrupt, VirtualBudgetIsDroppedAndEvolutionCompletes)
{
    // An exhausted virtual budget would fire at the first poll; the
    // simulator ignores virtual deadlines (they are charged at shot
    // admission), so every entry point runs to the uninterrupted
    // result while the live token is polled.
    const Schedule schedule =
        testgen::generateSchedule(3, singleTransmonShape());
    for (const bool caching : {true, false}) {
        SCOPED_TRACE(caching ? "cached" : "reference");
        PulseSimulator plain = singleTransmonSimulator();
        plain.setCachingEnabled(caching);
        PulseSimulator polled = singleTransmonSimulator();
        polled.setCachingEnabled(caching);
        polled.setInterrupt(CancelToken::make(),
                            Deadline::virtualBudget(0));
        const Evolution want = evolveAll(plain, schedule);
        const Evolution got = evolveAll(polled, schedule);
        EXPECT_LE(maxAbsDiff(got.unitary, want.unitary), 0.0);
        EXPECT_LE(maxAbsDiff(got.spread, want.spread), 0.0);
        EXPECT_LE(maxAbsDiff(got.batched[1], want.batched[1]), 0.0);
        EXPECT_LE(maxAbsDiff(got.rho, want.rho), 0.0);
    }
}

} // namespace
} // namespace qpulse
