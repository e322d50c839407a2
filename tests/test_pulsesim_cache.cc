/**
 * @file
 * Correctness tests for the propagator-cache hot path: the memoized
 * evolution (run-length collapse + quantized-key LRU cache) must agree
 * with the exact per-sample reference to 1e-12 on schedules that
 * exercise frame changes, coupled CR tones and Lindblad decoherence;
 * phase and frequency frame changes on both paths must equal playing
 * hand-rotated samples; the LRU must stay correct under eviction
 * pressure; the shot loop must be deterministic for a fixed seed
 * with caching on or off; and the AVX2 dispatch
 * tier must agree with Scalar on whole evolutions, not only on one
 * kernel call at a time.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>

#include "common/constants.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "compile/compiler.h"
#include "linalg/simd.h"
#include "pulsesim/simulator.h"
#include "telemetry/metrics.h"

namespace qpulse {
namespace {

TransmonParams
testQubit()
{
    TransmonParams params;
    params.frequencyGhz = 5.0;
    params.anharmonicityGhz = -0.33;
    params.driveStrengthGhz = 0.25;
    return params;
}

/** The Gaussian amplitude rotating the test qubit by pi in 160 dt. */
constexpr double kPiAmp = 0.0941;

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

/** Coupled 5.0/5.1 GHz pair with the CR control channel mapped. */
PulseSimulator
crPairSimulator(double t1_us = 0.0, double t2_us = 0.0)
{
    TransmonParams control = testQubit();
    TransmonParams target = testQubit();
    target.frequencyGhz = 5.1;
    if (t1_us > 0.0) {
        control.t1Us = target.t1Us = t1_us;
        control.t2Us = target.t2Us = t2_us;
    }
    PulseSimulator sim(TransmonModel::pair(
        control, target, CouplingParams{0, 1, 0.0035}, 3));
    sim.setControlChannel(
        0, ControlChannelSpec{0, 2.0 * kPi * (5.0 - 5.1)});
    return sim;
}

/**
 * An echoed-CR schedule: flat-top CR tone, pi on the control with a
 * virtual-Z frame change, negated CR tone — the shape that exercises
 * run-length collapse (flat-tops), frame tracking and the coupled
 * time-dependent key all at once.
 */
Schedule
crEchoSchedule()
{
    Schedule schedule("cr-echo");
    schedule.play(controlChannel(0),
                  std::make_shared<GaussianSquareWaveform>(
                      600, 15.0, 60, Complex{0.14, 0.0}));
    schedule.shiftPhase(driveChannel(0), kPi / 3.0);
    schedule.play(driveChannel(0),
                  std::make_shared<GaussianWaveform>(
                      160, 40.0, Complex{kPiAmp, 0.0}));
    schedule.shiftPhase(controlChannel(0), kPi);
    schedule.play(controlChannel(0),
                  std::make_shared<GaussianSquareWaveform>(
                      600, 15.0, 60, Complex{0.14, 0.0}));
    return schedule;
}

TEST(PulseSimCache, UnitaryMatchesUncachedOnCrEcho)
{
    const PulseSimulator cached = crPairSimulator();
    PulseSimulator exact = crPairSimulator();
    exact.setCachingEnabled(false);
    const Schedule schedule = crEchoSchedule();

    const UnitaryResult a = cached.evolveUnitary(schedule);
    const UnitaryResult b = exact.evolveUnitary(schedule);
    EXPECT_LE(maxAbsDiff(a.unitary, b.unitary), 1e-12);
    EXPECT_EQ(a.duration, b.duration);
    ASSERT_EQ(a.framePhase.size(), b.framePhase.size());
    for (std::size_t q = 0; q < a.framePhase.size(); ++q)
        EXPECT_NEAR(a.framePhase[q], b.framePhase[q], 1e-12);
}

TEST(PulseSimCache, StateMatchesUncachedOnCrEcho)
{
    const PulseSimulator cached = crPairSimulator();
    PulseSimulator exact = crPairSimulator();
    exact.setCachingEnabled(false);
    const Schedule schedule = crEchoSchedule();

    Vector ground(9);
    ground[0] = Complex{1.0, 0.0};
    EXPECT_LE(maxAbsDiff(cached.evolveState(schedule, ground),
                         exact.evolveState(schedule, ground)),
              1e-12);
}

TEST(PulseSimCache, LindbladMatchesUncachedOnCrEcho)
{
    const PulseSimulator cached = crPairSimulator(50.0, 70.0);
    PulseSimulator exact = crPairSimulator(50.0, 70.0);
    exact.setCachingEnabled(false);
    const Schedule schedule = crEchoSchedule();

    Matrix rho0(9, 9);
    rho0(0, 0) = Complex{1.0, 0.0};
    EXPECT_LE(maxAbsDiff(cached.evolveLindblad(schedule, rho0),
                         exact.evolveLindblad(schedule, rho0)),
              1e-12);
}

/** The three CR-echo evolutions, all computed under one SIMD tier. */
struct CrEchoEvolution
{
    Matrix unitary;
    Vector state;
    Matrix rho; ///< evolveLindblad with T1/T2.
};

CrEchoEvolution
evolveCrEchoUnder(kernels::SimdMode mode, bool caching)
{
    const kernels::SimdMode saved = kernels::activeSimd();
    kernels::setActiveSimd(mode);
    PulseSimulator pure = crPairSimulator();
    PulseSimulator lossy = crPairSimulator(50.0, 70.0);
    pure.setCachingEnabled(caching);
    lossy.setCachingEnabled(caching);
    const Schedule schedule = crEchoSchedule();
    Vector ground(9);
    ground[0] = Complex{1.0, 0.0};
    Matrix rho0(9, 9);
    rho0(0, 0) = Complex{1.0, 0.0};
    CrEchoEvolution out{pure.evolveUnitary(schedule).unitary,
                        pure.evolveState(schedule, ground),
                        lossy.evolveLindblad(schedule, rho0)};
    kernels::setActiveSimd(saved);
    return out;
}

TEST(PulseSimCache, Avx2MatchesScalarEndToEndOnCrEcho)
{
    // The tier agreement docs/PERFORMANCE.md promises "on every matrix
    // this project produces", checked on whole evolutions (derivations,
    // binary powers, long products) on both the cached and the
    // reference path.
    if (!kernels::avx2Supported())
        GTEST_SKIP() << "no AVX2 on this host";
    for (const bool caching : {true, false}) {
        const CrEchoEvolution scalar =
            evolveCrEchoUnder(kernels::SimdMode::Scalar, caching);
        const CrEchoEvolution avx2 =
            evolveCrEchoUnder(kernels::SimdMode::Avx2, caching);
        EXPECT_LE(maxAbsDiff(scalar.unitary, avx2.unitary), 1e-12)
            << "unitary, caching=" << caching;
        EXPECT_LE(maxAbsDiff(scalar.state, avx2.state), 1e-12)
            << "state, caching=" << caching;
        EXPECT_LE(maxAbsDiff(scalar.rho, avx2.rho), 1e-12)
            << "lindblad, caching=" << caching;
    }
}

TEST(PulseSimCache, FlatTopCollapsesToFewUniquePropagators)
{
    // A constant pulse is one run: the per-call cache sees exactly one
    // unique single-sample Hamiltonian.
    PulseSimulator sim(TransmonModel::single(testQubit(), 3));
    auto cache = std::make_shared<PropagatorCache>();
    sim.setPropagatorCache(cache);

    Schedule schedule("const");
    schedule.play(driveChannel(0), std::make_shared<ConstantWaveform>(
                                       200, Complex{0.05, 0.0}));
    (void)sim.evolveUnitary(schedule);
    EXPECT_EQ(cache->stats().misses, 1u);
}

TEST(PulseSimCache, CrossCallCacheHitsOnRepeatedSchedule)
{
    PulseSimulator sim(TransmonModel::single(testQubit(), 3));
    auto cache = std::make_shared<PropagatorCache>();
    sim.setPropagatorCache(cache);

    Schedule schedule("x");
    schedule.play(driveChannel(0), std::make_shared<GaussianWaveform>(
                                       160, 40.0, Complex{kPiAmp, 0.0}));
    const UnitaryResult first = sim.evolveUnitary(schedule);
    const PropagatorCacheStats after_first = cache->stats();
    EXPECT_GT(after_first.misses, 0u);

    const UnitaryResult second = sim.evolveUnitary(schedule);
    const PropagatorCacheStats after_second = cache->stats();
    // Every propagator of the second pass is served from the cache.
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_GT(after_second.hits, after_first.hits);
    EXPECT_LE(maxAbsDiff(first.unitary, second.unitary), 0.0);
}

TEST(PulseSimCache, TinyCapacityEvictsButStaysCorrect)
{
    // Capacity 2 forces constant LRU churn on a 160-sample Gaussian
    // (~80 unique keys); the result must not change.
    PulseSimulator sim(TransmonModel::single(testQubit(), 3));
    PulseSimulator exact(TransmonModel::single(testQubit(), 3));
    exact.setCachingEnabled(false);
    auto tiny = std::make_shared<PropagatorCache>(2);
    sim.setPropagatorCache(tiny);

    Schedule schedule("x");
    schedule.play(driveChannel(0), std::make_shared<GaussianWaveform>(
                                       160, 40.0, Complex{kPiAmp, 0.0}));
    const Matrix a = sim.evolveUnitary(schedule).unitary;
    const Matrix b = exact.evolveUnitary(schedule).unitary;
    EXPECT_LE(maxAbsDiff(a, b), 1e-12);
    EXPECT_LE(tiny->size(), 2u);
    EXPECT_GT(tiny->stats().evictions, 0u);
}

/**
 * Runs `check` on a cached and a reference (uncached) simulator built
 * by `make`, so one assertion covers both evolution paths.
 */
template <typename Make, typename Check>
void
forBothPaths(Make make, Check check)
{
    const PulseSimulator cached = make();
    PulseSimulator reference = make();
    reference.setCachingEnabled(false);
    check(cached);
    check(reference);
}

/** `waveform`'s samples with sample k multiplied by rotation(k). */
template <typename Rotation>
std::shared_ptr<SampledWaveform>
rotatedSamples(const Waveform &waveform, Rotation rotation)
{
    std::vector<Complex> samples(
        static_cast<std::size_t>(waveform.duration()));
    for (long k = 0; k < waveform.duration(); ++k)
        samples[static_cast<std::size_t>(k)] =
            waveform.sample(k) * rotation(k);
    return std::make_shared<SampledWaveform>(std::move(samples),
                                             "rotated");
}

/**
 * The schedules through evolveState and evolveUnitary on `sim`: the
 * framed one must land within 1e-12 of the hand-rotated one, and the
 * plain, unrotated play must not (so the frame is not a no-op).
 */
void
expectFrameEquivalent(const PulseSimulator &sim, const Schedule &framed,
                      const Schedule &rotated, const Schedule &plain)
{
    Vector ground(sim.model().dim());
    ground[0] = Complex{1.0, 0.0};
    const Vector want = sim.evolveState(rotated, ground);
    EXPECT_LE(maxAbsDiff(sim.evolveState(framed, ground), want), 1e-12);
    EXPECT_GT(maxAbsDiff(sim.evolveState(plain, ground), want), 1e-3);

    const Matrix want_u = sim.evolveUnitary(rotated).unitary;
    EXPECT_LE(maxAbsDiff(sim.evolveUnitary(framed).unitary, want_u),
              1e-12);
    EXPECT_GT(maxAbsDiff(sim.evolveUnitary(plain).unitary, want_u),
              1e-3);
}

TEST(PulseSimCache, ShiftPhaseEqualsPlayingPhaseRotatedSamples)
{
    // A virtual-Z frame change multiplies every later sample on its
    // channel by exp(i phi); it must not touch other channels. The CR
    // pair covers a drive line and a detuned control line.
    const double phi = 0.7;
    const double psi = -1.3;
    const auto x = std::make_shared<GaussianWaveform>(
        160, 40.0, Complex{kPiAmp, 0.0});
    const auto cr = std::make_shared<GaussianSquareWaveform>(
        320, 15.0, 60, Complex{0.14, 0.0});
    const auto phase = [](double angle) {
        return [angle](long) { return std::exp(Complex{0.0, angle}); };
    };

    Schedule framed("framed");
    framed.shiftPhase(driveChannel(0), phi);
    framed.shiftPhase(controlChannel(0), psi);
    framed.play(driveChannel(0), x);
    framed.playAt(160, controlChannel(0), cr);

    Schedule rotated("rotated");
    rotated.play(driveChannel(0), rotatedSamples(*x, phase(phi)));
    rotated.playAt(160, controlChannel(0),
                   rotatedSamples(*cr, phase(psi)));

    Schedule plain("plain");
    plain.play(driveChannel(0), x);
    plain.playAt(160, controlChannel(0), cr);

    forBothPaths([] { return crPairSimulator(); },
                 [&](const PulseSimulator &sim) {
                     expectFrameEquivalent(sim, framed, rotated, plain);
                 });
}

TEST(PulseSimCache, ShiftFrequencyEqualsPlayingFrameRotatedSamples)
{
    // A frequency shift of f GHz at t_e advances the channel's frame
    // phase by -2 pi f dt (t - t_e) at every later sample t. Built by
    // hand from that definition, the rotated play must reproduce the
    // framed one; a phase shift after the frequency shift stacks on
    // top of the accumulated phase.
    const double f = 0.012;
    const long t_shift = 24;
    const long t_play = 64;
    const double phi = 0.4;
    const auto lead = std::make_shared<GaussianWaveform>(
        16, 4.0, Complex{0.02, 0.0});
    const auto x = std::make_shared<GaussianWaveform>(
        160, 40.0, Complex{kPiAmp, 0.0});
    const auto frame_phase = [&](long k) {
        const double t = static_cast<double>(t_play + k - t_shift);
        return std::exp(Complex{0.0, phi - 2.0 * kPi * f * kDtNs * t});
    };

    // The lead pulse precedes the shift and must stay unrotated.
    Schedule framed("framed");
    framed.play(driveChannel(0), lead);
    framed.delay(driveChannel(0), t_shift - 16);
    framed.shiftFrequency(driveChannel(0), f);
    framed.delay(driveChannel(0), 16);
    framed.shiftPhase(driveChannel(0), phi);
    framed.delay(driveChannel(0), t_play - t_shift - 16);
    framed.play(driveChannel(0), x);

    Schedule rotated("rotated");
    rotated.play(driveChannel(0), lead);
    rotated.playAt(t_play, driveChannel(0),
                   rotatedSamples(*x, frame_phase));

    Schedule plain("plain");
    plain.play(driveChannel(0), lead);
    plain.playAt(t_play, driveChannel(0), x);

    forBothPaths(
        [] { return PulseSimulator(TransmonModel::single(testQubit(), 3)); },
        [&](const PulseSimulator &sim) {
            expectFrameEquivalent(sim, framed, rotated, plain);
        });
}

TEST(PulseSimCache, BasisVersionKeysPreventStaleHitsAfterRecalibration)
{
    // Two simulators sharing one cache but built over different model
    // parameters (a recalibration) must never exchange propagators:
    // their keys differ in the basis-version word.
    auto cache = std::make_shared<PropagatorCache>();
    PulseSimulator before(TransmonModel::single(testQubit(), 3));
    TransmonParams recal = testQubit();
    recal.driveStrengthGhz = 0.26; // Calibration drifted.
    PulseSimulator after(TransmonModel::single(recal, 3));
    EXPECT_NE(before.basisVersion(), after.basisVersion());
    before.setPropagatorCache(cache);
    after.setPropagatorCache(cache);

    Schedule schedule("x");
    schedule.play(driveChannel(0), std::make_shared<GaussianWaveform>(
                                       160, 40.0, Complex{kPiAmp, 0.0}));
    const Matrix u_before = before.evolveUnitary(schedule).unitary;
    const std::uint64_t before_misses = cache->stats().misses;
    const Matrix u_after = after.evolveUnitary(schedule).unitary;
    // The recalibrated simulator found none of the first one's entries:
    // it misses exactly as often as the first run did on the same
    // schedule. (Hits within its own run are fine — the Gaussian is
    // time-symmetric, so mirrored samples share a key.)
    const std::uint64_t after_misses =
        cache->stats().misses - before_misses;
    EXPECT_EQ(after_misses, before_misses);
    EXPECT_GT(maxAbsDiff(u_before, u_after), 1e-6);

    // Identical models produce identical versions, so the sharing
    // still works where it is sound: the third run misses nothing.
    PulseSimulator same(TransmonModel::single(testQubit(), 3));
    EXPECT_EQ(same.basisVersion(), before.basisVersion());
    same.setPropagatorCache(cache);
    const Matrix u_same = same.evolveUnitary(schedule).unitary;
    EXPECT_EQ(cache->stats().misses, before_misses + after_misses);
    EXPECT_LE(maxAbsDiff(u_same, u_before), 0.0);
}

TEST(PulseSimCache, RunShotsDeterministicAcrossThreadsAndCaching)
{
    const BackendConfig config = almadenLineConfig(1);
    const auto backend = makeCalibratedBackend(config);
    Calibrator calibrator(config);
    const QubitCalibration cal = calibrator.calibrateQubit(0);
    const PulseSimulator sim(calibrator.qubitModel(0));
    // runShots keeps the simulator's caching setting: this one runs
    // every shot through the per-sample reference path.
    PulseSimulator reference(calibrator.qubitModel(0));
    reference.setCachingEnabled(false);

    Schedule schedule("x180");
    schedule.play(driveChannel(0), cal.x180Pulse());

    PulseShotOptions opts;
    opts.shots = 96;
    opts.seed = 0xFEED;
    const PulseShotResult cached = backend->runShots(sim, schedule, opts);
    const PulseShotResult repeated =
        backend->runShots(sim, schedule, opts);
    const PulseShotResult uncached =
        backend->runShots(reference, schedule, opts);

    long total = 0;
    for (const long count : cached.counts)
        total += count;
    EXPECT_EQ(total, opts.shots);
    EXPECT_EQ(cached.counts, repeated.counts);
    EXPECT_EQ(cached.counts, uncached.counts);
    EXPECT_GT(cached.cacheStats.hits, 0u);
    EXPECT_EQ(uncached.cacheStats.hits + uncached.cacheStats.misses,
              0u);

    // A different seed must give a different (but still complete) draw.
    opts.seed = 0xBEEF;
    const PulseShotResult reseeded =
        backend->runShots(sim, schedule, opts);
    total = 0;
    for (const long count : reseeded.counts)
        total += count;
    EXPECT_EQ(total, opts.shots);
}

TEST(PulseSimCache, RunShotsUsesTheSimulatorsAttachedCache)
{
    const BackendConfig config = almadenLineConfig(1);
    const auto backend = makeCalibratedBackend(config);
    Calibrator calibrator(config);
    const QubitCalibration cal = calibrator.calibrateQubit(0);
    PulseSimulator sim(calibrator.qubitModel(0));
    const auto cache = std::make_shared<PropagatorCache>();
    sim.setPropagatorCache(cache);

    Schedule schedule("x180");
    schedule.play(driveChannel(0), cal.x180Pulse());
    PulseShotOptions opts;
    opts.shots = 64;
    opts.seed = 0xCAFE;

    // With no opts.cache, runShots evolves through the attached cache,
    // so a second run derives nothing and the entries stay there.
    const PulseShotResult first = backend->runShots(sim, schedule, opts);
    const PulseShotResult second =
        backend->runShots(sim, schedule, opts);
    EXPECT_GT(first.cacheStats.misses, 0u);
    EXPECT_EQ(second.cacheStats.misses, 0u);
    EXPECT_EQ(cache->size(), first.cacheStats.misses);
    EXPECT_EQ(second.counts, first.counts);
}

TEST(PulseSimCache, ParallelForCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> visits(257);
    for (auto &visit : visits)
        visit.store(0);
    parallelFor(visits.size(), [&](std::size_t k) {
        visits[k].fetch_add(1);
    });
    for (const auto &visit : visits)
        EXPECT_EQ(visit.load(), 1);
}

TEST(PulseSimCache, DeriveSeedSeparatesStreams)
{
    // Derived per-shot seeds must differ from each other and from the
    // base seed (splitmix64 scrambling).
    const std::uint64_t base = 42;
    EXPECT_NE(Rng::deriveSeed(base, 0), base);
    EXPECT_NE(Rng::deriveSeed(base, 0), Rng::deriveSeed(base, 1));
    EXPECT_NE(Rng::deriveSeed(base, 1), Rng::deriveSeed(base + 1, 1));
    // And must be reproducible.
    EXPECT_EQ(Rng::deriveSeed(base, 7), Rng::deriveSeed(base, 7));
}

} // namespace
} // namespace qpulse
