/**
 * @file
 * Batched state-evolution tests (ctest label: batch): the SoA panel
 * primitives, evolveStatesBatched agreement with the looped per-state
 * path to 1e-12 across batch widths and SIMD dispatch tiers,
 * panel-width-aware workspace reuse (via a counting global
 * allocator), and the runShots contract — counts equal to a per-shot
 * reference, exactly one schedule validation per run, and partial /
 * cancellation semantics under virtual time.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>

#include "common/cancellation.h"
#include "common/constants.h"
#include "common/rng.h"
#include "compile/compiler.h"
#include "device/calibration.h"
#include "device/pulse_backend.h"
#include "linalg/simd.h"
#include "linalg/state_panel.h"
#include "linalg/workspace.h"
#include "pulsesim/simulator.h"
#include "telemetry/metrics.h"

// ---------------------------------------------------------------------
// Counting allocator: every heap allocation in this binary bumps the
// counter, so tests can assert a code region is heap-silent.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The replaced operator new above allocates with std::malloc, so
// releasing with std::free is correct; GCC cannot see the pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace qpulse {
namespace {

std::uint64_t
allocCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

/** Restores the dispatch mode active at construction. */
class ScopedSimdMode
{
  public:
    explicit ScopedSimdMode(kernels::SimdMode mode)
        : saved_(kernels::activeSimd())
    {
        kernels::setActiveSimd(mode);
    }
    ~ScopedSimdMode() { kernels::setActiveSimd(saved_); }

  private:
    kernels::SimdMode saved_;
};

/** RAII guard restoring an env var on scope exit. */
struct EnvGuard
{
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr)
            old_ = old;
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~EnvGuard()
    {
        if (old_.has_value())
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }
    const char *name_;
    std::optional<std::string> old_;
};

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
maxAbsDiff(const Vector &a, const Vector &b)
{
    double worst = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k)
        worst = std::max(worst, std::abs(a[k] - b[k]));
    return worst;
}

/** A normalized pseudo-random state vector. */
Vector
randomState(std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    Vector psi(dim);
    double norm2 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
        psi[i] = Complex{rng.uniform(-1.0, 1.0),
                         rng.uniform(-1.0, 1.0)};
        norm2 += std::norm(psi[i]);
    }
    const double inv = 1.0 / std::sqrt(norm2);
    for (std::size_t i = 0; i < dim; ++i)
        psi[i] *= inv;
    return psi;
}

/**
 * A single-transmon schedule whose flat-top collapses into repeated
 * identical samples (the powm path of the cached evolution) and whose
 * Gaussian edges stay per-sample (the generic cached path).
 */
Schedule
transmonSchedule()
{
    Schedule schedule("batch-x");
    schedule.play(driveChannel(0),
                  std::make_shared<GaussianSquareWaveform>(
                      240, 15.0, 40, Complex{0.08, 0.0}));
    schedule.shiftPhase(driveChannel(0), kPi / 5.0);
    schedule.play(driveChannel(0),
                  std::make_shared<GaussianWaveform>(
                      160, 40.0, Complex{kPiAmp, 0.0}));
    return schedule;
}

/**
 * Coupled 9-level pair (dim 81) with the CR control channel mapped
 * and a caller-owned propagator cache attached, so the 81x81
 * eigensolves are paid once across the whole width/mode sweep.
 */
PulseSimulator
qutritPairSimulator()
{
    TransmonParams control = testQubit();
    TransmonParams target = testQubit();
    target.frequencyGhz = 5.1;
    PulseSimulator sim(TransmonModel::pair(
        control, target, CouplingParams{0, 1, 0.0035}, 9));
    sim.setControlChannel(
        0, ControlChannelSpec{0, 2.0 * kPi * (5.0 - 5.1)});
    sim.setPropagatorCache(std::make_shared<PropagatorCache>());
    return sim;
}

/** A short CR-tone schedule for the 81-dim pair. */
Schedule
pairSchedule()
{
    Schedule schedule("batch-cr");
    schedule.play(controlChannel(0),
                  std::make_shared<GaussianSquareWaveform>(
                      120, 15.0, 40, Complex{0.14, 0.0}));
    schedule.play(driveChannel(0),
                  std::make_shared<GaussianWaveform>(
                      64, 16.0, Complex{kPiAmp, 0.0}));
    return schedule;
}

/**
 * Assert every column of the batched evolution matches the looped
 * per-state evolveState to 1e-12 for the given widths.
 */
void
expectBatchedMatchesLooped(const PulseSimulator &sim,
                           const Schedule &schedule,
                           std::initializer_list<std::size_t> widths,
                           std::uint64_t seed_base)
{
    const std::size_t dim = sim.model().dim();
    for (const std::size_t width : widths) {
        StatePanel panel(dim, width);
        std::vector<Vector> initial(width);
        for (std::size_t c = 0; c < width; ++c) {
            initial[c] = randomState(dim, seed_base + 17 * c);
            panel.setColumn(c, initial[c]);
        }
        sim.evolveStatesBatched(schedule, panel);
        Vector column;
        for (std::size_t c = 0; c < width; ++c) {
            const Vector looped =
                sim.evolveState(schedule, initial[c]);
            panel.getColumn(c, column);
            EXPECT_LE(maxAbsDiff(looped, column), 1e-12)
                << "batched/looped divergence at width=" << width
                << " column=" << c << " mode="
                << kernels::simdModeName(kernels::activeSimd());
        }
    }
}

// ---------------------------------------------------------------------
// Panel primitives.
// ---------------------------------------------------------------------

TEST(BatchPanels, StatePanelColumnRoundTrip)
{
    StatePanel panel(5, 3);
    panel.setZero();
    const Vector a = randomState(5, 11);
    const Vector b = randomState(5, 12);
    panel.setColumn(0, a);
    panel.setColumn(2, b);
    Vector out;
    panel.getColumn(0, out);
    EXPECT_LE(maxAbsDiff(a, out), 0.0);
    panel.getColumn(2, out);
    EXPECT_LE(maxAbsDiff(b, out), 0.0);
    panel.getColumn(1, out);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(out[i], (Complex{0.0, 0.0}));

    panel.fillColumns(a);
    for (std::size_t c = 0; c < 3; ++c) {
        panel.getColumn(c, out);
        EXPECT_LE(maxAbsDiff(a, out), 0.0);
    }
}

TEST(BatchPanels, ApplyPanelMatchesPerColumnApplyAndCounts)
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    const std::uint64_t calls_before =
        registry.counter("linalg.gemm.batched_calls").value();

    const std::size_t dim = 9, width = 7;
    Rng rng(31);
    Matrix u(dim, dim);
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            u(r, c) = Complex{rng.uniform(-1.0, 1.0),
                              rng.uniform(-1.0, 1.0)};
    StatePanel in(dim, width);
    for (std::size_t c = 0; c < width; ++c)
        in.setColumn(c, randomState(dim, 40 + c));

    StatePanel out;
    applyPanelInto(out, u, in);

    Vector x, got;
    for (std::size_t c = 0; c < width; ++c) {
        in.getColumn(c, x);
        Vector want;
        applyInto(want, u, x);
        out.getColumn(c, got);
        EXPECT_LE(maxAbsDiff(want, got), 1e-12) << "column " << c;
    }
    EXPECT_GT(registry.counter("linalg.gemm.batched_calls").value(),
              calls_before);
    EXPECT_GT(registry.counter("linalg.gemm.batched_madds").value(),
              0u);
}

// ---------------------------------------------------------------------
// Batched-vs-looped agreement across widths and dispatch tiers.
// ---------------------------------------------------------------------

TEST(BatchEvolve, MatchesLoopedAcrossWidthsAndModes)
{
    const Schedule schedule = transmonSchedule();
    const kernels::SimdMode tiers[] = {kernels::SimdMode::Scalar,
                                       kernels::SimdMode::Avx2};
    for (const kernels::SimdMode tier : tiers) {
        ScopedSimdMode mode(tier);
        if (kernels::activeSimd() != tier)
            continue; // tier not supported on this host

        // Cached path (run-length collapse + propagator memoization).
        const PulseSimulator cached(
            TransmonModel::single(testQubit(), 3));
        expectBatchedMatchesLooped(cached, schedule, {1, 3, 8, 64},
                                   1000);

        // Uncached per-sample path.
        PulseSimulator exact(TransmonModel::single(testQubit(), 3));
        exact.setCachingEnabled(false);
        expectBatchedMatchesLooped(exact, schedule, {1, 3, 8, 64},
                                   2000);
    }
}

TEST(BatchEvolve, MatchesLoopedOnQutritPair81)
{
    // dim 81: the qutrit pair, the largest Hilbert space the project
    // simulates. One simulator (shared propagator cache) keeps the
    // eigensolves amortized across the width sweep; Scalar plus the
    // host's best tier cover both ends of the dispatch range.
    const Schedule schedule = pairSchedule();
    const PulseSimulator sim = qutritPairSimulator();
    expectBatchedMatchesLooped(sim, schedule, {1, 3, 8, 64}, 3000);
    {
        // Scalar dispatch over the same (already warm) propagator
        // cache: the batched panel products must agree with the
        // looped path on the pure-scalar tier too. The full batch
        // label additionally runs under QPULSE_SIMD=0 in CI, which
        // covers the scalar eigensolve path end to end.
        ScopedSimdMode mode(kernels::SimdMode::Scalar);
        expectBatchedMatchesLooped(sim, schedule, {3, 64}, 4000);
    }
}

TEST(BatchEvolve, BatchCountersAccumulate)
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    const std::uint64_t calls_before =
        registry.counter("sim.batch.calls").value();
    const std::uint64_t states_before =
        registry.counter("sim.batch.states").value();
    const std::uint64_t samples_before =
        registry.counter("sim.batch.samples").value();

    const PulseSimulator sim(TransmonModel::single(testQubit(), 3));
    const Schedule schedule = transmonSchedule();
    StatePanel panel(sim.model().dim(), 6);
    panel.fillColumns(randomState(sim.model().dim(), 61));
    sim.evolveStatesBatched(schedule, panel);

    EXPECT_EQ(registry.counter("sim.batch.calls").value(),
              calls_before + 1);
    EXPECT_EQ(registry.counter("sim.batch.states").value(),
              states_before + 6);
    EXPECT_EQ(registry.counter("sim.batch.samples").value(),
              samples_before +
                  static_cast<std::uint64_t>(schedule.duration()));
}

// ---------------------------------------------------------------------
// Workspace reuse: panel-width-aware slots, heap-silent steady state.
// ---------------------------------------------------------------------

TEST(BatchWorkspace, PanelSlotsReuseCapacity)
{
    Workspace ws;
    StatePanel &sp = ws.statePanel(0, 81, 64);
    const std::uint64_t before = allocCount();
    // Same slot at the same or smaller shape: no allocation, same
    // object.
    StatePanel &sp2 = ws.statePanel(0, 81, 64);
    StatePanel &sp3 = ws.statePanel(0, 81, 8);
    StatePanel &sp4 = ws.statePanel(0, 3, 64);
    EXPECT_EQ(&sp, &sp2);
    EXPECT_EQ(&sp, &sp3);
    EXPECT_EQ(&sp, &sp4);
    EXPECT_EQ(allocCount(), before);
}

// ---------------------------------------------------------------------
// runShots: one sequential loop of shot panels.
// ---------------------------------------------------------------------

struct ShotRig
{
    BackendConfig config = almadenLineConfig(1);
    std::shared_ptr<const PulseBackend> backend =
        makeCalibratedBackend(config);
    PulseSimulator sim;
    Schedule schedule{"x180"};

    ShotRig() : sim(Calibrator(config).qubitModel(0))
    {
        Calibrator calibrator(config);
        const QubitCalibration cal = calibrator.calibrateQubit(0);
        schedule.play(driveChannel(0), cal.x180Pulse());
    }
};

/**
 * Per-shot reference for runShots' counts over shots [0, shots): evolve
 * |0> through the schedule once per shot with evolveState, then draw
 * shot s from Rng(deriveSeed(seed, s)).
 */
std::vector<long>
perShotCounts(const PulseSimulator &sim, const Schedule &schedule,
              long shots, std::uint64_t seed)
{
    PulseSimulator reference = sim;
    reference.setPropagatorCache(std::make_shared<PropagatorCache>());
    const std::size_t dim = reference.model().dim();
    Vector ground(dim);
    ground[0] = Complex{1.0, 0.0};
    std::vector<long> counts(dim, 0);
    for (long shot = 0; shot < shots; ++shot) {
        const Vector out = reference.evolveState(schedule, ground);
        Rng rng(Rng::deriveSeed(seed, static_cast<std::uint64_t>(shot)));
        ++counts[rng.discrete(reference.populations(out))];
    }
    return counts;
}

TEST(BatchShots, CountsInvariantAcrossWidthsAndThreads)
{
    // Every shot's draw is the per-shot reference's, whatever the
    // panel layout: one shot; 96 shots in batches of 1 and 2; and 4160
    // shots, whose 65-shot batches each run a 64-wide and a 1-wide
    // panel.
    const ShotRig rig;
    for (const long shots : {1L, 96L, 4160L}) {
        PulseShotOptions opts;
        opts.shots = shots;
        opts.seed = 0xFEED;
        const PulseShotResult result =
            rig.backend->runShots(rig.sim, rig.schedule, opts);
        EXPECT_FALSE(result.partial) << "shots=" << shots;
        EXPECT_EQ(result.shotsCompleted, shots);
        EXPECT_EQ(result.counts,
                  perShotCounts(rig.sim, rig.schedule, shots, opts.seed))
            << "shots=" << shots;
    }
}

TEST(BatchShots, ValidatesScheduleExactlyOncePerRun)
{
    const ShotRig rig;
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    telemetry::Counter &c_calls =
        registry.counter("device.validation.calls");
    telemetry::Counter &c_rejects =
        registry.counter("device.validation.rejects");

    PulseShotOptions opts;
    opts.shots = 16;
    opts.seed = 0xFEED;
    const std::uint64_t calls_before = c_calls.value();
    const std::uint64_t rejects_before = c_rejects.value();
    rig.backend->runShots(rig.sim, rig.schedule, opts);
    EXPECT_EQ(c_calls.value(), calls_before + 1);
    EXPECT_EQ(c_rejects.value(), rejects_before);
}

TEST(BatchShots, VirtualTimePartialInvariantAcrossWidthsAndThreads)
{
    EnvGuard env("QPULSE_VIRTUAL_TIME", "1");
    const ShotRig rig;
    const long shots = 96;
    const std::uint64_t duration =
        static_cast<std::uint64_t>(rig.schedule.duration());
    // Budget for half the shots, in simulated samples.
    const std::uint64_t budget =
        duration * static_cast<std::uint64_t>(shots) / 2;

    const auto run = [&] {
        PulseShotOptions opts;
        opts.shots = shots;
        opts.seed = 0xFEED;
        opts.deadline = Deadline::afterMsOrBudget(50.0, budget);
        return rig.backend->runShots(rig.sim, rig.schedule, opts);
    };

    const PulseShotResult base = run();
    EXPECT_TRUE(base.partial);
    EXPECT_EQ(base.interruption.code(), ErrorCode::DeadlineExceeded);
    // Batches of 1 and 2 shots are charged in shot order, each just
    // before it runs; the one that spends the budget's last sample
    // still runs, the next is refused.
    EXPECT_EQ(base.shotsCompleted, shots / 2);
    EXPECT_EQ(base.counts, perShotCounts(rig.sim, rig.schedule,
                                         base.shotsCompleted, 0xFEED));

    // The partial result is a pure function of the workload.
    const PulseShotResult again = run();
    EXPECT_EQ(base.counts, again.counts);
    EXPECT_EQ(base.shotsCompleted, again.shotsCompleted);
    EXPECT_EQ(base.partial, again.partial);
    EXPECT_EQ(base.interruption.code(), again.interruption.code());
}

TEST(BatchShots, PreCancelledTokenYieldsEmptyPartialAtAnyWidth)
{
    const ShotRig rig;
    CancelToken token = CancelToken::make();
    token.cancel();
    PulseShotOptions opts;
    opts.shots = 32;
    opts.seed = 0xFEED;
    opts.token = token;
    const PulseShotResult result =
        rig.backend->runShots(rig.sim, rig.schedule, opts);
    EXPECT_TRUE(result.partial);
    EXPECT_EQ(result.shotsCompleted, 0);
    EXPECT_EQ(result.interruption.code(), ErrorCode::Cancelled);
}

} // namespace
} // namespace qpulse
