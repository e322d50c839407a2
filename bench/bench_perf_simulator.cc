/**
 * @file
 * Pulse-simulator hot-path performance bench: times single-qubit,
 * CR-pair and Lindblad evolutions with the propagator cache off (the
 * per-sample reference path) and on, and the repeated-schedule shot
 * workload (PulseBackend::runShots) in the legacy configuration (no
 * cache, looped shots, one thread, scalar dispatch) versus the
 * optimized one (shared cache, batched shots, four threads). Results —
 * wall times, cache hit rates, speedups and cached-vs-uncached
 * agreement — are printed as a table and written machine-readably to
 * BENCH_pulsesim.json for regression tracking.
 *
 * Acceptance bars (see docs/PERFORMANCE.md): the repeated-schedule
 * shot workload must run >= 5x faster optimized than legacy with
 * identical counts, and the batched panel engine must run >= 3x faster
 * than looped evolution and agree with it to 1e-12 in max-abs
 * difference.
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "linalg/simd.h"
#include "linalg/state_panel.h"

using namespace qpulse;

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

std::string
fmtExp(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1e", value);
    return buf;
}

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    double max_diff = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            max_diff = std::max(max_diff, std::abs(a(r, c) - b(r, c)));
    return max_diff;
}

/** One cache-off-vs-on evolution workload's measurements. */
struct EvolveRow
{
    std::string name;
    int reps = 0;
    double uncachedMs = 0.0;
    double cachedMs = 0.0;
    double hitRate = 0.0;
    double maxDiff = 0.0;

    double speedup() const { return uncachedMs / cachedMs; }
};

/**
 * Time `reps` repeated evolutions of one schedule with caching
 * disabled (per-sample reference path) and with a fresh shared cache,
 * recording the hit rate and the max-abs difference of the results.
 */
EvolveRow
benchUnitary(const std::string &name, PulseSimulator sim,
             const Schedule &schedule, int reps)
{
    EvolveRow row;
    row.name = name;
    row.reps = reps;

    sim.setCachingEnabled(false);
    Matrix exact;
    auto start = Clock::now();
    for (int rep = 0; rep < reps; ++rep)
        exact = sim.evolveUnitary(schedule).unitary;
    row.uncachedMs = elapsedMs(start);

    sim.setCachingEnabled(true);
    auto cache = std::make_shared<PropagatorCache>();
    sim.setPropagatorCache(cache);
    Matrix cached;
    start = Clock::now();
    for (int rep = 0; rep < reps; ++rep)
        cached = sim.evolveUnitary(schedule).unitary;
    row.cachedMs = elapsedMs(start);
    row.hitRate = cache->stats().hitRate();
    row.maxDiff = maxAbsDiff(exact, cached);
    return row;
}

/** Same as benchUnitary for the Lindblad density-matrix path. */
EvolveRow
benchLindblad(const std::string &name, PulseSimulator sim,
              const Schedule &schedule, int reps)
{
    EvolveRow row;
    row.name = name;
    row.reps = reps;

    Matrix rho0(sim.model().dim(), sim.model().dim());
    rho0(0, 0) = Complex{1.0, 0.0};

    sim.setCachingEnabled(false);
    Matrix exact;
    auto start = Clock::now();
    for (int rep = 0; rep < reps; ++rep)
        exact = sim.evolveLindblad(schedule, rho0);
    row.uncachedMs = elapsedMs(start);

    sim.setCachingEnabled(true);
    auto cache = std::make_shared<PropagatorCache>();
    sim.setPropagatorCache(cache);
    Matrix cached;
    start = Clock::now();
    for (int rep = 0; rep < reps; ++rep)
        cached = sim.evolveLindblad(schedule, rho0);
    row.cachedMs = elapsedMs(start);
    row.hitRate = cache->stats().hitRate();
    row.maxDiff = maxAbsDiff(exact, cached);
    return row;
}

/** One baseline-vs-optimized kernel microbench measurement. */
struct KernelRow
{
    std::string name;
    std::size_t n = 0;
    int iters = 0;
    double baselineMs = 0.0;
    double optimizedMs = 0.0;

    double speedup() const
    {
        return optimizedMs > 0.0 ? baselineMs / optimizedMs : 1.0;
    }
};

/** Deterministic dense complex matrix (xorshift-free LCG entries). */
Matrix
denseTestMatrix(std::size_t n, std::uint64_t seed)
{
    Matrix m(n, n);
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    auto draw = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(state >> 11) /
                   static_cast<double>(1ull << 53) -
               0.5;
    };
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            m(r, c) = Complex{draw(), draw()};
    return m;
}

double
timeGemm(const Matrix &a, const Matrix &b, int iters)
{
    Matrix out;
    gemmInto(out, a, b); // Warm-up sizes the output buffer.
    const auto start = Clock::now();
    for (int i = 0; i < iters; ++i)
        gemmInto(out, a, b);
    return elapsedMs(start);
}

/** gemmInto at one size, scalar dispatch vs the SIMD fast path. */
KernelRow
benchGemmKernel(std::size_t n, int iters)
{
    KernelRow row;
    row.name = "gemm_scalar_vs_simd";
    row.n = n;
    row.iters = iters;
    const Matrix a = denseTestMatrix(n, 2 * n + 1);
    const Matrix b = denseTestMatrix(n, 2 * n + 2);
    const kernels::SimdMode saved = kernels::activeSimd();
    kernels::setActiveSimd(kernels::SimdMode::Scalar);
    row.baselineMs = timeGemm(a, b, iters);
    kernels::setActiveSimd(kernels::avx2Supported()
                               ? kernels::SimdMode::Avx2
                               : kernels::SimdMode::Scalar);
    row.optimizedMs = timeGemm(a, b, iters);
    kernels::setActiveSimd(saved);
    return row;
}

/** Batched-vs-looped state evolution measurement (the panel engine). */
struct BatchedRow
{
    std::string name;
    std::size_t width = 0;
    double loopedMs = 0.0;
    double batchedMs = 0.0;
    double maxDiff = 0.0;

    double speedup() const { return loopedMs / batchedMs; }
};

/**
 * Time K looped evolveState calls against one evolveStatesBatched
 * panel of width K with caching DISABLED, so the measurement isolates
 * the panel engine's propagator sharing (every per-sample propagator
 * is computed K times looped, once batched) rather than cache reuse.
 * Records the worst per-column max-abs final-state difference.
 */
BatchedRow
benchBatchedEvolve(const std::string &name, PulseSimulator sim,
                   const Schedule &schedule, std::size_t width)
{
    BatchedRow row;
    row.name = name;
    row.width = width;
    sim.setCachingEnabled(false);

    const std::size_t dim = sim.model().dim();
    Vector ground(dim);
    ground[0] = Complex{1.0, 0.0};

    Vector looped_final;
    auto start = Clock::now();
    for (std::size_t k = 0; k < width; ++k)
        looped_final = sim.evolveState(schedule, ground);
    row.loopedMs = elapsedMs(start);

    StatePanel panel(dim, width);
    panel.fillColumns(ground);
    start = Clock::now();
    sim.evolveStatesBatched(schedule, panel);
    row.batchedMs = elapsedMs(start);

    Vector column;
    for (std::size_t k = 0; k < width; ++k) {
        panel.getColumn(k, column);
        for (std::size_t i = 0; i < dim; ++i)
            row.maxDiff = std::max(
                row.maxDiff, std::abs(looped_final[i] - column[i]));
    }
    return row;
}

void
writeJson(const std::vector<EvolveRow> &rows,
          const std::vector<KernelRow> &kernels, const BatchedRow &batched,
          long shots, double baseline_ms, double optimized_ms,
          double shot_hit_rate, std::size_t threads)
{
    std::FILE *out = bench::openBenchJson("BENCH_pulsesim.json");
    if (out == nullptr)
        return;
    const double shot_speedup = baseline_ms / optimized_ms;
    std::fprintf(out, "{\n");
    bench::writeBenchHeader(out, "pulsesim");
    std::fprintf(out, "  \"threads\": %zu,\n", threads);
    std::fprintf(out, "  \"workloads\": [\n");
    for (std::size_t k = 0; k < rows.size(); ++k) {
        const EvolveRow &row = rows[k];
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"reps\": %d, "
                     "\"uncached_wall_ms\": %.3f, "
                     "\"cached_wall_ms\": %.3f, \"speedup\": %.2f, "
                     "\"cache_hit_rate\": %.4f, "
                     "\"max_abs_diff\": %.3e},\n",
                     row.name.c_str(), row.reps, row.uncachedMs,
                     row.cachedMs, row.speedup(), row.hitRate,
                     row.maxDiff);
    }
    std::fprintf(out,
                 "    {\"name\": \"repeated_schedule_shots\", "
                 "\"shots\": %ld, \"baseline_wall_ms\": %.3f, "
                 "\"optimized_wall_ms\": %.3f, \"speedup\": %.2f, "
                 "\"cache_hit_rate\": %.4f}\n",
                 shots, baseline_ms, optimized_ms, shot_speedup,
                 shot_hit_rate);
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"kernels\": [\n");
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const KernelRow &row = kernels[k];
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"n\": %zu, "
                     "\"iters\": %d, \"baseline_wall_ms\": %.3f, "
                     "\"optimized_wall_ms\": %.3f, "
                     "\"speedup\": %.2f}%s\n",
                     row.name.c_str(), row.n, row.iters, row.baselineMs,
                     row.optimizedMs, row.speedup(),
                     k + 1 < kernels.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"batched\": {\"workload\": \"%s\", "
                 "\"width\": %zu, \"looped_wall_ms\": %.3f, "
                 "\"batched_wall_ms\": %.3f, \"speedup\": %.2f, "
                 "\"max_abs_diff\": %.3e, \"simd\": \"%s\"},\n",
                 batched.name.c_str(), batched.width, batched.loopedMs,
                 batched.batchedMs, batched.speedup(), batched.maxDiff,
                 kernels::simdModeName(kernels::activeSimd()));
    bench::writeTelemetryField(out);
    const bool pass = shot_speedup >= 5.0 &&
                      batched.speedup() >= 3.0 &&
                      batched.maxDiff <= 1e-12;
    std::fprintf(out,
                 "  \"acceptance\": {\"required_speedup\": 5.0, "
                 "\"measured_speedup\": %.2f, "
                 "\"required_batched_speedup\": 3.0, "
                 "\"measured_batched_speedup\": %.2f, "
                 "\"batched_max_abs_diff\": %.3e, \"pass\": %s}\n",
                 shot_speedup, batched.speedup(), batched.maxDiff,
                 pass ? "true" : "false");
    std::fprintf(out, "}\n");
    bench::closeBenchJson(out, "BENCH_pulsesim.json");
}

} // namespace

int
main()
{
    bench::banner(
        "Pulse-simulator perf: propagator cache + threaded shots",
        "repeated-schedule shot workload >= 5x faster with the cache "
        "on; cached == uncached to 1e-12");

    const std::size_t threads = ThreadPool::global().size();
    std::printf("thread pool size: %zu (QPULSE_THREADS overrides)\n\n",
                threads);

    // --- Workload construction (calibration excluded from timings).
    const BackendConfig pair_config = almadenLineConfig(2);
    const auto backend = makeCalibratedBackend(pair_config);
    Calibrator calibrator(pair_config);
    const QubitCalibration cal = calibrator.calibrateQubit(0);

    Schedule x_schedule("x180");
    x_schedule.play(driveChannel(0), cal.x180Pulse());

    const Schedule cnot_schedule =
        backend->schedule(makeGate(GateType::Cnot, {0, 1}));

    std::vector<EvolveRow> rows;
    rows.push_back(benchUnitary(
        "single_qubit_x_unitary",
        PulseSimulator(calibrator.qubitModel(0)), x_schedule, 32));
    rows.push_back(benchUnitary("cr_pair_cnot_unitary",
                                calibrator.pairSimulator(0, 1),
                                cnot_schedule, 8));
    rows.push_back(benchLindblad(
        "single_qubit_x_lindblad",
        PulseSimulator(calibrator.qubitModel(0)), x_schedule, 32));

    TextTable table({"workload", "reps", "uncached (ms)", "cached (ms)",
                     "speedup", "hit rate", "max |diff|"});
    for (const EvolveRow &row : rows)
        table.addRow({row.name, std::to_string(row.reps),
                      fmtFixed(row.uncachedMs, 1),
                      fmtFixed(row.cachedMs, 1),
                      fmtFixed(row.speedup(), 1) + "x",
                      fmtPercent(row.hitRate, 1),
                      fmtExp(row.maxDiff)});
    std::printf("%s\n", table.render().c_str());

    // --- Per-kernel microbenches: gemm scalar vs SIMD dispatch at the
    // simulator's working sizes (d=3, d^2=9, and a larger 16).
    std::printf("active SIMD dispatch: %s (QPULSE_SIMD=0 forces "
                "scalar)\n\n",
                kernels::simdModeName(kernels::activeSimd()));
    std::vector<KernelRow> kernel_rows;
    kernel_rows.push_back(benchGemmKernel(3, 400000));
    kernel_rows.push_back(benchGemmKernel(9, 60000));
    kernel_rows.push_back(benchGemmKernel(16, 15000));

    TextTable ktable({"kernel", "n", "iters", "baseline (ms)",
                      "optimized (ms)", "speedup"});
    for (const KernelRow &row : kernel_rows)
        ktable.addRow({row.name, std::to_string(row.n),
                       std::to_string(row.iters),
                       fmtFixed(row.baselineMs, 1),
                       fmtFixed(row.optimizedMs, 1),
                       fmtFixed(row.speedup(), 2) + "x"});
    std::printf("%s\n", ktable.render().c_str());

    // --- Batched panel engine: K looped uncached evolutions vs one
    // width-K panel on the CR-pair CNOT workload. With the cache off
    // the looped path recomputes every per-sample propagator K times;
    // the panel computes each once and applies it as a single gemm.
    const BatchedRow batched = benchBatchedEvolve(
        "cr_pair_cnot_state", calibrator.pairSimulator(0, 1),
        cnot_schedule, 64);
    std::printf("batched panel evolution (%s, K=%zu, uncached):\n",
                batched.name.c_str(), batched.width);
    std::printf("  looped (K evolveState calls):     %8.1f ms\n",
                batched.loopedMs);
    std::printf("  batched (one width-K panel):      %8.1f ms\n",
                batched.batchedMs);
    std::printf("  speedup: %.1fx (acceptance: >= 3x) %s\n",
                batched.speedup(),
                batched.speedup() >= 3.0 ? "PASS" : "FAIL");
    std::printf("  max |diff| vs looped final state: %s "
                "(acceptance: <= 1e-12) %s\n\n",
                fmtExp(batched.maxDiff).c_str(),
                batched.maxDiff <= 1e-12 ? "PASS" : "FAIL");

    // --- Repeated-schedule shot workload: the original acceptance
    // criterion. Legacy baseline = the seed code path (no memoization,
    // looped per-shot evolution, one thread, scalar dispatch) so the 5x
    // gate keeps measuring against the same pre-cache baseline;
    // optimized = shared cache + batched panels + up to four threads.
    PulseSimulator shot_sim_legacy(calibrator.qubitModel(0));
    shot_sim_legacy.setCachingEnabled(false);
    const PulseSimulator shot_sim(calibrator.qubitModel(0));
    PulseShotOptions legacy;
    legacy.shots = 192;
    legacy.seed = 7;
    legacy.batchWidth = 1;
    legacy.maxThreads = 1;
    const kernels::SimdMode dispatch_mode = kernels::activeSimd();
    kernels::setActiveSimd(kernels::SimdMode::Scalar);
    auto start = Clock::now();
    const PulseShotResult base =
        backend->runShots(shot_sim_legacy, x_schedule, legacy);
    const double baseline_ms = elapsedMs(start);
    kernels::setActiveSimd(dispatch_mode);

    PulseShotOptions fast;
    fast.shots = 192;
    fast.seed = 7;
    fast.maxThreads = 4;
    start = Clock::now();
    const PulseShotResult opt =
        backend->runShots(shot_sim, x_schedule, fast);
    const double optimized_ms = elapsedMs(start);

    bool counts_match = base.counts == opt.counts;
    const double shot_speedup = baseline_ms / optimized_ms;
    std::printf("repeated-schedule shots (%ld shots of x180):\n",
                legacy.shots);
    std::printf("  legacy (no cache, looped, 1 thread): %8.1f ms\n",
                baseline_ms);
    std::printf("  optimized (cache, <=4 threads):      %8.1f ms "
                "(hit rate %.1f%%)\n",
                optimized_ms, 100.0 * opt.cacheStats.hitRate());
    std::printf("  speedup: %.1fx (acceptance: >= 5x) %s\n",
                shot_speedup, shot_speedup >= 5.0 ? "PASS" : "FAIL");
    std::printf("  counts identical across configurations: %s\n\n",
                counts_match ? "yes" : "NO (BUG)");

    bench::printTelemetry();
    writeJson(rows, kernel_rows, batched, legacy.shots, baseline_ms,
              optimized_ms, opt.cacheStats.hitRate(), threads);
    return shot_speedup >= 5.0 && batched.speedup() >= 3.0 &&
                   batched.maxDiff <= 1e-12 && counts_match
               ? 0
               : 1;
}
