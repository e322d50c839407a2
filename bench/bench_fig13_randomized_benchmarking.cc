/**
 * @file
 * Figure 13 — randomized-benchmarking-style experiment on the
 * Armonk-like backend: K = 2..25, five random sequences per length,
 * 8000 shots each, three compile modes (5 x 24 x 3 x 8k = 2.88M
 * shots). Decays are fit to a * f^K + b; the paper extracts
 * f = 99.87% (optimized), 99.83% (optimized-slow), 99.82% (standard),
 * attributing ~70% of the improvement to shorter pulses. Also checks
 * the coherence-limit bound (>= 0.01% improvement from the 2x pulse
 * speedup).
 */
#include <cstdio>

#include "bench_util.h"
#include "common/ascii_plot.h"
#include "common/table.h"
#include "rb/randomized_benchmarking.h"

using namespace qpulse;

int
main()
{
    bench::banner(
        "Figure 13: randomized benchmarking, three compile modes "
        "(2.88M shots)",
        "f = 99.87% optimized / 99.83% optimized-slow / 99.82% "
        "standard; ~70% of the gain from shorter pulses");

    const BackendConfig config = armonkConfig();
    const auto backend = makeCalibratedBackend(config);

    RbConfig rb_config;
    rb_config.minLength = 2;
    rb_config.maxLength = 25;
    rb_config.lengthStride = 1;
    rb_config.sequencesPerLength = 5;
    rb_config.shots = shots::kRbPerPoint;

    // RB-under-faults: QPULSE_FAULT_PLAN (docs/ROBUSTNESS.md) turns on
    // deterministic per-cell fault accounting, so a faulted Figure 13
    // is reproducible from this binary alone, e.g.
    //   QPULSE_FAULT_PLAN="transient=0.2,ro_flip=0.01" ./bench_fig13...
    rb_config.faultPlan = FaultPlan::fromEnv();
    if (rb_config.faultPlan.enabled())
        std::printf("fault plan active: %s\n",
                    rb_config.faultPlan.toString().c_str());

    const std::pair<RbMode, const char *> modes[] = {
        {RbMode::Optimized, "optimized"},
        {RbMode::OptimizedSlow, "optimized-slow"},
        {RbMode::Standard, "standard"},
    };
    const char *paper[] = {"99.87%", "99.83%", "99.82%"};

    std::vector<RbResult> results;
    TextTable table({"mode", "fitted f", "paper f", "error / gate"});
    int index = 0;
    for (const auto &mode : modes) {
        const RbResult result = runRb(backend, mode.first, rb_config);
        table.addRow({mode.second, fmtPercent(result.gateFidelity, 3),
                      paper[index],
                      fmtPercent(1.0 - result.gateFidelity, 3)});
        results.push_back(result);
        std::printf("  %-15s f = %.5f\n", mode.second,
                    result.gateFidelity);
        if (rb_config.faultPlan.enabled())
            std::printf("  %-15s resilience: %s\n", "",
                        result.resilience.toString().c_str());
        std::fflush(stdout);
        ++index;
    }

    // Decay curves.
    std::printf("\ndecay curves (survival vs K):\n");
    TextTable decay({"K", "optimized", "optimized-slow", "standard"});
    for (std::size_t point = 0; point < results[0].decay.size();
         point += 3)
        decay.addRow(
            {std::to_string(results[0].decay[point].sequenceLength),
             fmtFixed(results[0].decay[point].survival, 4),
             fmtFixed(results[1].decay[point].survival, 4),
             fmtFixed(results[2].decay[point].survival, 4)});
    std::printf("%s\n", decay.render().c_str());

    // Sketch the three decay curves (the Figure 13 panel).
    std::vector<PlotSeries> curves;
    const char glyphs[3] = {'o', 's', 'x'};
    for (std::size_t m = 0; m < results.size(); ++m) {
        PlotSeries entry;
        entry.label = modes[m].second;
        entry.glyph = glyphs[m];
        for (const auto &point : results[m].decay) {
            entry.xs.push_back(point.sequenceLength);
            entry.ys.push_back(point.survival);
        }
        curves.push_back(std::move(entry));
    }
    std::printf("%s\n", renderAsciiPlot(curves).c_str());
    std::printf("%s\n", table.render().c_str());

    const double total =
        results[0].gateFidelity - results[2].gateFidelity;
    const double from_speed =
        results[0].gateFidelity - results[1].gateFidelity;
    std::printf("improvement attribution: %.0f%% from shorter pulses, "
                "%.0f%% from fewer/smaller pulses (paper: 70%% / "
                "30%%)\n",
                100.0 * from_speed / total,
                100.0 * (1.0 - from_speed / total));

    // Coherence-limit sanity bound (Section 8.3, [104] Eq. 24).
    const double limit_slow = coherenceLimitError(
        71.1, config.qubits[0].t1Us, config.qubits[0].t2Us);
    const double limit_fast = coherenceLimitError(
        35.6, config.qubits[0].t1Us, config.qubits[0].t2Us);
    std::printf("coherence-limit bound: 2x speedup must give >= %.4f%% "
                "fidelity (paper: 0.01%%); measured speed gain: "
                "%.4f%%\n",
                100.0 * (limit_slow - limit_fast), 100.0 * from_speed);
    std::printf("total shots: 5 x 24 x 3 x %ldk = %.2fM (paper: "
                "2.88M)\n",
                shots::kRbPerPoint / 1000,
                5.0 * 24.0 * 3.0 * shots::kRbPerPoint / 1e6);
    return 0;
}
