/**
 * @file
 * Robustness bench: sweep fault-injection rates against an unprotected
 * client and the ResilientExecutor on the same deterministic fault
 * streams, and emit BENCH_robustness.json.
 *
 * The unprotected client models the pre-robustness code path: a failed
 * or rejected shot batch is simply lost, a corrupted upload aborts the
 * run (structured reject from the validation gate — before that gate
 * it would have been silent garbage), and coherent drift persists
 * forever because nothing watches for it. The executor retries,
 * re-uploads, recalibrates on drift crossings and degrades to the
 * standard two-x90 decomposition, so its measured fidelity must stay
 * at or above the unprotected client at every swept rate and strictly
 * above it at the highest rate.
 */
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "device/fault_injector.h"
#include "device/resilient_executor.h"

using namespace qpulse;

namespace {

constexpr long kShots = 256;
constexpr int kRuns = 24;
constexpr std::uint64_t kSeed = 0xBE7C;

/** The swept plan: every class scales with one knob. */
FaultPlan
planAtRate(double rate)
{
    FaultPlan plan;
    plan.transientRate = rate;
    plan.awgNanRate = rate / 2.0;
    plan.awgDropRate = rate / 2.0;
    plan.driftRate = rate;
    plan.driftFreqKhz = 6000.0;
    plan.driftAmpError = 0.25;
    plan.readoutFlipRate = rate / 10.0;
    return plan;
}

PulseShotOptions
runOptions(int run)
{
    PulseShotOptions opts;
    opts.shots = kShots;
    opts.seed = Rng::deriveSeed(kSeed, static_cast<std::uint64_t>(run));
    return opts;
}

struct SweepPoint
{
    double rate = 0.0;
    double unprotectedFidelity = 0.0;
    double executorFidelity = 0.0;
    ResilienceStats stats;
    bench::LatencySummary latency;
};

/** P(target state) averaged over runs, unprotected client. */
double
runUnprotected(const PulseBackend &backend, const PulseSimulator &sim,
               const Schedule &schedule, std::size_t target,
               const FaultPlan &plan)
{
    FaultInjector injector(plan);
    double total = 0.0;
    for (int run = 0; run < kRuns; ++run) {
        const FaultInjector::Injection injection =
            injector.inject(schedule, static_cast<std::uint64_t>(run),
                            /*attempt=*/0);
        if (injection.transient || injection.timeout)
            continue; // Batch lost; no shots land.
        try {
            PulseShotResult result = backend.runShots(
                sim, injection.schedule, runOptions(run));
            injector.applyReadoutFaults(
                result.counts, result.populations,
                static_cast<std::uint64_t>(run), 0);
            total += static_cast<double>(result.counts[target]) /
                     static_cast<double>(kShots);
        } catch (const StatusError &) {
            // Corrupted upload rejected by the validation gate; the
            // unprotected client has no retry, so the run is lost.
        }
        // Note: no recalibration ever happens here, so a drift spike
        // keeps degrading every subsequent run.
    }
    return total / kRuns;
}

/** Same workload through the ResilientExecutor. */
SweepPoint
runProtected(const std::shared_ptr<const PulseBackend> &backend,
             const PulseSimulator &sim, const Schedule &schedule,
             const Schedule &fallback, std::size_t target,
             const FaultPlan &plan)
{
    ResilientExecutor executor(backend);
    executor.setFaultInjector(std::make_shared<FaultInjector>(plan));
    ResilientRequest request;
    request.schedule = schedule;
    request.key = "x180/q0";
    request.fallback = fallback;

    SweepPoint point;
    std::vector<double> latencies;
    latencies.reserve(kRuns);
    for (int run = 0; run < kRuns; ++run) {
        const bench::Stopwatch watch;
        const ResilientOutcome outcome =
            executor.run(sim, request, runOptions(run));
        latencies.push_back(watch.elapsedMs());
        if (outcome.status.ok())
            point.executorFidelity +=
                static_cast<double>(outcome.result.counts[target]) /
                static_cast<double>(kShots);
    }
    point.executorFidelity /= kRuns;
    point.stats = executor.stats();
    point.latency = bench::LatencySummary::of(std::move(latencies));
    return point;
}

} // namespace

int
main()
{
    bench::banner(
        "Robustness: fault-rate sweep, unprotected client vs "
        "ResilientExecutor",
        "(engineering bench) executor fidelity >= unprotected at "
        "every rate, strictly better at the highest");

    const BackendConfig config = almadenLineConfig(1);
    const auto backend = makeCalibratedBackend(config);
    Calibrator calibrator(config);
    const PulseSimulator sim(calibrator.qubitModel(0));

    // Compile the primary (augmented direct-X entry) and the fallback
    // (standard x90-based decomposition) through the full
    // PulseCompiler rather than hand-assembling schedules: one traced
    // bench run then exercises every compile stage, the shot-batch
    // loop and the executor's retry machinery in a single timeline
    // (docs/OBSERVABILITY.md).
    QuantumCircuit circuit(1);
    circuit.x(0);
    PulseCompiler optimized_compiler(backend, CompileMode::Optimized);
    PulseCompiler standard_compiler(backend, CompileMode::Standard);
    const CompileResult primary = optimized_compiler.compile(circuit);
    const CompileResult secondary = standard_compiler.compile(circuit);
    throwIfError(primary.validation);
    throwIfError(secondary.validation);
    const Schedule &x180 = primary.schedule;
    const Schedule &fallback = secondary.schedule;

    // Fault-free target state: the dominant population after x180.
    Vector ground(sim.model().dim());
    ground[0] = Complex{1.0, 0.0};
    const std::vector<double> pops =
        sim.populations(sim.evolveState(x180, ground));
    std::size_t target = 0;
    for (std::size_t i = 0; i < pops.size(); ++i)
        if (pops[i] > pops[target])
            target = i;

    const double rates[] = {0.0, 0.1, 0.2, 0.4};
    std::vector<SweepPoint> sweep;
    TextTable table({"fault rate", "unprotected", "executor",
                     "retries", "recals", "fallbacks", "p50 ms",
                     "p95 ms"});
    for (const double rate : rates) {
        const FaultPlan plan = planAtRate(rate);
        SweepPoint point =
            runProtected(backend, sim, x180, fallback, target, plan);
        point.rate = rate;
        point.unprotectedFidelity =
            runUnprotected(*backend, sim, x180, target, plan);
        table.addRow({fmtFixed(rate, 2),
                      fmtFixed(point.unprotectedFidelity, 4),
                      fmtFixed(point.executorFidelity, 4),
                      std::to_string(point.stats.retries),
                      std::to_string(point.stats.recalibrations),
                      std::to_string(point.stats.fallbacks),
                      fmtFixed(point.latency.p50Ms, 2),
                      fmtFixed(point.latency.p95Ms, 2)});
        sweep.push_back(point);
    }
    std::printf("%s\n", table.render().c_str());

    bool never_worse = true;
    for (const SweepPoint &point : sweep)
        never_worse = never_worse &&
            point.executorFidelity >= point.unprotectedFidelity;
    const SweepPoint &worst = sweep.back();
    const bool strictly_better =
        worst.executorFidelity > worst.unprotectedFidelity;
    const bool pass = never_worse && strictly_better;
    std::printf("acceptance: never_worse=%s strictly_better_at_max=%s "
                "=> %s\n",
                never_worse ? "yes" : "no",
                strictly_better ? "yes" : "no",
                pass ? "PASS" : "FAIL");

    bench::printTelemetry();
    std::FILE *out = bench::openBenchJson("BENCH_robustness.json");
    if (out == nullptr)
        return pass ? 0 : 1;
    std::fprintf(out, "{\n");
    bench::writeBenchHeader(out, "robustness");
    std::fprintf(out, "  \"shots\": %ld,\n", kShots);
    std::fprintf(out, "  \"runs_per_rate\": %d,\n", kRuns);
    std::fprintf(out, "  \"sweep\": [\n");
    for (std::size_t k = 0; k < sweep.size(); ++k) {
        const SweepPoint &point = sweep[k];
        std::fprintf(
            out,
            "    {\"fault_rate\": %.2f, "
            "\"unprotected_fidelity\": %.4f, "
            "\"executor_fidelity\": %.4f, \"attempts\": %ld, "
            "\"retries\": %ld, \"recalibrations\": %ld, "
            "\"fallbacks\": %ld, \"degraded_runs\": %ld, "
            "\"validation_rejects\": %ld, "
            "\"job_latency_ms\": {\"p50\": %.3f, \"p95\": %.3f}}%s\n",
            point.rate, point.unprotectedFidelity,
            point.executorFidelity, point.stats.attempts,
            point.stats.retries, point.stats.recalibrations,
            point.stats.fallbacks, point.stats.degradedRuns,
            point.stats.validationRejects, point.latency.p50Ms,
            point.latency.p95Ms,
            k + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    bench::writeTelemetryField(out);
    std::fprintf(out,
                 "  \"acceptance\": {\"executor_never_worse\": %s, "
                 "\"strictly_better_at_max_rate\": %s, "
                 "\"pass\": %s}\n",
                 never_worse ? "true" : "false",
                 strictly_better ? "true" : "false",
                 pass ? "true" : "false");
    std::fprintf(out, "}\n");
    bench::closeBenchJson(out, "BENCH_robustness.json");
    return pass ? 0 : 1;
}
