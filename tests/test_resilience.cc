/**
 * @file
 * Tests for the robustness layer: the structured validation gate
 * (every malformed-schedule class rejected with its distinct
 * ErrorCode), deterministic fault injection (bit-identical across
 * thread counts), bounded retry with terminal-error preservation, the
 * drift watchdog (exactly one recalibration per crossing), graceful
 * degradation to the standard decomposition, fault-plan parsing, the
 * diagnosed env helpers, the RB-under-faults accounting, the one
 * propagator cache an executor run shares across its evolutions, and
 * the shot results a phase reuses instead of re-running a schedule.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <optional>

#include "common/env.h"
#include "common/status.h"
#include "compile/compiler.h"
#include "device/fault_injector.h"
#include "device/resilient_executor.h"
#include "device/schedule_validation.h"
#include "rb/randomized_benchmarking.h"
#include "store/serde.h"
#include "telemetry/metrics.h"

namespace qpulse {
namespace {

/** Calibrated single-qubit rig shared by the executor tests. */
struct Rig
{
    Rig()
        : config(almadenLineConfig(1)),
          backend(makeCalibratedBackend(config)),
          calibrator(config), cal(calibrator.calibrateQubit(0)),
          sim(calibrator.qubitModel(0))
    {}

    Schedule
    x180Schedule() const
    {
        Schedule schedule("x180");
        schedule.play(driveChannel(0), cal.x180Pulse());
        return schedule;
    }

    /** Standard-flow stand-in: two sequential x90 pulses. */
    Schedule
    twoX90Schedule() const
    {
        Schedule schedule("x90x90");
        schedule.play(driveChannel(0), cal.x90Pulse());
        schedule.play(driveChannel(0), cal.x90Pulse());
        return schedule;
    }

    BackendConfig config;
    std::shared_ptr<const PulseBackend> backend;
    Calibrator calibrator;
    QubitCalibration cal;
    PulseSimulator sim;
};

PulseShotOptions
shotOptions(long shots = 256)
{
    PulseShotOptions opts;
    opts.shots = shots;
    opts.seed = 0xB0B;
    return opts;
}

/** A drift watchdog whose proxy check fails every batch. */
DriftWatchdogPolicy
rejectEveryBatch()
{
    DriftWatchdogPolicy watchdog;
    watchdog.tolerance = -1.0;
    return watchdog;
}

TEST(Status, TaxonomyAndThrow)
{
    const Status ok = Status::okStatus();
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.toString(), "ok");

    const Status bad =
        Status::error(ErrorCode::NonFiniteSample, "NaN on d0");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), ErrorCode::NonFiniteSample);
    EXPECT_EQ(bad.toString(), "non-finite-sample: NaN on d0");

    EXPECT_NO_THROW(throwIfError(ok));
    try {
        throwIfError(bad);
        FAIL() << "throwIfError must throw on a non-Ok status";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.code(), ErrorCode::NonFiniteSample);
    }
}

TEST(FaultPlan, ParseRoundTripsAndRejectsMalformedSpecs)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.transientRate = 0.25;
    plan.timeoutRate = 0.1;
    plan.driftRate = 0.5;
    plan.driftFreqKhz = 4000.0;
    plan.driftAmpError = 0.1;
    plan.awgNanRate = 0.01;
    plan.awgClipRate = 0.02;
    plan.awgDropRate = 0.03;
    plan.readoutFlipRate = 0.04;
    plan.readoutDropRate = 0.05;
    EXPECT_TRUE(plan.enabled());

    FaultPlan parsed;
    ASSERT_TRUE(FaultPlan::parse(plan.toString(), parsed).ok());
    EXPECT_EQ(parsed.toString(), plan.toString());

    // Malformed specs: distinct ParseError, `out` left untouched.
    FaultPlan out;
    out.transientRate = 0.7;
    EXPECT_EQ(FaultPlan::parse("bogus=1", out).code(),
              ErrorCode::ParseError);
    EXPECT_EQ(FaultPlan::parse("transient=nope", out).code(),
              ErrorCode::ParseError);
    EXPECT_EQ(FaultPlan::parse("transient=1.5", out).code(),
              ErrorCode::ParseError);
    EXPECT_EQ(FaultPlan::parse("transient", out).code(),
              ErrorCode::ParseError);
    EXPECT_DOUBLE_EQ(out.transientRate, 0.7);

    EXPECT_FALSE(FaultPlan{}.enabled());
}

TEST(Validation, RejectsEachMalformedClassWithDistinctCode)
{
    const Rig rig;

    // A calibrated schedule passes.
    EXPECT_TRUE(
        validateSchedule(rig.x180Schedule(), rig.config).ok());

    // Non-finite sample.
    std::vector<Complex> nan_samples(16, Complex{0.1, 0.0});
    nan_samples[7] =
        Complex{std::numeric_limits<double>::quiet_NaN(), 0.0};
    Schedule nan_schedule("nan");
    nan_schedule.play(driveChannel(0),
                      std::make_shared<SampledWaveform>(nan_samples));
    EXPECT_EQ(validateSchedule(nan_schedule, rig.config).code(),
              ErrorCode::NonFiniteSample);

    // Amplitude saturation (|d| > 1).
    Schedule hot_schedule("hot");
    hot_schedule.play(driveChannel(0),
                      std::make_shared<SampledWaveform>(
                          std::vector<Complex>(16, Complex{1.2, 0.0})));
    EXPECT_EQ(validateSchedule(hot_schedule, rig.config).code(),
              ErrorCode::AmplitudeSaturation);

    // Unknown channels: a drive index past the qubit count and a
    // control index on a config with no coupled edges.
    Schedule wrong_drive("wrong-drive");
    wrong_drive.play(driveChannel(3), rig.cal.x90Pulse());
    EXPECT_EQ(validateSchedule(wrong_drive, rig.config).code(),
              ErrorCode::UnknownChannel);
    Schedule wrong_control("wrong-control");
    wrong_control.play(controlChannel(0), rig.cal.x90Pulse());
    EXPECT_EQ(validateSchedule(wrong_control, rig.config).code(),
              ErrorCode::UnknownChannel);

    // Overlapping Play spans on one channel.
    Schedule overlapping("overlap");
    overlapping.playAt(0, driveChannel(0), rig.cal.x90Pulse());
    overlapping.playAt(rig.cal.x90Pulse()->duration() / 2,
                       driveChannel(0), rig.cal.x90Pulse());
    EXPECT_EQ(validateSchedule(overlapping, rig.config).code(),
              ErrorCode::NonMonotonicTime);
}

TEST(Validation, NegativeTimesThrowStructuredAtConstruction)
{
    // The Schedule API itself refuses negative start times with the
    // structured NegativeTime code (validateSchedule keeps the same
    // check as defence-in-depth for schedules built by other means).
    const Rig rig;
    Schedule schedule("negative");
    try {
        schedule.playAt(-4, driveChannel(0), rig.cal.x90Pulse());
        FAIL() << "negative play start must throw";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.code(), ErrorCode::NegativeTime);
    }

    PulseInstruction inst;
    inst.kind = PulseInstructionKind::Delay;
    inst.channel = driveChannel(0);
    inst.startTime = -1;
    try {
        schedule.addInstruction(inst);
        FAIL() << "negative instruction start must throw";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.code(), ErrorCode::NegativeTime);
    }
}

TEST(Validation, RunShotsThrowsStructuredErrorBeforeTheCache)
{
    const Rig rig;
    std::vector<Complex> samples(16, Complex{0.1, 0.0});
    samples[3] =
        Complex{0.0, std::numeric_limits<double>::infinity()};
    Schedule bad("inf");
    bad.play(driveChannel(0),
             std::make_shared<SampledWaveform>(samples));
    try {
        rig.backend->runShots(rig.sim, bad, shotOptions());
        FAIL() << "runShots must reject a malformed schedule";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.code(), ErrorCode::NonFiniteSample);
    }
}

TEST(Validation, CompileResultCarriesValidationStatus)
{
    const Rig rig;
    PulseCompiler compiler(rig.backend, CompileMode::Optimized);
    QuantumCircuit circuit(1);
    circuit.u3(1.0, 0.5, -0.25, 0);
    circuit.measure(0);
    const CompileResult result = compiler.compile(circuit);
    EXPECT_TRUE(result.validation.ok()) << result.validation.toString();
}

TEST(EnvParsing, EnvLongClampsAndFallsBack)
{
    const char *name = "QPULSE_ENVTEST";
    unsetenv(name);
    EXPECT_EQ(envLong(name, 7, 1, 64), 7);
    setenv(name, "12", 1);
    EXPECT_EQ(envLong(name, 7, 1, 64), 12);
    setenv(name, "9999", 1);
    EXPECT_EQ(envLong(name, 7, 1, 64), 64);
    setenv(name, "-3", 1);
    EXPECT_EQ(envLong(name, 7, 1, 64), 1);
    setenv(name, "abc", 1);
    EXPECT_EQ(envLong(name, 7, 1, 64), 7);
    setenv(name, "12abc", 1);
    EXPECT_EQ(envLong(name, 7, 1, 64), 7);
    unsetenv(name);
}

TEST(FaultInjection, DecisionsDeterministicAcrossInstances)
{
    const Rig rig;
    FaultPlan plan;
    plan.transientRate = 0.3;
    plan.timeoutRate = 0.2;
    plan.awgNanRate = 0.2;
    plan.awgClipRate = 0.2;
    plan.awgDropRate = 0.2;
    plan.readoutFlipRate = 0.1;
    plan.readoutDropRate = 0.1;

    FaultInjector a(plan), b(plan);
    const Schedule clean = rig.x180Schedule();
    for (std::uint64_t run = 0; run < 16; ++run)
        for (int attempt = 0; attempt < 3; ++attempt) {
            const auto ia = a.inject(clean, run, attempt);
            const auto ib = b.inject(clean, run, attempt);
            EXPECT_EQ(ia.transient, ib.transient);
            EXPECT_EQ(ia.timeout, ib.timeout);
            EXPECT_EQ(ia.corrupted, ib.corrupted);
            ASSERT_EQ(ia.schedule.instructions().size(),
                      ib.schedule.instructions().size());

            std::vector<long> counts_a = {100, 80, 20};
            std::vector<long> counts_b = counts_a;
            const std::vector<double> pops = {0.5, 0.4, 0.1};
            EXPECT_EQ(a.applyReadoutFaults(counts_a, pops, run, attempt),
                      b.applyReadoutFaults(counts_b, pops, run, attempt));
            EXPECT_EQ(counts_a, counts_b);
            long total = 0;
            for (const long c : counts_a)
                total += c;
            EXPECT_EQ(total, 200); // Faults never change the shot sum.
        }
    EXPECT_EQ(a.stats().toString(), b.stats().toString());
}

TEST(FaultInjection, UncorruptedInjectionsOfOneDriftStateAreIdentical)
{
    // The executor reuses a phase's shot result when an attempt would
    // execute a schedule it already ran, keyed on driftApplied alone.
    // That needs this contract: within a run, every uncorrupted
    // injection with the same driftApplied yields the same schedule.
    const Rig rig;
    FaultPlan plan;
    plan.transientRate = 0.2;
    plan.timeoutRate = 0.1;
    plan.awgNanRate = 0.15;
    plan.awgDropRate = 0.15;
    plan.driftRate = 0.5;
    plan.driftFreqKhz = 4000.0;
    plan.driftAmpError = 0.2;

    FaultInjector injector(plan);
    const Schedule clean = rig.x180Schedule();
    const std::uint64_t clean_hash = store::hashSchedule(clean);
    int drifted = 0, uncorrupted = 0;
    for (std::uint64_t run = 0; run < 24; ++run) {
        std::optional<std::uint64_t> drifted_hash;
        for (int attempt = 0; attempt < 6; ++attempt) {
            // A mid-run recalibration clears the spike for the rest
            // of the run, as the drift watchdog's refresh does.
            if (attempt == 3)
                injector.recalibrate();
            const auto injection = injector.inject(clean, run, attempt);
            if (injection.corrupted)
                continue;
            ++uncorrupted;
            const std::uint64_t hash =
                store::hashSchedule(injection.schedule);
            if (!injection.driftApplied) {
                EXPECT_EQ(hash, clean_hash);
                continue;
            }
            ++drifted;
            EXPECT_NE(hash, clean_hash);
            if (!drifted_hash)
                drifted_hash = hash;
            EXPECT_EQ(hash, *drifted_hash)
                << "run " << run << " attempt " << attempt;
        }
    }
    // Both kinds of uncorrupted injection were exercised.
    EXPECT_GT(drifted, 0);
    EXPECT_GT(uncorrupted, drifted);
}

TEST(FaultInjection, ExecutorBitIdenticalAcrossThreadCounts)
{
    const Rig rig;
    FaultPlan plan;
    plan.transientRate = 0.25;
    plan.awgNanRate = 0.2;
    plan.awgDropRate = 0.15;
    plan.driftRate = 0.3;
    plan.driftFreqKhz = 4000.0;
    plan.driftAmpError = 0.2;
    plan.readoutFlipRate = 0.05;

    const telemetry::Counter &reuses =
        telemetry::MetricsRegistry::global().counter(
            "executor.shot_reuses");
    // The default watchdog, then one rejecting every batch, whose
    // retries repeat schedules and so reuse shot results.
    const DriftWatchdogPolicy watchdogs[] = {DriftWatchdogPolicy{},
                                             rejectEveryBatch()};
    const auto run_all = [&](std::vector<std::uint64_t> &reused) {
        std::vector<ResilientOutcome> outcomes;
        for (const DriftWatchdogPolicy &watchdog : watchdogs) {
            ResilientExecutor executor(rig.backend, RetryPolicy{},
                                       watchdog);
            executor.setFaultInjector(
                std::make_shared<FaultInjector>(plan));
            ResilientRequest request;
            request.schedule = rig.x180Schedule();
            request.key = "x180/q0";
            request.fallback = rig.twoX90Schedule();
            for (int run = 0; run < 3; ++run) {
                const std::uint64_t start = reuses.value();
                outcomes.push_back(executor.run(
                    rig.sim, request, shotOptions(192)));
                reused.push_back(reuses.value() - start);
            }
        }
        return outcomes;
    };

    // A run is sequential down to its shots, so the same runs on
    // another thread, whose thread-local workspace starts empty, must
    // be bit-identical.
    std::vector<std::uint64_t> sequential_reuses, threaded_reuses;
    const auto sequential = run_all(sequential_reuses);
    const auto threaded =
        std::async(std::launch::async, [&] {
            return run_all(threaded_reuses);
        }).get();
    EXPECT_EQ(sequential_reuses, threaded_reuses);
    std::uint64_t total_reuses = 0;
    for (const std::uint64_t n : sequential_reuses)
        total_reuses += n;
    EXPECT_GT(total_reuses, 0u); // The comparison is not vacuous.
    ASSERT_EQ(sequential.size(), threaded.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_EQ(sequential[i].status.code(),
                  threaded[i].status.code());
        EXPECT_EQ(sequential[i].result.counts,
                  threaded[i].result.counts);
        EXPECT_EQ(sequential[i].usedFallback, threaded[i].usedFallback);
        EXPECT_EQ(sequential[i].degraded, threaded[i].degraded);
        EXPECT_EQ(sequential[i].stats.toString(),
                  threaded[i].stats.toString());
    }
}

TEST(Retry, ExhaustedBudgetPreservesTerminalError)
{
    const Rig rig;
    FaultPlan plan;
    plan.transientRate = 1.0;
    RetryPolicy retry;
    retry.maxAttempts = 3;

    ResilientExecutor executor(rig.backend, retry);
    executor.setFaultInjector(std::make_shared<FaultInjector>(plan));
    ResilientRequest request;
    request.schedule = rig.x180Schedule();

    const ResilientOutcome outcome =
        executor.run(rig.sim, request, shotOptions());
    EXPECT_EQ(outcome.status.code(), ErrorCode::RetriesExhausted);
    EXPECT_EQ(outcome.lastError.code(), ErrorCode::TransientFailure);
    EXPECT_EQ(outcome.stats.attempts, 3);
    EXPECT_EQ(outcome.stats.retries, 2);
    EXPECT_EQ(outcome.stats.transientFailures, 3);
    EXPECT_TRUE(outcome.result.counts.empty());
}

TEST(Retry, TimeoutClassPreserved)
{
    const Rig rig;
    FaultPlan plan;
    plan.timeoutRate = 1.0;
    RetryPolicy retry;
    retry.maxAttempts = 2;

    ResilientExecutor executor(rig.backend, retry);
    executor.setFaultInjector(std::make_shared<FaultInjector>(plan));
    ResilientRequest request;
    request.schedule = rig.x180Schedule();

    const ResilientOutcome outcome =
        executor.run(rig.sim, request, shotOptions());
    EXPECT_EQ(outcome.status.code(), ErrorCode::RetriesExhausted);
    EXPECT_EQ(outcome.lastError.code(), ErrorCode::Timeout);
    EXPECT_EQ(outcome.stats.timeouts, 2);
}

TEST(Retry, CorruptedUploadsCaughtByTheGateAndRetried)
{
    const Rig rig;
    FaultPlan plan;
    plan.awgNanRate = 1.0; // Every upload carries a NaN glitch.
    RetryPolicy retry;
    retry.maxAttempts = 3;

    ResilientExecutor executor(rig.backend, retry);
    executor.setFaultInjector(std::make_shared<FaultInjector>(plan));
    ResilientRequest request;
    request.schedule = rig.x180Schedule();

    const ResilientOutcome outcome =
        executor.run(rig.sim, request, shotOptions());
    EXPECT_EQ(outcome.status.code(), ErrorCode::RetriesExhausted);
    EXPECT_EQ(outcome.lastError.code(), ErrorCode::NonFiniteSample);
    EXPECT_EQ(outcome.stats.corruptedSchedules, 3);
    EXPECT_EQ(outcome.stats.validationRejects, 3);
}

TEST(DriftWatchdog, RecalibratesExactlyOncePerCrossing)
{
    const Rig rig;
    FaultPlan plan;
    plan.driftRate = 1.0; // A spike at every run boundary.
    plan.driftFreqKhz = 8000.0;
    plan.driftAmpError = 0.3;

    DriftWatchdogPolicy watchdog;
    watchdog.tolerance = 0.1;
    watchdog.maxRecalibrations = 2;

    ResilientExecutor executor(rig.backend, RetryPolicy{}, watchdog);
    const auto injector = std::make_shared<FaultInjector>(plan);
    executor.setFaultInjector(injector);
    int hook_calls = 0;
    executor.setRecalibrationHook([&hook_calls] { ++hook_calls; });

    ResilientRequest request;
    request.schedule = rig.x180Schedule();

    const ResilientOutcome first =
        executor.run(rig.sim, request, shotOptions(512));
    EXPECT_TRUE(first.status.ok()) << first.status.toString();
    EXPECT_FALSE(first.degraded);
    EXPECT_EQ(first.stats.recalibrations, 1);
    EXPECT_EQ(injector->stats().driftSpikes, 1);
    EXPECT_EQ(hook_calls, 1);
    // The post-recalibration batch recovered to within tolerance.
    EXPECT_LE(first.baseline - first.proxy, watchdog.tolerance);

    // The next run drifts again (rate 1): a new crossing, one more
    // targeted refresh — never a second one for the same crossing.
    const ResilientOutcome second =
        executor.run(rig.sim, request, shotOptions(512));
    EXPECT_TRUE(second.status.ok()) << second.status.toString();
    EXPECT_EQ(second.stats.recalibrations, 1);
    EXPECT_EQ(hook_calls, 2);
    EXPECT_EQ(executor.stats().recalibrations, 2);
}

TEST(Degradation, InvalidPrimaryFallsBackBitIdentically)
{
    const Rig rig;
    // A miscalibrated augmented entry: an envelope past the OpenPulse
    // |d| <= 1 bound (as an uploaded sample buffer — the ScaledWaveform
    // wrapper itself refuses to be built that way).
    Schedule bad_primary("direct_rx");
    bad_primary.play(driveChannel(0),
                     std::make_shared<SampledWaveform>(
                         std::vector<Complex>(160, Complex{1.2, 0.0}),
                         "saturated_rx"));

    ResilientExecutor executor(rig.backend);
    ResilientRequest request;
    request.schedule = bad_primary;
    request.key = "direct_rx/q0";
    request.fallback = rig.twoX90Schedule();

    const PulseShotOptions opts = shotOptions();
    const ResilientOutcome outcome =
        executor.run(rig.sim, request, opts);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.toString();
    EXPECT_TRUE(outcome.usedFallback);
    EXPECT_EQ(outcome.stats.fallbacks, 1);
    EXPECT_EQ(outcome.stats.validationRejects, 1);
    EXPECT_EQ(outcome.lastError.code(),
              ErrorCode::AmplitudeSaturation);

    // The degraded path is the standard flow, bit for bit.
    const PulseShotResult direct =
        rig.backend->runShots(rig.sim, rig.twoX90Schedule(), opts);
    EXPECT_EQ(outcome.result.counts, direct.counts);

    // The failing entry is now stale: the next run skips the primary.
    EXPECT_TRUE(executor.entryStale("direct_rx/q0"));
    const ResilientOutcome next = executor.run(rig.sim, request, opts);
    EXPECT_TRUE(next.status.ok());
    EXPECT_TRUE(next.usedFallback);
    EXPECT_EQ(next.result.counts, direct.counts);

    // markFresh models a successful recalibration of the entry.
    executor.markFresh("direct_rx/q0");
    EXPECT_FALSE(executor.entryStale("direct_rx/q0"));
}

TEST(Degradation, FailuresWithoutFallbackKeepNoStreak)
{
    const Rig rig;
    FaultPlan plan;
    plan.transientRate = 1.0;
    ResilientExecutor executor(rig.backend);
    executor.setFaultInjector(std::make_shared<FaultInjector>(plan));

    // A unique front-end chunk key with nothing to degrade to: two
    // failed runs must not leave a streak behind, or a long-running
    // service would keep one entry per failed chunk forever.
    ResilientRequest request;
    request.schedule = rig.x180Schedule();
    request.key = "ingest/7/0";
    for (int run = 0; run < 2; ++run)
        EXPECT_EQ(executor.run(rig.sim, request, shotOptions())
                      .status.code(),
                  ErrorCode::RetriesExhausted);
    EXPECT_FALSE(executor.entryStale(request.key));
}

/**
 * The propagator derivations of one cold evolution on a fresh
 * simulator with a fresh cache attached, as the executor's run cache
 * evolves it (a simulator with no cache attached derives none for its
 * short steps).
 */
std::uint64_t
coldDerivations(const Rig &rig, const Schedule &schedule)
{
    const telemetry::Counter &derivations =
        telemetry::MetricsRegistry::global().counter("sim.expm.calls");
    const std::uint64_t start = derivations.value();
    Vector ground(rig.sim.model().dim());
    ground[0] = Complex{1.0, 0.0};
    PulseSimulator cold(rig.sim);
    cold.setPropagatorCache(std::make_shared<PropagatorCache>());
    (void)cold.evolveState(schedule, ground);
    return derivations.value() - start;
}

TEST(RunCache, BaselineAndEveryAttemptDeriveEachPropagatorOnce)
{
    const Rig rig;
    const Schedule schedule = rig.x180Schedule();
    const telemetry::Counter &expm_calls =
        telemetry::MetricsRegistry::global().counter("sim.expm.calls");

    // D: the derivations of one cold evolution.
    const std::uint64_t derivations = coldDerivations(rig, schedule);
    ASSERT_GT(derivations, 0u);

    const PulseShotOptions opts = shotOptions(128);
    const PulseShotResult reference =
        rig.backend->runShots(rig.sim, schedule, opts);
    ResilientRequest request;
    request.schedule = schedule;

    // Fault-free: the clean baseline derives every propagator, and
    // runShots' warm-up and shots only hit.
    ResilientExecutor executor(rig.backend);
    std::uint64_t start = expm_calls.value();
    const ResilientOutcome clean = executor.run(rig.sim, request, opts);
    EXPECT_EQ(expm_calls.value() - start, derivations);
    EXPECT_TRUE(clean.status.ok()) << clean.status.toString();
    EXPECT_EQ(clean.stats.attempts, 1);
    EXPECT_EQ(clean.result.counts, reference.counts);

    // A watchdog that rejects every batch: four attempts, one runShots
    // call, and still no propagator derived twice.
    DriftWatchdogPolicy reject_all;
    reject_all.tolerance = -1.0;
    ResilientExecutor rejecting(rig.backend, RetryPolicy{}, reject_all);
    start = expm_calls.value();
    const ResilientOutcome retried =
        rejecting.run(rig.sim, request, opts);
    EXPECT_EQ(expm_calls.value() - start, derivations);
    EXPECT_EQ(retried.stats.attempts, 4);
    EXPECT_TRUE(retried.degraded);
    EXPECT_EQ(retried.result.counts, reference.counts);
}

/** backend.runs and executor.shot_reuses added by one executor run. */
struct ShotWork
{
    std::uint64_t runs = 0;
    std::uint64_t reuses = 0;
};

ShotWork
shotWorkOf(ResilientExecutor &executor, const Rig &rig,
           const PulseShotOptions &opts, ResilientOutcome &outcome)
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    const telemetry::Counter &runs = registry.counter("backend.runs");
    const telemetry::Counter &reuses =
        registry.counter("executor.shot_reuses");
    const std::uint64_t runs0 = runs.value();
    const std::uint64_t reuses0 = reuses.value();
    ResilientRequest request;
    request.schedule = rig.x180Schedule();
    outcome = executor.run(rig.sim, request, opts);
    return {runs.value() - runs0, reuses.value() - reuses0};
}

TEST(ShotReuse, IdenticalRetriesRunTheScheduleOnce)
{
    // No faults, and a watchdog that rejects every batch: the four
    // attempts would run one schedule with one seed four times.
    const Rig rig;
    const PulseShotOptions opts = shotOptions(128);
    const PulseShotResult reference =
        rig.backend->runShots(rig.sim, rig.x180Schedule(), opts);

    ResilientExecutor executor(rig.backend, RetryPolicy{},
                               rejectEveryBatch());
    ResilientOutcome outcome;
    const ShotWork work = shotWorkOf(executor, rig, opts, outcome);
    EXPECT_EQ(work.runs, 1u);
    EXPECT_EQ(work.reuses, 3u);
    EXPECT_EQ(outcome.stats.attempts, 4);
    EXPECT_TRUE(outcome.degraded);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.toString();
    EXPECT_EQ(outcome.result.counts, reference.counts);

    // Under a virtual-time deadline too, and a reuse charges nothing:
    // the budget pays for the one runShots call alone.
    const auto one_run = static_cast<std::uint64_t>(
        rig.x180Schedule().duration() * opts.shots);
    PulseShotOptions virtual_opts = opts;
    virtual_opts.deadline = Deadline::virtualBudget(4 * one_run);
    const ShotWork virtual_work =
        shotWorkOf(executor, rig, virtual_opts, outcome);
    EXPECT_EQ(virtual_work.runs, 1u);
    EXPECT_EQ(virtual_work.reuses, 3u);
    EXPECT_EQ(virtual_opts.deadline.remainingUnits(), 3 * one_run);
    EXPECT_EQ(outcome.stats.attempts, 4);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.toString();
    EXPECT_FALSE(outcome.result.partial);
    EXPECT_EQ(outcome.result.counts, reference.counts);
}

TEST(ShotReuse, ChangedSchedulesStillRun)
{
    const Rig rig;
    const PulseShotOptions opts = shotOptions(128);

    // A drift spike: the first attempt runs the drifted schedule, the
    // recalibration clears it, and the second runs the clean one. The
    // last two attempts repeat the second.
    FaultPlan drift;
    drift.driftRate = 1.0;
    drift.driftFreqKhz = 8000.0;
    drift.driftAmpError = 0.3;
    const auto drifted = FaultInjector(drift).inject(rig.x180Schedule(),
                                                     0, 0);
    ASSERT_TRUE(drifted.driftApplied);
    const std::uint64_t clean_derivations =
        coldDerivations(rig, rig.x180Schedule());
    const std::uint64_t drifted_derivations =
        coldDerivations(rig, drifted.schedule);
    ASSERT_GT(clean_derivations, 0u);
    ASSERT_GT(drifted_derivations, 0u);
    ResilientExecutor drifting(rig.backend, RetryPolicy{},
                               rejectEveryBatch());
    drifting.setFaultInjector(std::make_shared<FaultInjector>(drift));
    const telemetry::Counter &expm_calls =
        telemetry::MetricsRegistry::global().counter("sim.expm.calls");
    const std::uint64_t derived_start = expm_calls.value();
    ResilientOutcome outcome;
    ShotWork work = shotWorkOf(drifting, rig, opts, outcome);
    EXPECT_EQ(work.runs, 2u);
    EXPECT_EQ(work.reuses, 2u);
    EXPECT_EQ(outcome.stats.attempts, 4);
    // The clean baseline and the drifted attempt derive their
    // propagators; the clean attempt's runShots after the
    // recalibration only hits the run's cache.
    EXPECT_EQ(expm_calls.value() - derived_start,
              clean_derivations + drifted_derivations);

    // Every upload loses a random chunk of samples but passes the
    // validation gate: each attempt executes its own corrupted copy.
    FaultPlan drop;
    drop.awgDropRate = 1.0;
    ResilientExecutor dropping(rig.backend, RetryPolicy{},
                               rejectEveryBatch());
    dropping.setFaultInjector(std::make_shared<FaultInjector>(drop));
    work = shotWorkOf(dropping, rig, opts, outcome);
    EXPECT_EQ(work.runs, 4u);
    EXPECT_EQ(work.reuses, 0u);
    EXPECT_EQ(outcome.stats.attempts, 4);
    EXPECT_EQ(outcome.stats.validationRejects, 0);
}

TEST(ShotReuse, ReadoutFaultsStayPerAttempt)
{
    // Readout faults are drawn per (run, attempt) on each attempt's
    // own copy of the counts, reused or not. The values are pinned
    // from an executor that re-ran every attempt.
    const Rig rig;
    FaultPlan plan;
    plan.readoutFlipRate = 0.2;
    ResilientExecutor executor(rig.backend, RetryPolicy{},
                               rejectEveryBatch());
    executor.setFaultInjector(std::make_shared<FaultInjector>(plan));
    ResilientOutcome outcome;
    const ShotWork work =
        shotWorkOf(executor, rig, shotOptions(128), outcome);
    EXPECT_EQ(work.runs + work.reuses, 4u);
    EXPECT_EQ(outcome.result.counts, (std::vector<long>{6, 111, 11}));
    EXPECT_EQ(outcome.stats.readoutFaultShots, 96);
    EXPECT_TRUE(outcome.degraded);
}

TEST(RbUnderFaults, BatchedAccountingDeterministicAndOptIn)
{
    const auto backend = makeCalibratedBackend(almadenLineConfig(1));
    RbConfig config;
    config.minLength = 2;
    config.maxLength = 4;
    config.lengthStride = 2;
    config.sequencesPerLength = 2;
    config.shots = 200;
    config.faultMaxAttempts = 3;
    config.faultPlan.transientRate = 0.6;
    config.faultPlan.readoutFlipRate = 0.05;

    const RbResult first = runRb(backend, RbMode::Standard, config);
    const RbResult second = runRb(backend, RbMode::Standard, config);
    ASSERT_EQ(first.decay.size(), second.decay.size());
    for (std::size_t i = 0; i < first.decay.size(); ++i)
        EXPECT_DOUBLE_EQ(first.decay[i].survival,
                         second.decay[i].survival);
    EXPECT_EQ(first.resilience.toString(),
              second.resilience.toString());

    // 2 lengths x 2 sequences = 4 cells, each charged 1..3 attempts.
    EXPECT_GE(first.resilience.attempts, 4);
    EXPECT_LE(first.resilience.attempts, 12);
    EXPECT_GT(first.resilience.readoutFaultShots, 0);

    // Disabled plan (the default) leaves the accounting untouched.
    RbConfig plain = config;
    plain.faultPlan = FaultPlan{};
    const RbResult clean = runRb(backend, RbMode::Standard, plain);
    EXPECT_EQ(clean.resilience.attempts, 0);
    EXPECT_EQ(clean.resilience.readoutFaultShots, 0);
}

} // namespace
} // namespace qpulse
