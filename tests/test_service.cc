/**
 * @file
 * Tests for the execution-service layer: cooperative cancellation
 * (CancelToken), wall-clock and virtual-time deadlines, partial shot
 * results surfacing through PulseBackend::runShots and the
 * ResilientExecutor, the new structured
 * validation codes (empty-schedule / zero-duration-play), the
 * per-backend circuit breaker state machine, and the ExecutionService
 * itself — admission control (reject vs shed), priority draining,
 * the queue-wait histogram, wedged-backend fast fail, and the
 * virtual-time determinism contract (bit-identical stats and outcomes
 * across thread counts).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>

#include "common/cancellation.h"
#include "common/status.h"
#include "compile/compiler.h"
#include "device/fault_injector.h"
#include "device/resilient_executor.h"
#include "device/schedule_validation.h"
#include "service/circuit_breaker.h"
#include "service/execution_service.h"
#include "telemetry/metrics.h"

namespace qpulse {
namespace {

/** Calibrated single-qubit rig shared by the service tests. */
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

// ---------------------------------------------------------------------
// CancelToken / Deadline primitives.

TEST(Cancellation, InertTokenNeverFiresAndIsFreeToCheck)
{
    CancelToken token;
    EXPECT_FALSE(token.cancellable());
    EXPECT_FALSE(token.cancelled());
    token.cancel(); // No-op, must not crash.
    EXPECT_FALSE(token.cancelled());
    EXPECT_TRUE(token.reason().ok());
}

TEST(Cancellation, FirstCancelWinsAndCopiesShareState)
{
    CancelToken token = CancelToken::make();
    CancelToken copy = token;
    EXPECT_TRUE(token.cancellable());
    EXPECT_FALSE(token.cancelled());

    copy.cancel(Status::error(ErrorCode::Cancelled, "first"));
    token.cancel(Status::error(ErrorCode::Cancelled, "second"));
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason().message(), "first");
    EXPECT_EQ(copy.reason().message(), "first");
}

TEST(Cancellation, VirtualBudgetAdmitsTheCrossingChargeThenRefuses)
{
    const Deadline deadline = Deadline::virtualBudget(100);
    EXPECT_TRUE(deadline.isVirtual());
    EXPECT_FALSE(deadline.expired());
    EXPECT_EQ(deadline.remainingUnits(), 100u);

    EXPECT_TRUE(deadline.tryCharge(60));  // 60 spent.
    EXPECT_TRUE(deadline.tryCharge(60));  // Crossing unit: admitted.
    EXPECT_TRUE(deadline.expired());
    EXPECT_FALSE(deadline.tryCharge(1));  // After the boundary: refused.
    EXPECT_EQ(deadline.remainingUnits(), 0u);
}

TEST(Cancellation, UnlimitedAndWallClockDeadlines)
{
    const Deadline none = Deadline::none();
    EXPECT_TRUE(none.unlimited());
    EXPECT_FALSE(none.expired());
    EXPECT_TRUE(none.tryCharge(1u << 30));

    const Deadline past = Deadline::afterMs(0.0);
    EXPECT_FALSE(past.isVirtual());
    EXPECT_TRUE(past.expired());
    EXPECT_FALSE(past.tryCharge(1));

    const Deadline future = Deadline::afterMs(60'000.0);
    EXPECT_FALSE(future.expired());
}

TEST(Cancellation, CheckPrefersCancellationOverExpiry)
{
    CancelToken token = CancelToken::make();
    const Deadline expired = Deadline::virtualBudget(0);
    EXPECT_EQ(expired.check(token).code(),
              ErrorCode::DeadlineExceeded);
    token.cancel();
    EXPECT_EQ(expired.check(token).code(), ErrorCode::Cancelled);
}

TEST(Cancellation, AfterMsOrBudgetFollowsTheEnvFlip)
{
    {
        EnvGuard guard("QPULSE_VIRTUAL_TIME", nullptr);
        EXPECT_FALSE(virtualTimeEnabled());
        EXPECT_FALSE(Deadline::afterMsOrBudget(50.0, 100).isVirtual());
    }
    {
        EnvGuard guard("QPULSE_VIRTUAL_TIME", "1");
        EXPECT_TRUE(virtualTimeEnabled());
        const Deadline deadline = Deadline::afterMsOrBudget(50.0, 100);
        EXPECT_TRUE(deadline.isVirtual());
        EXPECT_EQ(deadline.remainingUnits(), 100u);
    }
}

// ---------------------------------------------------------------------
// Validation satellites: distinct structured codes.

TEST(Validation, EmptyScheduleRejectedWithDistinctCode)
{
    const Rig rig;
    const Schedule empty("nothing");
    const Status status = validateSchedule(empty, rig.config);
    EXPECT_EQ(status.code(), ErrorCode::EmptySchedule);
    EXPECT_EQ(std::string(errorCodeName(status.code())),
              "empty-schedule");
}

TEST(Validation, ZeroDurationPlayRejectedWithDistinctCode)
{
    const Rig rig;
    Schedule schedule("empty_play");
    schedule.play(driveChannel(0), std::make_shared<ConstantWaveform>(
                                       0, Complex{0.1, 0.0}));
    const Status status = validateSchedule(schedule, rig.config);
    EXPECT_EQ(status.code(), ErrorCode::ZeroDurationPlay);
    EXPECT_EQ(std::string(errorCodeName(status.code())),
              "zero-duration-play");
}

// ---------------------------------------------------------------------
// Partial results through runShots.

TEST(PartialResults, FullRunIsNotPartial)
{
    const Rig rig;
    const PulseShotResult result =
        rig.backend->runShots(rig.sim, rig.x180Schedule(),
                              shotOptions(64));
    EXPECT_FALSE(result.partial);
    EXPECT_TRUE(result.interruption.ok());
    EXPECT_EQ(result.shotsRequested, 64);
    EXPECT_EQ(result.shotsCompleted, 64);
}

TEST(PartialResults, PreCancelledRunReturnsEmptyPartial)
{
    const Rig rig;
    PulseShotOptions opts = shotOptions(64);
    opts.token = CancelToken::make();
    opts.token.cancel();
    const PulseShotResult result =
        rig.backend->runShots(rig.sim, rig.x180Schedule(), opts);
    EXPECT_TRUE(result.partial);
    EXPECT_EQ(result.interruption.code(), ErrorCode::Cancelled);
    EXPECT_EQ(result.shotsCompleted, 0);
    long total = 0;
    for (long c : result.counts)
        total += c;
    EXPECT_EQ(total, 0);
}

TEST(PartialResults, VirtualBudgetYieldsDeterministicPartialCounts)
{
    const Rig rig;
    const Schedule schedule = rig.x180Schedule();
    const auto duration =
        static_cast<std::uint64_t>(schedule.duration());
    const long shots = 256;
    // Budget for roughly half the shots, in simulated samples.
    const std::uint64_t budget =
        duration * static_cast<std::uint64_t>(shots) / 2;

    const auto run = [&] {
        PulseShotOptions opts = shotOptions(shots);
        opts.deadline = Deadline::virtualBudget(budget);
        return rig.backend->runShots(rig.sim, schedule, opts);
    };
    const PulseShotResult first = run();
    const PulseShotResult second = run();

    EXPECT_TRUE(first.partial);
    EXPECT_EQ(first.interruption.code(), ErrorCode::DeadlineExceeded);
    EXPECT_GT(first.shotsCompleted, 0);
    EXPECT_LT(first.shotsCompleted, shots);

    // The determinism contract: admitted batches — and therefore the
    // partial counts — are a pure function of the workload.
    EXPECT_EQ(first.shotsCompleted, second.shotsCompleted);
    EXPECT_EQ(first.counts, second.counts);
    EXPECT_EQ(first.partial, second.partial);
    EXPECT_EQ(first.interruption.code(), second.interruption.code());

    long total = 0;
    for (long c : first.counts)
        total += c;
    EXPECT_EQ(total, first.shotsCompleted);
}

// ---------------------------------------------------------------------
// Executor integration: deadlines and cancellation.

TEST(ExecutorDeadlines, VirtualExpirySurfacesPartialResult)
{
    const Rig rig;
    ResilientExecutor executor(rig.backend);
    ResilientRequest request;
    request.schedule = rig.x180Schedule();

    PulseShotOptions opts = shotOptions(256);
    opts.deadline = Deadline::virtualBudget(
        static_cast<std::uint64_t>(request.schedule.duration()) * 128);
    const ResilientOutcome outcome =
        executor.run(rig.sim, request, opts);
    EXPECT_EQ(outcome.status.code(), ErrorCode::DeadlineExceeded);
    EXPECT_TRUE(outcome.result.partial);
    EXPECT_GT(outcome.result.shotsCompleted, 0);
    EXPECT_LT(outcome.result.shotsCompleted, 256);
}

TEST(ExecutorDeadlines, CancelledBeforeRunTerminatesWithoutAttempts)
{
    const Rig rig;
    ResilientExecutor executor(rig.backend);
    ResilientRequest request;
    request.schedule = rig.x180Schedule();

    PulseShotOptions opts = shotOptions(64);
    opts.token = CancelToken::make();
    opts.token.cancel();
    const ResilientOutcome outcome =
        executor.run(rig.sim, request, opts);
    EXPECT_EQ(outcome.status.code(), ErrorCode::Cancelled);
    EXPECT_EQ(outcome.stats.attempts, 0);
    EXPECT_TRUE(outcome.result.partial);
    EXPECT_EQ(outcome.result.shotsCompleted, 0);
}

TEST(ExecutorDeadlines, CancelMidRetryStopsTheAttemptLoop)
{
    const Rig rig;
    FaultPlan plan;
    plan.driftRate = 1.0;
    plan.driftFreqKhz = 8000.0;
    plan.driftAmpError = 0.3;

    RetryPolicy retry;
    retry.maxAttempts = 6;
    ResilientExecutor executor(rig.backend, retry);
    executor.setFaultInjector(std::make_shared<FaultInjector>(plan));

    // The drift watchdog fires, triggers recalibration — and the hook
    // cancels the job, as a service shedding load mid-recovery would.
    PulseShotOptions opts = shotOptions(128);
    opts.token = CancelToken::make();
    executor.setRecalibrationHook(
        [&opts] { opts.token.cancel(); });

    ResilientRequest request;
    request.schedule = rig.x180Schedule();
    const ResilientOutcome outcome =
        executor.run(rig.sim, request, opts);
    EXPECT_EQ(outcome.status.code(), ErrorCode::Cancelled);
    EXPECT_GE(outcome.stats.recalibrations, 1);
    EXPECT_LT(outcome.stats.attempts, retry.maxAttempts);
}

TEST(ExecutorFaults, FallbackAndRecalibrationUnderEnvPlanWithDeadline)
{
    EnvGuard guard("QPULSE_FAULT_PLAN",
                   "seed=7,drift=1,drift_khz=9000,drift_amp=0.35");
    const Rig rig;
    RetryPolicy retry;
    retry.maxAttempts = 2;
    DriftWatchdogPolicy watchdog;
    watchdog.tolerance = 0.05;
    watchdog.maxRecalibrations = 1;
    ResilientExecutor executor(rig.backend, retry, watchdog);
    executor.setFaultInjector(
        std::make_shared<FaultInjector>(FaultPlan::fromEnv()));

    ResilientRequest request;
    request.schedule = rig.x180Schedule();
    request.key = "x180/q0";
    request.fallback = rig.twoX90Schedule();

    // A generous virtual budget: the deadline machinery is live but
    // must not interfere with recovery.
    PulseShotOptions opts = shotOptions(128);
    opts.deadline = Deadline::virtualBudget(
        static_cast<std::uint64_t>(request.schedule.duration()) *
        1'000'000);
    const ResilientOutcome outcome =
        executor.run(rig.sim, request, opts);

    // Recovery ran its course under the deadline: recalibration fired
    // and the run terminated structurally (either an accepted result
    // or RetriesExhausted after both phases), never deadline-exceeded.
    EXPECT_GE(outcome.stats.recalibrations, 1);
    EXPECT_NE(outcome.status.code(), ErrorCode::DeadlineExceeded);
    EXPECT_FALSE(outcome.result.partial);
}

// ---------------------------------------------------------------------
// Circuit breaker state machine.

TEST(Breaker, TripsAfterWindowedFailureRateAndRecovers)
{
    CircuitBreakerPolicy policy;
    policy.window = 4;
    policy.minSamples = 2;
    policy.openFailureRate = 0.5;
    policy.cooldownDenials = 2;
    policy.halfOpenSuccesses = 2;
    CircuitBreaker breaker(policy);

    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_TRUE(breaker.allow());
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Closed); // 1 < minSamples.
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Open); // 2/2 failures.
    EXPECT_EQ(breaker.trips(), 1u);

    // Cooldown counted in denied calls, then a Half-Open probe.
    EXPECT_FALSE(breaker.allow());
    EXPECT_FALSE(breaker.allow());
    EXPECT_EQ(breaker.denials(), 2u);
    EXPECT_TRUE(breaker.allow());
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);

    // A probe failure re-opens; a success streak closes.
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_FALSE(breaker.allow());
    EXPECT_FALSE(breaker.allow());
    EXPECT_TRUE(breaker.allow());
    breaker.recordSuccess();
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    breaker.recordSuccess();
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
}

TEST(Breaker, PolicyValidationRejectsDegenerateConfigs)
{
    const CircuitBreakerPolicy good;
    EXPECT_TRUE(validateBreakerPolicy(good).ok());

    CircuitBreakerPolicy bad = good;
    bad.window = 0;
    EXPECT_EQ(validateBreakerPolicy(bad).code(),
              ErrorCode::InvalidArgument);

    bad = good;
    bad.minSamples = bad.window + 1; // Rate never evaluated.
    const Status neverOpens = validateBreakerPolicy(bad);
    EXPECT_EQ(neverOpens.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(neverOpens.message().find("never"), std::string::npos)
        << neverOpens.message();

    bad = good;
    bad.openFailureRate = 1.5; // Rate can never exceed 1.
    EXPECT_EQ(validateBreakerPolicy(bad).code(),
              ErrorCode::InvalidArgument);

    bad = good;
    bad.openFailureRate = 0.0;
    EXPECT_EQ(validateBreakerPolicy(bad).code(),
              ErrorCode::InvalidArgument);

    bad = good;
    bad.cooldownDenials = -1;
    EXPECT_EQ(validateBreakerPolicy(bad).code(),
              ErrorCode::InvalidArgument);

    bad = good;
    bad.halfOpenSuccesses = 0; // Open could never close again.
    EXPECT_EQ(validateBreakerPolicy(bad).code(),
              ErrorCode::InvalidArgument);
    // The constructor throws the same structured Status.
    EXPECT_THROW(CircuitBreaker breaker(bad), StatusError);
}

TEST(Breaker, ServiceRefusesToStartWithDegenerateBreakerPolicy)
{
    const Rig rig;
    ServicePolicy policy;
    policy.queueCapacity = 4;
    policy.breaker.minSamples = policy.breaker.window + 1;
    EXPECT_THROW(ExecutionService service(rig.backend, rig.sim,
                                          policy),
                 StatusError);
}

// ---------------------------------------------------------------------
// ExecutionService: admission control, draining, fast fail.

ServicePolicy
smallQueuePolicy(std::size_t capacity)
{
    ServicePolicy policy;
    policy.queueCapacity = capacity;
    policy.maxThreads = 1;
    return policy;
}

JobRequest
makeJob(const Rig &rig, int priority, long shots = 32)
{
    JobRequest job;
    job.schedule = rig.x180Schedule();
    job.shots = shots;
    job.seed = 0xB0B;
    job.priority = priority;
    return job;
}

/** A circuit-carrying job: the drain lowers rx(theta) itself. */
JobRequest
rxCircuitJob(double theta, int priority)
{
    QuantumCircuit circuit(1);
    circuit.rx(theta, 0);
    JobRequest job;
    job.circuit = circuit;
    job.key = "rx";
    job.shots = 64;
    job.seed = 0xC1C;
    job.priority = priority;
    return job;
}

TEST(Service, AdmissionRejectsWhenNothingOutranked)
{
    const Rig rig;
    ExecutionService service(rig.backend, rig.sim,
                             smallQueuePolicy(2));
    EXPECT_TRUE(service.submit(makeJob(rig, 1)).ok());
    EXPECT_TRUE(service.submit(makeJob(rig, 1)).ok());
    // Equal priority never displaces a queued job.
    const Status rejected = service.submit(makeJob(rig, 1));
    EXPECT_EQ(rejected.code(), ErrorCode::ResourceExhausted);
    EXPECT_EQ(service.stats().rejected, 1);
    EXPECT_EQ(service.queueDepth(), 2u);
}

TEST(Service, AdmissionShedsLowestPriorityMostRecentFirst)
{
    const Rig rig;
    ExecutionService service(rig.backend, rig.sim,
                             smallQueuePolicy(3));
    EXPECT_TRUE(service.submit(makeJob(rig, 0)).ok()); // id 0
    EXPECT_TRUE(service.submit(makeJob(rig, 0)).ok()); // id 1
    EXPECT_TRUE(service.submit(makeJob(rig, 2)).ok()); // id 2
    // Ties at priority 0: the most recent (id 1) is the victim.
    EXPECT_TRUE(service.submit(makeJob(rig, 5)).ok()); // id 3
    EXPECT_EQ(service.stats().shed, 1);

    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 4u);
    // Outcomes come back sorted by submission id.
    EXPECT_FALSE(outcomes[0].shed);
    EXPECT_TRUE(outcomes[1].shed);
    EXPECT_EQ(outcomes[1].status.code(), ErrorCode::ResourceExhausted);
    EXPECT_FALSE(outcomes[1].executed);
    EXPECT_FALSE(outcomes[2].shed);
    EXPECT_FALSE(outcomes[3].shed);
    for (const JobOutcome &out : outcomes)
        if (!out.shed) {
            EXPECT_TRUE(out.executed);
            EXPECT_TRUE(out.status.ok()) << out.status.toString();
        }
}

TEST(Service, ShedOutcomeCarriesItsTenant)
{
    const Rig rig;
    ExecutionService service(rig.backend, rig.sim,
                             smallQueuePolicy(2));
    for (int i = 0; i < 2; ++i) {
        JobRequest job = makeJob(rig, 0);
        job.tenant = "alice";
        EXPECT_TRUE(service.submit(std::move(job)).ok());
    }
    JobRequest urgent = makeJob(rig, 5);
    urgent.tenant = "bob";
    EXPECT_TRUE(service.submit(std::move(urgent)).ok());
    EXPECT_EQ(service.stats().shed, 1);

    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 3u);
    ASSERT_TRUE(outcomes[1].shed);
    EXPECT_EQ(outcomes[1].tenant, "alice");
}

TEST(Service, QueueWaitObservedForEveryDrainedJob)
{
    // Every job that leaves the queue records its submit-to-execution
    // wait once, behind either constructor, a job failing a gate
    // included. Refused submissions never queued and record nothing.
    const Rig rig;
    const telemetry::Histogram &waits =
        telemetry::MetricsRegistry::global().histogram(
            "service.queue_wait_us");
    auto pool = std::make_shared<BackendPool>();
    pool->addBackend("b0", rig.backend, rig.sim);
    ExecutionService single(rig.backend, rig.sim, smallQueuePolicy(3));
    ExecutionService fleet(pool, smallQueuePolicy(3));
    for (ExecutionService *service : {&single, &fleet}) {
        JobRequest unknown = makeJob(rig, 1);
        unknown.backendName = "nowhere";
        EXPECT_TRUE(service->submit(makeJob(rig, 1)).ok());
        EXPECT_TRUE(service->submit(std::move(unknown)).ok());
        EXPECT_TRUE(service->submit(makeJob(rig, 1)).ok());
        EXPECT_EQ(service->submit(makeJob(rig, 1)).code(),
                  ErrorCode::ResourceExhausted);

        const std::uint64_t before = waits.snapshot().count;
        const std::vector<JobOutcome> outcomes = service->drain();
        ASSERT_EQ(outcomes.size(), 3u);
        EXPECT_EQ(outcomes[1].status.code(),
                  ErrorCode::InvalidArgument);
        EXPECT_EQ(waits.snapshot().count - before, 3u);
    }
}

TEST(Service, CancelledBeforeAdmissionNeverTakesASlot)
{
    const Rig rig;
    ExecutionService service(rig.backend, rig.sim,
                             smallQueuePolicy(4));
    JobRequest job = makeJob(rig, 1);
    job.token = CancelToken::make();
    job.token.cancel();
    const Status status = service.submit(std::move(job));
    EXPECT_EQ(status.code(), ErrorCode::Cancelled);
    EXPECT_EQ(service.queueDepth(), 0u);
    EXPECT_EQ(service.stats().cancelled, 1);
    EXPECT_EQ(service.stats().admitted, 0);
}

TEST(Service, ZeroShotJobIsRejectedAndItsDrainKeepsEveryOutcome)
{
    // A job without shots is refused at submit, before it takes a
    // slot. Admitted, it would make runShots throw out of drain() and
    // cost every other job of that drain its outcome.
    const Rig rig;
    ExecutionService service(rig.backend, rig.sim,
                             smallQueuePolicy(4));
    EXPECT_TRUE(service.submit(makeJob(rig, 0, 64)).ok());
    for (const long shots : {0L, -1L})
        EXPECT_EQ(service.submit(makeJob(rig, 0, shots)).code(),
                  ErrorCode::InvalidArgument)
            << "shots=" << shots;
    EXPECT_TRUE(service.submit(makeJob(rig, 0, 64)).ok());
    EXPECT_EQ(service.queueDepth(), 2u);
    EXPECT_EQ(service.stats().rejected, 2);
    EXPECT_EQ(service.stats().admitted, 2);

    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 2u);
    for (const JobOutcome &outcome : outcomes) {
        EXPECT_TRUE(outcome.status.ok()) << outcome.status.toString();
        EXPECT_EQ(outcome.execution.result.shotsCompleted, 64);
    }
}

TEST(Service, DrainHandsEachOutcomeOverAsItsJobFinishes)
{
    // A fault-free job is one runShots call, so the backend.runs delta
    // seen by the callback says how many jobs had run when each
    // outcome was handed over: the shed victim before any, then each
    // executed job right after its own run.
    const Rig rig;
    ExecutionService service(rig.backend, rig.sim,
                             smallQueuePolicy(2));
    const char *keys[] = {"low-a", "low-b", "urgent"};
    const int priorities[] = {0, 0, 5};
    for (int i = 0; i < 3; ++i) {
        JobRequest job = makeJob(rig, priorities[i]);
        job.key = keys[i];
        job.seed = 0xB0B + static_cast<std::uint64_t>(i);
        EXPECT_TRUE(service.submit(std::move(job)).ok());
    }
    ASSERT_EQ(service.stats().shed, 1); // "low-b", id 1.

    const telemetry::Counter &runs =
        telemetry::MetricsRegistry::global().counter("backend.runs");
    const std::uint64_t runs0 = runs.value();
    std::vector<JobOutcome> seen;
    std::vector<std::uint64_t> runDeltas;
    const std::vector<JobOutcome> outcomes =
        service.drain([&](const JobOutcome &out) {
            seen.push_back(out);
            runDeltas.push_back(runs.value() - runs0);
        });

    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].key, "low-b");
    EXPECT_TRUE(seen[0].shed);
    EXPECT_EQ(seen[0].drainSeq, -1);
    EXPECT_EQ(seen[1].key, "urgent");
    EXPECT_EQ(seen[1].drainSeq, 0);
    EXPECT_EQ(seen[2].key, "low-a");
    EXPECT_EQ(seen[2].drainSeq, 1);
    EXPECT_EQ(runDeltas, (std::vector<std::uint64_t>{0, 1, 2}));

    // The returned vector is the same outcomes, sorted by id.
    std::vector<JobOutcome> sorted = seen;
    std::sort(sorted.begin(), sorted.end(),
              [](const JobOutcome &a, const JobOutcome &b) {
                  return a.id < b.id;
              });
    ASSERT_EQ(outcomes.size(), sorted.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].id, sorted[i].id) << i;
        EXPECT_EQ(outcomes[i].key, sorted[i].key) << i;
        EXPECT_EQ(outcomes[i].drainSeq, sorted[i].drainSeq) << i;
        EXPECT_EQ(outcomes[i].status.code(), sorted[i].status.code())
            << i;
        EXPECT_EQ(outcomes[i].execution.result.counts,
                  sorted[i].execution.result.counts)
            << i;
    }
    EXPECT_EQ(outcomes[0].execution.result.shotsCompleted, 32);
}

TEST(Service, DrainCallbackSubmitsRunInTheNextDrain)
{
    const Rig rig;
    ExecutionService service(rig.backend, rig.sim,
                             smallQueuePolicy(4));
    JobRequest first = makeJob(rig, 0);
    first.key = "first";
    EXPECT_TRUE(service.submit(std::move(first)).ok());

    std::vector<std::string> seen;
    const std::vector<JobOutcome> outcomes =
        service.drain([&](const JobOutcome &out) {
            seen.push_back(out.key);
            JobRequest follow = makeJob(rig, 0);
            follow.key = "follow";
            EXPECT_TRUE(service.submit(std::move(follow)).ok());
        });
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(seen, std::vector<std::string>{"first"});
    EXPECT_EQ(service.queueDepth(), 1u);

    const std::vector<JobOutcome> next = service.drain();
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0].key, "follow");
    EXPECT_EQ(next[0].drainSeq, 0);
    EXPECT_TRUE(next[0].status.ok()) << next[0].status.toString();
}

TEST(Service, DrainFromItsOwnCallbackThrows)
{
    const Rig rig;
    ExecutionService service(rig.backend, rig.sim,
                             smallQueuePolicy(4));
    EXPECT_TRUE(service.submit(makeJob(rig, 0)).ok());
    EXPECT_THROW(service.drain([&](const JobOutcome &) {
        (void)service.drain();
    }),
                 FatalError);

    // The refusal does not wedge the service: later drains run.
    EXPECT_TRUE(service.submit(makeJob(rig, 0)).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.toString();
}

TEST(Service, WedgedBackendTripsBreakerAndFastFailsTheQueue)
{
    const Rig rig;
    FaultPlan plan;
    plan.timeoutRate = 1.0; // 100% timeouts: fully wedged.

    ServicePolicy policy = smallQueuePolicy(16);
    policy.retry.maxAttempts = 2;
    policy.breaker.window = 4;
    policy.breaker.minSamples = 2;
    policy.breaker.openFailureRate = 0.5;
    policy.breaker.cooldownDenials = 3;
    ExecutionService service(rig.backend, rig.sim, policy);
    service.pool().setFaultInjector(
        "default", std::make_shared<FaultInjector>(plan));

    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(service.submit(makeJob(rig, 0, 16)).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 10u);

    // The first jobs burn their (bounded) retry budget; once the
    // breaker trips, the rest fail fast with `unavailable` instead of
    // timing out one by one — the whole set terminates, no hang.
    int exhausted = 0, fastfailed = 0;
    for (const JobOutcome &out : outcomes) {
        if (out.status.code() == ErrorCode::RetriesExhausted)
            ++exhausted;
        if (out.breakerFastFail) {
            ++fastfailed;
            EXPECT_EQ(out.status.code(), ErrorCode::Unavailable);
            EXPECT_FALSE(out.executed);
        }
    }
    EXPECT_GE(exhausted, 2);
    EXPECT_GE(fastfailed, 3);
    EXPECT_EQ(service.stats().breakerFastFails, fastfailed);
    EXPECT_EQ(service.breaker("default").state(), BreakerState::Open);
}

TEST(Service, UnavailableStatusNamesBackendStateAndCooldown)
{
    const Rig rig;
    ServicePolicy policy = smallQueuePolicy(16);
    policy.retry.maxAttempts = 2;
    policy.breaker.window = 4;
    policy.breaker.minSamples = 2;
    policy.breaker.openFailureRate = 0.5;
    policy.breaker.cooldownDenials = 3;
    ExecutionService service(rig.backend, rig.sim, policy);
    service.pool().setFaultInjector(
        "default", std::make_shared<FaultInjector>([] {
            FaultPlan plan;
            plan.timeoutRate = 1.0;
            return plan;
        }()));

    // Two failed jobs trip the breaker and quarantine the one member;
    // the probe pump after the second spends one cooldown denial, and
    // the third job finds nothing routable.
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(service.submit(makeJob(rig, 0, 16)).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 3u);
    const JobOutcome &denied = outcomes[2];
    ASSERT_TRUE(denied.breakerFastFail);
    EXPECT_FALSE(denied.executed);
    EXPECT_EQ(denied.status.code(), ErrorCode::Unavailable);
    // The message carries the backend name, its admin state, the
    // breaker state and the cooldown progress.
    const std::string &message = denied.status.message();
    EXPECT_NE(message.find("'default'"), std::string::npos) << message;
    EXPECT_NE(message.find("quarantined"), std::string::npos)
        << message;
    EXPECT_NE(message.find("circuit breaker open"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("2 more cooldown denials"),
              std::string::npos)
        << message;
    // The pump after the third job spent one more.
    EXPECT_EQ(service.breaker("default").cooldownRemaining(), 1);
}

TEST(Service, HalfOpenProbeFailureReopensAndRestartsCooldown)
{
    // Deterministic recovery trajectory of a single backend under
    // virtual time: trip -> quarantine -> the probe pump spends the
    // cooldown -> half-open probe fails -> re-open with a fresh
    // cooldown -> fault clears -> probes close the breaker and
    // readmit the member. Jobs never serve as probes: while the
    // member is quarantined every job fails fast without running.
    EnvGuard guard("QPULSE_VIRTUAL_TIME", "1");
    const Rig rig;
    ServicePolicy policy = smallQueuePolicy(16);
    policy.retry.maxAttempts = 2;
    policy.breaker.window = 4;
    policy.breaker.minSamples = 2;
    policy.breaker.openFailureRate = 0.5;
    policy.breaker.cooldownDenials = 2;
    policy.breaker.halfOpenSuccesses = 2;
    ExecutionService service(rig.backend, rig.sim, policy);
    BackendPool &pool = service.pool();
    FaultPlan wedged;
    wedged.timeoutRate = 1.0;
    pool.setFaultInjector("default",
                          std::make_shared<FaultInjector>(wedged));

    const auto drainCodes = [&](int jobs) {
        for (int i = 0; i < jobs; ++i)
            EXPECT_TRUE(service.submit(makeJob(rig, 0, 16)).ok());
        std::vector<ErrorCode> codes;
        for (const JobOutcome &out : service.drain()) {
            codes.push_back(out.status.code());
            if (out.status.code() == ErrorCode::Unavailable) {
                EXPECT_FALSE(out.executed);
            }
        }
        return codes;
    };
    const std::vector<ErrorCode> unavailable{ErrorCode::Unavailable};

    // Trip: two retries-exhausted jobs open the breaker and the
    // member leaves routing.
    EXPECT_EQ(drainCodes(2),
              (std::vector<ErrorCode>{ErrorCode::RetriesExhausted,
                                      ErrorCode::RetriesExhausted}));
    EXPECT_EQ(pool.adminState("default"),
              BackendAdminState::Quarantined);
    EXPECT_EQ(pool.stats().quarantines, 1);

    // Quarantined: each job fails fast while the pump spends the
    // cooldown and runs half-open probes, which fail (still wedged)
    // and restart the cooldown.
    EXPECT_EQ(drainCodes(1), unavailable);
    EXPECT_EQ(drainCodes(1), unavailable);
    EXPECT_EQ(drainCodes(1), unavailable);
    EXPECT_EQ(pool.stats().probes, 2);
    EXPECT_EQ(pool.stats().probeFailures, 2);
    EXPECT_EQ(service.breaker("default").state(), BreakerState::Open);

    // The fault clears: two successful probes close the breaker and
    // readmit the member, and the next job completes.
    pool.setFaultInjector("default", nullptr);
    EXPECT_EQ(drainCodes(2),
              (std::vector<ErrorCode>{ErrorCode::Unavailable,
                                      ErrorCode::Unavailable}));
    EXPECT_EQ(pool.stats().probes, 4);
    EXPECT_EQ(pool.stats().readmissions, 1);
    EXPECT_EQ(service.breaker("default").state(),
              BreakerState::Closed);
    EXPECT_EQ(pool.adminState("default"), BackendAdminState::Active);
    EXPECT_EQ(drainCodes(1),
              (std::vector<ErrorCode>{ErrorCode::Ok}));
    EXPECT_EQ(service.stats().breakerFastFails, 5);
}

TEST(Service, SaturationIsBitIdenticalAcrossThreadCountsUnderVirtualTime)
{
    EnvGuard guard("QPULSE_VIRTUAL_TIME", "1");
    // No store: a second leg must not serve the first leg's compiles.
    EnvGuard no_store("QPULSE_CACHE_DIR", nullptr);
    const Rig rig;
    const Schedule schedule = rig.x180Schedule();
    const auto duration =
        static_cast<std::uint64_t>(schedule.duration());
    const std::vector<std::string> tracked = {
        "compile.cache.hits",
        "compile.cache.misses",
        "compile.cache.persist_hits",
        "threadpool.parallel_for.calls",
    };

    struct RunRecord
    {
        ServiceStats stats;
        std::vector<std::pair<std::uint64_t, ErrorCode>> outcomes;
        std::vector<long> partialShots;
        std::vector<std::uint64_t> counters;
    };
    const auto run = [&](std::size_t max_threads) {
        telemetry::MetricsRegistry &registry =
            telemetry::MetricsRegistry::global();
        const telemetry::MetricsSnapshot before = registry.snapshot();
        ServicePolicy policy = smallQueuePolicy(4);
        policy.maxThreads = max_threads;
        ExecutionService service(rig.backend, rig.sim, policy);
        // Fill the queue with low-priority work, then displace some of
        // it with high-priority jobs; give every job a tight virtual
        // budget so some expire with partial results.
        for (int i = 0; i < 6; ++i) {
            JobRequest job = makeJob(rig, 0, 64);
            job.deadline =
                Deadline::afterMsOrBudget(50.0, duration * 40);
            (void)service.submit(std::move(job));
        }
        for (int i = 0; i < 2; ++i) {
            JobRequest job = makeJob(rig, 5, 64);
            job.deadline =
                Deadline::afterMsOrBudget(50.0, duration * 40);
            (void)service.submit(std::move(job));
        }
        // Two distinct circuits displace the last low-priority jobs,
        // so the drain's precompile has something to lower: on the
        // pool in the 8-thread leg, inline in the 1-thread leg.
        for (const double theta : {0.3, 1.1})
            EXPECT_TRUE(service.submit(rxCircuitJob(theta, 5)).ok());
        RunRecord record;
        for (const JobOutcome &out : service.drain()) {
            record.outcomes.emplace_back(out.id, out.status.code());
            record.partialShots.push_back(
                out.executed ? out.execution.result.shotsCompleted
                             : -1);
        }
        record.stats = service.stats();
        const telemetry::MetricsSnapshot after = registry.snapshot();
        for (const std::string &name : tracked)
            record.counters.push_back(after.counterValue(name) -
                                      before.counterValue(name));
        return record;
    };

    const RunRecord seq = run(1);
    const RunRecord par = run(8);

    EXPECT_EQ(seq.outcomes, par.outcomes);
    EXPECT_EQ(seq.partialShots, par.partialShots);
    EXPECT_EQ(seq.counters, par.counters);
    // Each leg compiled the two circuits once and ran a parallel loop.
    EXPECT_EQ(seq.counters[1], 2u); // compile.cache.misses
    EXPECT_GT(seq.counters[3], 0u); // threadpool.parallel_for.calls
    EXPECT_GT(par.counters[3], 0u);
    EXPECT_EQ(seq.stats.submitted, par.stats.submitted);
    EXPECT_EQ(seq.stats.admitted, par.stats.admitted);
    EXPECT_EQ(seq.stats.rejected, par.stats.rejected);
    EXPECT_EQ(seq.stats.shed, par.stats.shed);
    EXPECT_EQ(seq.stats.deadlineExceeded, par.stats.deadlineExceeded);
    EXPECT_EQ(seq.stats.completed, par.stats.completed);

    // The scenario actually exercised the interesting paths.
    EXPECT_GT(seq.stats.shed + seq.stats.rejected, 0);
    EXPECT_GT(seq.stats.deadlineExceeded, 0);
}

TEST(Service, AsyncCancellationWindsDownCleanly)
{
    // Genuinely concurrent cancel: a second thread fires the token
    // while the job runs. The outcome is timing-dependent (completed
    // or cancelled) — the invariants are: no hang, a structured
    // status, and a coherent (possibly partial) result. Run under
    // TSan in CI, this is the data-race check for the token path.
    const Rig rig;
    ResilientExecutor executor(rig.backend);
    ResilientRequest request;
    request.schedule = rig.x180Schedule();

    PulseShotOptions opts = shotOptions(512);
    opts.token = CancelToken::make();
    std::thread canceller([token = opts.token]() mutable {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        token.cancel();
    });
    const ResilientOutcome outcome =
        executor.run(rig.sim, request, opts);
    canceller.join();

    if (outcome.status.ok()) {
        EXPECT_EQ(outcome.result.shotsCompleted, 512);
        EXPECT_FALSE(outcome.result.partial);
    } else {
        EXPECT_EQ(outcome.status.code(), ErrorCode::Cancelled);
        EXPECT_TRUE(outcome.result.partial);
        long total = 0;
        for (long c : outcome.result.counts)
            total += c;
        EXPECT_EQ(total, outcome.result.shotsCompleted);
    }
}

} // namespace
} // namespace qpulse
