/**
 * @file
 * Tests for the fault-tolerant backend fleet: BackendPool health
 * scoring and routing order, quarantine on breaker trip, probe-driven
 * recovery (and its admin-path exclusivity), graceful drain/readmit,
 * and the ExecutionService over a pool — cross-backend failover with
 * breadcrumbs, pinned jobs, the no-routable-member fast fail,
 * per-tenant quotas, weighted-fair dequeue, and the virtual-time
 * determinism contract across thread counts.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "compile/compiler.h"
#include "device/fault_injector.h"
#include "service/backend_pool.h"
#include "service/execution_service.h"
#include "telemetry/metrics.h"

namespace qpulse {
namespace {

/** Calibrated single-qubit substrate shared by every fleet member. */
struct Substrate
{
    Substrate()
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

    BackendConfig config;
    std::shared_ptr<const PulseBackend> backend;
    Calibrator calibrator;
    QubitCalibration cal;
    PulseSimulator sim;
};

/** Breaker that trips fast and recovers after two probes. */
CircuitBreakerPolicy
snappyBreaker()
{
    CircuitBreakerPolicy policy;
    policy.window = 4;
    policy.minSamples = 2;
    policy.openFailureRate = 0.5;
    policy.cooldownDenials = 2;
    policy.halfOpenSuccesses = 2;
    return policy;
}

BackendPool::Policies
poolPolicies()
{
    BackendPool::Policies policies;
    policies.retry.maxAttempts = 2;
    policies.breaker = snappyBreaker();
    return policies;
}

std::shared_ptr<BackendPool>
makePool(const Substrate &sub, std::size_t n,
         BackendPool::Policies policies)
{
    auto pool = std::make_shared<BackendPool>(policies);
    for (std::size_t i = 0; i < n; ++i)
        pool->addBackend("b" + std::to_string(i), sub.backend,
                         sub.sim);
    return pool;
}

FaultPlan
wedgedPlan()
{
    FaultPlan plan;
    plan.timeoutRate = 1.0; // Every attempt times out.
    return plan;
}

ResilientRequest
poolRequest(const Substrate &sub)
{
    ResilientRequest request;
    request.schedule = sub.x180Schedule();
    return request;
}

PulseShotOptions
poolOptions(long shots = 16)
{
    PulseShotOptions opts;
    opts.shots = shots;
    opts.seed = 0xB0B;
    return opts;
}

/** Route jobs at `name` until it leaves Active (or `limit` jobs). */
void
wedgeUntilQuarantined(BackendPool &pool, const Substrate &sub,
                      const std::string &name, int limit = 8)
{
    pool.setFaultInjector(
        name, std::make_shared<FaultInjector>(wedgedPlan()));
    for (int i = 0; i < limit; ++i) {
        if (pool.adminState(name) != BackendAdminState::Active)
            break;
        (void)pool.runOn(name, poolRequest(sub), poolOptions());
    }
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
// BackendPool: construction, scoring, routing.

TEST(FleetPool, DegeneratePoliciesRejectedAtConstruction)
{
    {
        BackendPool::Policies policies;
        policies.health.window = 0;
        EXPECT_THROW(BackendPool pool(policies), StatusError);
    }
    {
        BackendPool::Policies policies;
        policies.health.freshnessHorizonJobs = 0.0;
        EXPECT_THROW(BackendPool pool(policies), StatusError);
    }
    {
        BackendPool::Policies policies;
        policies.probe.shots = 0;
        EXPECT_THROW(BackendPool pool(policies), StatusError);
    }
    {
        BackendPool::Policies policies;
        policies.breaker.halfOpenSuccesses = 0;
        EXPECT_THROW(BackendPool pool(policies), StatusError);
    }
}

TEST(FleetPool, MembershipAndInitialHealth)
{
    const Substrate sub;
    auto pool = makePool(sub, 3, poolPolicies());
    EXPECT_EQ(pool->size(), 3u);
    EXPECT_TRUE(pool->has("b1"));
    EXPECT_FALSE(pool->has("nope"));
    EXPECT_EQ(pool->names(),
              (std::vector<std::string>{"b0", "b1", "b2"}));
    for (const std::string &name : pool->names()) {
        EXPECT_EQ(pool->adminState(name), BackendAdminState::Active);
        EXPECT_DOUBLE_EQ(pool->healthScore(name), 1.0);
        EXPECT_EQ(pool->breaker(name).state(), BreakerState::Closed);
    }
    // A fresh fleet routes in insertion order.
    EXPECT_EQ(pool->routingOrder(),
              (std::vector<std::string>{"b0", "b1", "b2"}));
    // Duplicate names are a construction error.
    EXPECT_THROW(pool->addBackend("b0", sub.backend, sub.sim),
                 FatalError);
}

TEST(FleetPool, RoutingOrderDemotesFailingBackend)
{
    const Substrate sub;
    BackendPool::Policies policies = poolPolicies();
    // Wide breaker window: failures here dent the health score long
    // before the breaker trips.
    policies.breaker.window = 16;
    policies.breaker.minSamples = 16;
    auto pool = makePool(sub, 2, policies);
    pool->setFaultInjector(
        "b0", std::make_shared<FaultInjector>(wedgedPlan()));

    for (int i = 0; i < 3; ++i)
        (void)pool->runOn("b0", poolRequest(sub), poolOptions());

    EXPECT_EQ(pool->adminState("b0"), BackendAdminState::Active);
    EXPECT_LT(pool->healthScore("b0"), pool->healthScore("b1"));
    EXPECT_EQ(pool->routingOrder(),
              (std::vector<std::string>{"b1", "b0"}));
    EXPECT_EQ(pool->stats().failures, 3);
}

TEST(FleetPool, CalibrationStalenessLowersScoreUntilReadmit)
{
    const Substrate sub;
    BackendPool::Policies policies = poolPolicies();
    policies.health.freshnessHorizonJobs = 4.0;
    auto pool = makePool(sub, 2, policies);

    for (int i = 0; i < 2; ++i)
        (void)pool->runOn("b0", poolRequest(sub), poolOptions());
    EXPECT_EQ(pool->jobsSinceCalibration("b0"), 2);
    // Staleness 0.5 at weight 0.5: b0 scores 0.75 against b1's 1.0.
    EXPECT_DOUBLE_EQ(pool->healthScore("b0"), 0.75);
    EXPECT_EQ(pool->routingOrder(),
              (std::vector<std::string>{"b1", "b0"}));

    // A drain/readmit recalibration restores full freshness.
    EXPECT_TRUE(pool->beginDrain("b0").ok());
    EXPECT_TRUE(pool->readmit("b0").ok());
    EXPECT_EQ(pool->jobsSinceCalibration("b0"), 0);
    EXPECT_EQ(pool->calibrationVersion("b0"), 1);
    EXPECT_DOUBLE_EQ(pool->healthScore("b0"), 1.0);
    EXPECT_EQ(pool->routingOrder(),
              (std::vector<std::string>{"b0", "b1"}));
}

// ---------------------------------------------------------------------
// Quarantine and probe-driven recovery.

TEST(FleetPool, BreakerTripQuarantinesAndRemovesFromRouting)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());
    wedgeUntilQuarantined(*pool, sub, "b0");

    EXPECT_EQ(pool->adminState("b0"), BackendAdminState::Quarantined);
    EXPECT_EQ(pool->breaker("b0").state(), BreakerState::Open);
    EXPECT_EQ(pool->stats().quarantines, 1);
    EXPECT_DOUBLE_EQ(pool->healthScore("b0"), 0.0);
    EXPECT_EQ(pool->routingOrder(),
              (std::vector<std::string>{"b1"}));
}

TEST(FleetPool, SuccessfulProbesReadmitQuarantinedBackend)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());
    wedgeUntilQuarantined(*pool, sub, "b0");
    ASSERT_EQ(pool->adminState("b0"), BackendAdminState::Quarantined);

    // The fault clears (an operator fixed the device); recovery still
    // must be earned through probes. cooldownDenials = 2 pumps spend
    // the cooldown, then halfOpenSuccesses = 2 probe jobs re-admit.
    pool->setFaultInjector("b0", nullptr);
    pool->pumpProbes(); // Denial 1.
    pool->pumpProbes(); // Denial 2.
    EXPECT_EQ(pool->adminState("b0"), BackendAdminState::Quarantined);
    EXPECT_EQ(pool->stats().probes, 0);
    pool->pumpProbes(); // Half-open probe 1 succeeds.
    EXPECT_EQ(pool->adminState("b0"), BackendAdminState::Quarantined);
    EXPECT_EQ(pool->breaker("b0").state(), BreakerState::HalfOpen);
    pool->pumpProbes(); // Probe 2 succeeds: breaker closes.
    EXPECT_EQ(pool->adminState("b0"), BackendAdminState::Active);
    EXPECT_EQ(pool->breaker("b0").state(), BreakerState::Closed);
    EXPECT_EQ(pool->stats().probes, 2);
    EXPECT_EQ(pool->stats().probeFailures, 0);
    EXPECT_EQ(pool->stats().readmissions, 1);
    // Back in the routing set — but probe recovery is not a
    // recalibration, so b0 keeps its calibration age and ranks a
    // hair behind the never-used b1.
    EXPECT_EQ(pool->routingOrder(),
              (std::vector<std::string>{"b1", "b0"}));
    EXPECT_GT(pool->healthScore("b0"), 0.9);
}

TEST(FleetPool, FailedProbesKeepBackendQuarantined)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());
    wedgeUntilQuarantined(*pool, sub, "b0");

    // Still wedged: the half-open probe fails, the breaker re-opens,
    // and the member never rejoins routing.
    for (int i = 0; i < 9; ++i)
        pool->pumpProbes();
    EXPECT_EQ(pool->adminState("b0"), BackendAdminState::Quarantined);
    EXPECT_GE(pool->stats().probeFailures, 2);
    EXPECT_EQ(pool->stats().readmissions, 0);
    EXPECT_EQ(pool->routingOrder(),
              (std::vector<std::string>{"b1"}));
}

TEST(FleetPool, QuarantineIsExemptFromAdminDrainAndReadmit)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());
    wedgeUntilQuarantined(*pool, sub, "b0");

    // The only road back from quarantine is the probe loop: both
    // admin verbs refuse with a structured `unavailable`.
    const Status drain = pool->beginDrain("b0");
    EXPECT_EQ(drain.code(), ErrorCode::Unavailable);
    const Status readmit = pool->readmit("b0");
    EXPECT_EQ(readmit.code(), ErrorCode::Unavailable);
    EXPECT_NE(readmit.message().find("health probes"),
              std::string::npos)
        << readmit.message();
    EXPECT_EQ(pool->adminState("b0"), BackendAdminState::Quarantined);
}

TEST(FleetPool, DrainLifecycleAndInvalidTransitions)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());

    EXPECT_EQ(pool->readmit("b0").code(), ErrorCode::InvalidArgument);
    EXPECT_TRUE(pool->beginDrain("b0").ok());
    EXPECT_EQ(pool->adminState("b0"), BackendAdminState::Draining);
    EXPECT_EQ(pool->routingOrder(),
              (std::vector<std::string>{"b1"}));
    EXPECT_EQ(pool->beginDrain("b0").code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(pool->beginDrain("ghost").code(),
              ErrorCode::InvalidArgument);
    EXPECT_TRUE(pool->readmit("b0").ok());
    EXPECT_EQ(pool->adminState("b0"), BackendAdminState::Active);
    EXPECT_EQ(pool->stats().drains, 1);
    EXPECT_EQ(pool->stats().drainReadmissions, 1);
}

// ---------------------------------------------------------------------
// ExecutionService over a pool: failover, pinning, tenants.

ServicePolicy
fleetServicePolicy(std::size_t capacity = 64)
{
    ServicePolicy policy;
    policy.queueCapacity = capacity;
    policy.maxThreads = 1;
    policy.retry.maxAttempts = 2;
    policy.breaker = snappyBreaker();
    return policy;
}

JobRequest
fleetJob(const Substrate &sub, const std::string &tenant = "default",
         int priority = 0, long shots = 16)
{
    JobRequest job;
    job.schedule = sub.x180Schedule();
    job.shots = shots;
    job.seed = 0xB0B;
    job.priority = priority;
    job.tenant = tenant;
    return job;
}

TEST(FleetService, DegenerateFleetPolicyRejectedAtConstruction)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());
    {
        ServicePolicy policy = fleetServicePolicy();
        policy.fleet.failoverBudget = 0;
        EXPECT_THROW(ExecutionService service(pool, policy),
                     StatusError);
    }
    {
        ServicePolicy policy = fleetServicePolicy();
        policy.fleet.tenants["alice"].weight = 0.0;
        EXPECT_THROW(ExecutionService service(pool, policy),
                     StatusError);
    }
    {
        // A queue that can admit nothing is refused, not defaulted.
        ServicePolicy policy = fleetServicePolicy(/*capacity=*/0);
        try {
            ExecutionService service(pool, policy);
            ADD_FAILURE() << "queueCapacity 0 was accepted";
        } catch (const StatusError &error) {
            EXPECT_EQ(error.status().code(), ErrorCode::InvalidArgument);
        }
    }
}

TEST(FleetService, FailoverCompletesJobAndRecordsBreadcrumbs)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());
    // b0 is wedged but still ranks first (fresh, tie to insertion
    // order), so the job tries it, fails, and fails over to b1.
    pool->setFaultInjector(
        "b0", std::make_shared<FaultInjector>(wedgedPlan()));
    ExecutionService service(pool, fleetServicePolicy());

    EXPECT_TRUE(service.submit(fleetJob(sub)).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    const JobOutcome &out = outcomes[0];
    EXPECT_TRUE(out.status.ok()) << out.status.toString();
    EXPECT_TRUE(out.executed);
    EXPECT_EQ(out.backend, "b1");
    ASSERT_EQ(out.path.size(), 2u);
    EXPECT_EQ(out.path[0].backend, "b0");
    EXPECT_EQ(out.path[0].code, ErrorCode::RetriesExhausted);
    EXPECT_EQ(out.path[1].backend, "b1");
    EXPECT_EQ(out.path[1].code, ErrorCode::Ok);
    EXPECT_EQ(service.stats().failovers, 1);
    EXPECT_EQ(service.stats().completed, 1);
}

TEST(FleetService, FailoverBudgetBoundsHopsAndAnnotatesStatus)
{
    const Substrate sub;
    auto pool = makePool(sub, 3, poolPolicies());
    for (const std::string &name : pool->names())
        pool->setFaultInjector(
            name, std::make_shared<FaultInjector>(wedgedPlan()));

    ServicePolicy policy = fleetServicePolicy();
    policy.fleet.failoverBudget = 2;
    ExecutionService service(pool, policy);

    EXPECT_TRUE(service.submit(fleetJob(sub)).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    const JobOutcome &out = outcomes[0];
    EXPECT_EQ(out.status.code(), ErrorCode::RetriesExhausted);
    // Budget 2: exactly two backends tried, three available.
    ASSERT_EQ(out.path.size(), 2u);
    // The terminal Status carries the full breadcrumb trail.
    EXPECT_NE(out.status.message().find("[fleet path: "),
              std::string::npos)
        << out.status.message();
    EXPECT_NE(out.status.message().find("b0:retries-exhausted"),
              std::string::npos)
        << out.status.message();
}

TEST(FleetService, FailoverDisabledTriesExactlyOneBackend)
{
    const Substrate sub;
    auto pool = makePool(sub, 3, poolPolicies());
    pool->setFaultInjector(
        "b0", std::make_shared<FaultInjector>(wedgedPlan()));

    ServicePolicy policy = fleetServicePolicy();
    policy.fleet.failoverBudget = 1;
    ExecutionService service(pool, policy);

    EXPECT_TRUE(service.submit(fleetJob(sub)).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status.code(),
              ErrorCode::RetriesExhausted);
    EXPECT_EQ(outcomes[0].path.size(), 1u);
    EXPECT_EQ(service.stats().failovers, 0);
}

TEST(FleetService, PinnedJobsSkipFailoverAndFastFailWhenOffline)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());
    ExecutionService service(pool, fleetServicePolicy());

    // Unknown backend: structured invalid-argument.
    JobRequest ghost = fleetJob(sub);
    ghost.backendName = "ghost";
    EXPECT_TRUE(service.submit(std::move(ghost)).ok());

    // Pinned to a healthy member: runs there, no failover.
    JobRequest pinned = fleetJob(sub);
    pinned.backendName = "b1";
    EXPECT_TRUE(service.submit(std::move(pinned)).ok());

    std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status.code(), ErrorCode::InvalidArgument);
    EXPECT_TRUE(outcomes[1].status.ok());
    EXPECT_EQ(outcomes[1].backend, "b1");
    ASSERT_EQ(outcomes[1].path.size(), 1u);

    // Quarantine b0, then pin to it: the fast-fail Status names the
    // backend and its breaker state (satellite contract).
    wedgeUntilQuarantined(*pool, sub, "b0");
    JobRequest toQuarantined = fleetJob(sub);
    toQuarantined.backendName = "b0";
    EXPECT_TRUE(service.submit(std::move(toQuarantined)).ok());
    outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status.code(), ErrorCode::Unavailable);
    EXPECT_TRUE(outcomes[0].breakerFastFail);
    EXPECT_FALSE(outcomes[0].executed);
    EXPECT_NE(outcomes[0].status.message().find("backend 'b0'"),
              std::string::npos)
        << outcomes[0].status.message();
    EXPECT_NE(outcomes[0].status.message().find("circuit breaker"),
              std::string::npos)
        << outcomes[0].status.message();
}

TEST(FleetService, TenantQuotaCapsAdmissionPerTenant)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());
    ServicePolicy policy = fleetServicePolicy(8);
    policy.fleet.tenants["alice"].maxQueued = 2;
    ExecutionService service(pool, policy);

    EXPECT_TRUE(service.submit(fleetJob(sub, "alice")).ok());
    EXPECT_TRUE(service.submit(fleetJob(sub, "alice")).ok());
    const Status refused = service.submit(fleetJob(sub, "alice"));
    EXPECT_EQ(refused.code(), ErrorCode::ResourceExhausted);
    EXPECT_NE(refused.message().find("tenant 'alice'"),
              std::string::npos)
        << refused.message();
    EXPECT_EQ(service.stats().tenantRejected, 1);

    // The quota is per tenant: bob is still admissible, and the queue
    // still has headroom the quota preserved for him.
    EXPECT_TRUE(service.submit(fleetJob(sub, "bob")).ok());
    EXPECT_EQ(service.queueDepth(), 3u);

    // Draining clears alice's hold: she is admissible again.
    (void)service.drain();
    EXPECT_TRUE(service.submit(fleetJob(sub, "alice")).ok());
}

TEST(FleetService, WeightedFairDequeueInterleavesTenants)
{
    const Substrate sub;
    auto pool = makePool(sub, 1, poolPolicies());
    ServicePolicy policy = fleetServicePolicy(16);
    policy.fleet.tenants["alice"].weight = 2.0;
    policy.fleet.tenants["bob"].weight = 1.0;
    ExecutionService service(pool, policy);

    // alice submits all six of her jobs before bob's six arrive —
    // FIFO would run her burst first, weighted-fair must not.
    for (int i = 0; i < 6; ++i)
        EXPECT_TRUE(service.submit(fleetJob(sub, "alice")).ok());
    for (int i = 0; i < 6; ++i)
        EXPECT_TRUE(service.submit(fleetJob(sub, "bob")).ok());

    std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 12u);
    std::vector<std::string> order(12);
    for (const JobOutcome &out : outcomes) {
        ASSERT_GE(out.drainSeq, 0);
        ASSERT_LT(out.drainSeq, 12);
        order[static_cast<std::size_t>(out.drainSeq)] = out.tenant;
    }
    // Virtual finish times: alice at 0.5, 1.0, 1.5...; bob at 1, 2,
    // 3... Ties go to the lexicographically first lane.
    const std::vector<std::string> expected{
        "alice", "alice", "bob", "alice", "alice", "bob",
        "alice", "alice", "bob", "bob",   "bob",   "bob"};
    EXPECT_EQ(order, expected);
}

TEST(FleetService, DrainCallbackFollowsTheWeightedFairOrder)
{
    const Substrate sub;
    auto pool = makePool(sub, 1, poolPolicies());
    ServicePolicy policy = fleetServicePolicy(8);
    policy.fleet.tenants["alice"].weight = 2.0;
    policy.fleet.tenants["bob"].weight = 1.0;
    ExecutionService service(pool, policy);

    // bob's jobs take ids 0-2 and alice's 3-5; alice's weight runs
    // her first, so execution order is not submission order.
    for (const char *tenant : {"bob", "alice"})
        for (int i = 0; i < 3; ++i)
            EXPECT_TRUE(service.submit(fleetJob(sub, tenant)).ok());

    std::vector<std::uint64_t> seen;
    const std::vector<JobOutcome> outcomes =
        service.drain([&](const JobOutcome &out) {
            EXPECT_EQ(out.drainSeq, static_cast<long>(seen.size()));
            seen.push_back(out.id);
        });
    ASSERT_EQ(outcomes.size(), 6u);
    std::vector<std::uint64_t> byDrainSeq(6);
    for (const JobOutcome &out : outcomes)
        byDrainSeq[static_cast<std::size_t>(out.drainSeq)] = out.id;
    EXPECT_EQ(seen, byDrainSeq);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{3, 4, 0, 5, 1, 2}));
}

TEST(FleetService, QuotaKeepsQueueOpenWhileOtherTenantsWait)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());
    ServicePolicy policy = fleetServicePolicy(8);
    policy.fleet.defaultQuota.maxQueued = 4;
    ExecutionService service(pool, policy);

    // A greedy tenant bursts past its quota: only 4 land.
    int admitted = 0;
    for (int i = 0; i < 8; ++i)
        if (service.submit(fleetJob(sub, "greedy")).ok())
            ++admitted;
    EXPECT_EQ(admitted, 4);
    EXPECT_EQ(service.stats().tenantRejected, 4);

    // Every other tenant finds the headroom the quota protected.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(service.submit(fleetJob(sub, "patient")).ok());
    EXPECT_EQ(service.queueDepth(), 8u);

    // And no tenant ever exceeds its cap while others queue.
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 8u);
    for (const JobOutcome &out : outcomes)
        EXPECT_TRUE(out.status.ok()) << out.status.toString();
}

TEST(FleetService, QuarantineAndProbeRecoveryDuringDrain)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());
    // b0 wedged: scheduled traffic trips its breaker mid-drain, the
    // pool quarantines it, and — once the wedge clears — the per-job
    // probe pump earns it back in, all within service draining.
    pool->setFaultInjector(
        "b0", std::make_shared<FaultInjector>(wedgedPlan()));
    ServicePolicy policy = fleetServicePolicy(32);
    policy.fleet.failoverBudget = 1;
    ExecutionService service(pool, policy);

    // Pin jobs at b0 so routing cannot dodge the wedged member.
    for (int i = 0; i < 4; ++i) {
        JobRequest job = fleetJob(sub);
        job.backendName = "b0";
        EXPECT_TRUE(service.submit(std::move(job)).ok());
    }
    (void)service.drain();
    EXPECT_EQ(pool->adminState("b0"), BackendAdminState::Quarantined);
    EXPECT_EQ(pool->stats().quarantines, 1);

    // The device is repaired; free-routed traffic pumps the probe
    // loop as a side effect of draining, and b0 earns its way back.
    pool->setFaultInjector("b0", nullptr);
    for (int i = 0; i < 6; ++i)
        EXPECT_TRUE(service.submit(fleetJob(sub)).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    for (const JobOutcome &out : outcomes)
        EXPECT_TRUE(out.status.ok()) << out.status.toString();
    EXPECT_EQ(pool->adminState("b0"), BackendAdminState::Active);
    EXPECT_EQ(pool->stats().readmissions, 1);
    EXPECT_GE(pool->stats().probes, 2);
}

TEST(FleetService, VirtualTimeFleetRunsBitIdenticalAcrossThreads)
{
    EnvGuard guard("QPULSE_VIRTUAL_TIME", "1");
    // No store: a second leg must not serve the first leg's compiles.
    EnvGuard no_store("QPULSE_CACHE_DIR", nullptr);
    const Substrate sub;
    const auto duration = static_cast<std::uint64_t>(
        sub.x180Schedule().duration());
    const std::vector<std::string> tracked = {
        "compile.cache.hits",
        "compile.cache.misses",
        "compile.cache.persist_hits",
        "threadpool.parallel_for.calls",
    };

    struct RunRecord
    {
        std::vector<std::uint64_t> ids;
        std::vector<ErrorCode> codes;
        std::vector<long> drainSeqs;
        std::vector<std::string> backends;
        std::vector<long> partialShots;
        std::vector<std::uint64_t> counters;
        long failovers = 0;
        long quarantines = 0;
        long probes = 0;
        long poolJobs = 0;
    };
    const auto run = [&](std::size_t max_threads) {
        telemetry::MetricsRegistry &registry =
            telemetry::MetricsRegistry::global();
        const telemetry::MetricsSnapshot before = registry.snapshot();
        auto pool = makePool(sub, 3, poolPolicies());
        FaultPlan flaky;
        flaky.transientRate = 0.7;
        pool->setFaultInjector(
            "b1", std::make_shared<FaultInjector>(
                      flaky.deriveForBackend(1)));
        pool->setFaultInjector(
            "b2", std::make_shared<FaultInjector>(wedgedPlan()));

        ServicePolicy policy = fleetServicePolicy(64);
        policy.maxThreads = max_threads;
        policy.fleet.tenants["t0"].weight = 3.0;
        ExecutionService service(pool, policy);
        for (int i = 0; i < 24; ++i) {
            JobRequest job = fleetJob(
                sub, "t" + std::to_string(i % 4), i % 3, 32);
            job.seed = 0xFEED + static_cast<std::uint64_t>(i);
            job.deadline =
                Deadline::afterMsOrBudget(50.0, duration * 80);
            if (i % 8 == 5)
                job.backendName = "b2"; // Pin some at the wedge.
            (void)service.submit(std::move(job));
        }
        // Two distinct circuits (one of them twice) give the drain's
        // precompile something to lower: on the pool in the 8-thread
        // leg, inline in the 1-thread leg.
        for (const double theta : {0.3, 1.1, 0.3}) {
            QuantumCircuit circuit(1);
            circuit.rx(theta, 0);
            JobRequest job = fleetJob(sub, "t1", 1, 32);
            job.circuit = circuit;
            EXPECT_TRUE(service.submit(std::move(job)).ok());
        }
        RunRecord record;
        for (const JobOutcome &out : service.drain()) {
            record.ids.push_back(out.id);
            record.codes.push_back(out.status.code());
            record.drainSeqs.push_back(out.drainSeq);
            record.backends.push_back(out.backend);
            record.partialShots.push_back(
                out.executed ? out.execution.result.shotsCompleted
                             : -1);
        }
        const telemetry::MetricsSnapshot after = registry.snapshot();
        for (const std::string &name : tracked)
            record.counters.push_back(after.counterValue(name) -
                                      before.counterValue(name));
        record.failovers = service.stats().failovers;
        record.quarantines = pool->stats().quarantines;
        record.probes = pool->stats().probes;
        record.poolJobs = pool->stats().jobs;
        return record;
    };

    const RunRecord seq = run(1);
    const RunRecord par = run(8);
    EXPECT_EQ(seq.ids, par.ids);
    EXPECT_EQ(seq.codes, par.codes);
    EXPECT_EQ(seq.drainSeqs, par.drainSeqs);
    EXPECT_EQ(seq.backends, par.backends);
    EXPECT_EQ(seq.partialShots, par.partialShots);
    EXPECT_EQ(seq.counters, par.counters);
    // Each leg compiled the two circuits once and ran a parallel loop.
    EXPECT_EQ(seq.counters[1], 2u); // compile.cache.misses
    EXPECT_GT(seq.counters[3], 0u); // threadpool.parallel_for.calls
    EXPECT_GT(par.counters[3], 0u);
    EXPECT_EQ(seq.failovers, par.failovers);
    EXPECT_EQ(seq.quarantines, par.quarantines);
    EXPECT_EQ(seq.probes, par.probes);
    EXPECT_EQ(seq.poolJobs, par.poolJobs);

    // The scenario exercised the interesting machinery.
    EXPECT_GT(seq.quarantines, 0);
    EXPECT_GT(seq.failovers, 0);
}

TEST(FleetService, NoRoutableMemberFastFailNamesEveryMember)
{
    const Substrate sub;
    auto pool = makePool(sub, 2, poolPolicies());
    wedgeUntilQuarantined(*pool, sub, "b0");
    wedgeUntilQuarantined(*pool, sub, "b1");
    ASSERT_TRUE(pool->routingOrder().empty());
    ExecutionService service(pool, fleetServicePolicy());

    // The pump before the job spends one of each member's two
    // cooldown denials; the free-routed job then has nowhere to go.
    EXPECT_TRUE(service.submit(fleetJob(sub)).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status.code(), ErrorCode::Unavailable);
    EXPECT_TRUE(outcomes[0].breakerFastFail);
    EXPECT_FALSE(outcomes[0].executed);
    const std::string &message = outcomes[0].status.message();
    for (const char *name : {"'b0' quarantined", "'b1' quarantined"})
        EXPECT_NE(message.find(name), std::string::npos) << message;
    EXPECT_NE(message.find("circuit breaker open (1 more cooldown "
                           "denials"),
              std::string::npos)
        << message;
}

} // namespace
} // namespace qpulse
