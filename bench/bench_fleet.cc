/**
 * @file
 * Fleet bench: drive the ExecutionService over an 8-member
 * BackendPool with independent seed-derived fault plans and emit
 * BENCH_fleet.json.
 *
 * The scenario models a production cloud fleet under sustained
 * multi-tenant load:
 *
 *  - 8 backends: two wedged (100% timeouts), two badly flaky (70%
 *    transients), four near-healthy (5% transients, one also
 *    drifting), every plan derived per backend
 *    (FaultPlan::deriveForBackend) so members fail independently;
 *  - 17 tenants (16 workload tenants with mixed weights/quotas plus
 *    an "ops" tenant that pins maintenance jobs at the wedged
 *    members, forcing their breakers to trip and quarantine them);
 *  - two phases: in phase 2 one wedged backend is "repaired" (its
 *    injector cleared) and must earn its way back into routing
 *    through half-open health probes — the other stays quarantined
 *    to the end;
 *  - a single-backend, failover-disabled baseline runs the same
 *    flaky fault rate to show what the fleet machinery buys.
 *
 * Acceptance thresholds (embedded in the JSON): >= 2000 jobs across
 * >= 16 tenants and 8 backends; the fleet completes >= 99% of
 * admitted jobs while the baseline stays below 70%; quarantine
 * happened and recovery went through probes only. Every deadline is a
 * generous afterMsOrBudget, the breaker cooldown counts denied calls,
 * and probe seeds derive from probe ordinals, so the printed
 * `determinism-fingerprint:` line is bit-identical across
 * QPULSE_THREADS under QPULSE_VIRTUAL_TIME=1 (CI diffs it at 1 vs 8
 * and compares the one-thread line with
 * .github/determinism-fingerprints.txt).
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "device/fault_injector.h"
#include "service/backend_pool.h"
#include "service/execution_service.h"
#include "telemetry/metrics.h"

using namespace qpulse;

namespace {

constexpr long kShots = 32;
constexpr std::uint64_t kSeed = 0xF1EE7;
constexpr std::size_t kBackends = 8;
constexpr int kWorkloadTenants = 16;
constexpr int kJobsPerTenantPerPhase = 75;

// Embedded acceptance thresholds (also written to the JSON).
constexpr long kMinJobs = 2000;
constexpr int kMinTenants = 16;
constexpr double kFleetMinCompletion = 0.99;
constexpr double kBaselineMaxCompletion = 0.70;

/** The calibrated substrate every fleet member shares. */
struct Substrate
{
    Substrate()
        : config(almadenLineConfig(1)),
          backend(makeCalibratedBackend(config)),
          calibrator(config), sim(calibrator.qubitModel(0))
    {
        QuantumCircuit circuit(1);
        circuit.x(0);
        PulseCompiler optimized(backend, CompileMode::Optimized);
        PulseCompiler standard(backend, CompileMode::Standard);
        const CompileResult primary = optimized.compile(circuit);
        const CompileResult secondary = standard.compile(circuit);
        throwIfError(primary.validation);
        throwIfError(secondary.validation);
        schedule = primary.schedule;
        fallback = secondary.schedule;
        budgetUnits = static_cast<std::uint64_t>(
                          std::max<long>(schedule.duration(), 1)) *
                      static_cast<std::uint64_t>(kShots);
    }

    BackendConfig config;
    std::shared_ptr<const PulseBackend> backend;
    Calibrator calibrator;
    PulseSimulator sim;
    Schedule schedule;
    Schedule fallback;
    std::uint64_t budgetUnits = 0;
};

/** A budget no healthy job ever exhausts (virtual or wall-clock). */
Deadline
generous(const Substrate &sub)
{
    return Deadline::afterMsOrBudget(5000.0, sub.budgetUnits * 16);
}

BackendPool::Policies
fleetPoolPolicies()
{
    BackendPool::Policies policies;
    policies.retry.maxAttempts = 2;
    policies.breaker.window = 4;
    policies.breaker.minSamples = 2;
    policies.breaker.openFailureRate = 0.5;
    policies.breaker.cooldownDenials = 2;
    policies.breaker.halfOpenSuccesses = 2;
    return policies;
}

ServicePolicy
fleetServicePolicy()
{
    ServicePolicy policy;
    policy.queueCapacity = 4096;
    policy.fleet.failoverBudget = 5;
    // 16 workload tenants with mixed weights; t00 runs over-quota to
    // exercise admission. "ops" is deliberately light so maintenance
    // jobs dequeue after routing traffic has pumped the probe loop.
    for (int t = 0; t < kWorkloadTenants; ++t) {
        TenantQuota quota;
        quota.weight = 1.0 + static_cast<double>(t % 3);
        quota.maxQueued = 100;
        char name[8];
        std::snprintf(name, sizeof name, "t%02d", t);
        policy.fleet.tenants[name] = quota;
    }
    policy.fleet.tenants["t00"].maxQueued = 40;
    policy.fleet.tenants["ops"].weight = 0.25;
    return policy;
}

std::string
tenantName(int t)
{
    char name[8];
    std::snprintf(name, sizeof name, "t%02d", t);
    return name;
}

struct RunResult
{
    ServiceStats stats;
    FleetStats pool;
    std::vector<JobOutcome> outcomes;
    std::uint64_t fingerprint = 0;
    double completion = 0.0;
    bool repairedActive = false;      ///< b0 back in routing.
    bool wedgeStillQuarantined = false; ///< b1 never recovered.
    bool adminReadmitBlocked = false; ///< Quarantine exempt from admin.
};

std::uint64_t
fnv1a(std::uint64_t hash, const std::string &text)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

std::uint64_t
digestOutcomes(const std::vector<JobOutcome> &outcomes)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const JobOutcome &out : outcomes) {
        hash = fnv1a(hash, std::to_string(out.id));
        hash = fnv1a(hash, errorCodeName(out.status.code()));
        hash = fnv1a(hash, out.backend);
        hash = fnv1a(hash, out.tenant);
        hash = fnv1a(hash, std::to_string(out.drainSeq));
        for (const FailoverHop &hop : out.path) {
            hash = fnv1a(hash, hop.backend);
            hash = fnv1a(hash, errorCodeName(hop.code));
        }
    }
    return hash;
}

JobRequest
makeJob(const Substrate &sub, const std::string &tenant,
        std::uint64_t job_index, int priority)
{
    JobRequest job;
    job.schedule = sub.schedule;
    job.fallback = sub.fallback;
    job.key = "x180/q0";
    job.tenant = tenant;
    job.shots = kShots;
    job.seed = Rng::deriveSeed(kSeed, job_index);
    job.priority = priority;
    job.deadline = generous(sub);
    return job;
}

/** The 8-member fleet under multi-tenant load, two phases. */
RunResult
fleetRun(const Substrate &sub)
{
    auto pool = std::make_shared<BackendPool>(fleetPoolPolicies());
    for (std::size_t i = 0; i < kBackends; ++i)
        pool->addBackend("b" + std::to_string(i), sub.backend,
                         sub.sim);

    // Independent per-backend fault plans from one base plan: two
    // wedged, two badly flaky, one drifting, three near-healthy.
    FaultPlan base;
    base.seed = 0xFA017;
    for (std::size_t i = 0; i < kBackends; ++i) {
        FaultPlan plan = base.deriveForBackend(i);
        if (i < 2) {
            plan.timeoutRate = 1.0; // b0, b1: wedged.
        } else if (i < 4) {
            plan.transientRate = 0.7; // b2, b3: badly flaky.
        } else {
            plan.transientRate = 0.05; // b4..b7: near-healthy.
            if (i == 5) {
                plan.driftRate = 0.05; // b5 also drifts.
                plan.driftFreqKhz = 6000.0;
                plan.driftAmpError = 0.25;
            }
        }
        pool->setFaultInjector(
            "b" + std::to_string(i),
            std::make_shared<FaultInjector>(plan));
    }

    ExecutionService service(pool, fleetServicePolicy());
    RunResult run;
    std::uint64_t jobIndex = 0;

    const auto submitPhase = [&](int pinnedAtB0, int pinnedAtB1) {
        for (int t = 0; t < kWorkloadTenants; ++t)
            for (int i = 0; i < kJobsPerTenantPerPhase; ++i)
                (void)service.submit(makeJob(sub, tenantName(t),
                                             jobIndex++, i % 3));
        // Maintenance traffic pinned at the wedged members: routing
        // would otherwise starve them of the failures that trip their
        // breakers into quarantine.
        for (int i = 0; i < pinnedAtB0 + pinnedAtB1; ++i) {
            JobRequest job = makeJob(sub, "ops", jobIndex++, 0);
            job.backendName = i < pinnedAtB0 ? "b0" : "b1";
            (void)service.submit(std::move(job));
        }
        for (const JobOutcome &out : service.drain())
            run.outcomes.push_back(out);
    };

    submitPhase(/*pinnedAtB0=*/6, /*pinnedAtB1=*/6);

    // Between phases both wedged members sit quarantined; admin
    // re-admission must be refused — probes are the only way back.
    run.adminReadmitBlocked =
        pool->adminState("b0") == BackendAdminState::Quarantined &&
        pool->adminState("b1") == BackendAdminState::Quarantined &&
        !pool->readmit("b0").ok() && !pool->readmit("b1").ok();

    // Phase 2: b0 is repaired; its probes now pass and re-admit it,
    // after which its pinned maintenance jobs complete. b1 stays
    // wedged — and stays quarantined.
    pool->setFaultInjector("b0", nullptr);
    submitPhase(/*pinnedAtB0=*/8, /*pinnedAtB1=*/0);

    run.stats = service.stats();
    run.pool = pool->stats();
    run.fingerprint = digestOutcomes(run.outcomes);
    run.completion =
        run.stats.admitted > 0
            ? static_cast<double>(run.stats.completed) /
                  static_cast<double>(run.stats.admitted)
            : 0.0;
    run.repairedActive =
        pool->adminState("b0") == BackendAdminState::Active;
    run.wedgeStillQuarantined =
        pool->adminState("b1") == BackendAdminState::Quarantined;
    return run;
}

/**
 * The control: one backend at the flaky members' fault rate, no
 * failover (a fleet of one). Same tenants, same job shape.
 */
RunResult
baselineRun(const Substrate &sub)
{
    auto pool = std::make_shared<BackendPool>(fleetPoolPolicies());
    pool->addBackend("solo", sub.backend, sub.sim);
    FaultPlan base;
    base.seed = 0xFA017;
    FaultPlan plan = base.deriveForBackend(2);
    plan.transientRate = 0.7;
    pool->setFaultInjector("solo",
                           std::make_shared<FaultInjector>(plan));

    ServicePolicy policy = fleetServicePolicy();
    policy.fleet.failoverBudget = 1;
    ExecutionService service(pool, policy);

    RunResult run;
    std::uint64_t jobIndex = 1u << 20; // Distinct seed stream.
    for (int t = 0; t < kWorkloadTenants; ++t)
        for (int i = 0; i < 38; ++i)
            (void)service.submit(
                makeJob(sub, tenantName(t), jobIndex++, i % 3));
    run.outcomes = service.drain();
    run.stats = service.stats();
    run.pool = pool->stats();
    run.fingerprint = digestOutcomes(run.outcomes);
    run.completion =
        run.stats.admitted > 0
            ? static_cast<double>(run.stats.completed) /
                  static_cast<double>(run.stats.admitted)
            : 0.0;
    return run;
}

} // namespace

int
main()
{
    bench::banner(
        "Backend fleet: health-aware routing, failover, quarantine "
        "and recovery",
        "(engineering bench) 8 backends with independent fault "
        "plans, 17 tenants, weighted-fair scheduling; single-backend "
        "baseline for contrast");

    const Substrate sub;
    const RunResult fleet = fleetRun(sub);
    const RunResult baseline = baselineRun(sub);

    TextTable table({"metric", "fleet", "baseline"});
    table.addRow({"submitted", std::to_string(fleet.stats.submitted),
                  std::to_string(baseline.stats.submitted)});
    table.addRow({"admitted", std::to_string(fleet.stats.admitted),
                  std::to_string(baseline.stats.admitted)});
    table.addRow({"completed", std::to_string(fleet.stats.completed),
                  std::to_string(baseline.stats.completed)});
    table.addRow({"completion",
                  fmtFixed(fleet.completion * 100.0, 2) + " %",
                  fmtFixed(baseline.completion * 100.0, 2) + " %"});
    table.addRow({"tenant_rejected",
                  std::to_string(fleet.stats.tenantRejected),
                  std::to_string(baseline.stats.tenantRejected)});
    table.addRow({"failovers", std::to_string(fleet.stats.failovers),
                  std::to_string(baseline.stats.failovers)});
    table.addRow({"breaker_fastfails",
                  std::to_string(fleet.stats.breakerFastFails),
                  std::to_string(baseline.stats.breakerFastFails)});
    table.addRow({"quarantines",
                  std::to_string(fleet.pool.quarantines),
                  std::to_string(baseline.pool.quarantines)});
    table.addRow({"probes", std::to_string(fleet.pool.probes),
                  std::to_string(baseline.pool.probes)});
    table.addRow({"probe_failures",
                  std::to_string(fleet.pool.probeFailures),
                  std::to_string(baseline.pool.probeFailures)});
    table.addRow({"readmissions",
                  std::to_string(fleet.pool.readmissions),
                  std::to_string(baseline.pool.readmissions)});
    table.addRow({"recalibrations",
                  std::to_string(fleet.pool.recalibrations),
                  std::to_string(baseline.pool.recalibrations)});
    std::printf("%s\n", table.render().c_str());

    const std::string fp =
        "fleet=" + std::to_string(fleet.fingerprint) +
        " baseline=" + std::to_string(baseline.fingerprint) +
        " submitted=" + std::to_string(fleet.stats.submitted) +
        " admitted=" + std::to_string(fleet.stats.admitted) +
        " completed=" + std::to_string(fleet.stats.completed) +
        " failovers=" + std::to_string(fleet.stats.failovers) +
        " fastfails=" + std::to_string(fleet.stats.breakerFastFails) +
        " quarantines=" + std::to_string(fleet.pool.quarantines) +
        " probes=" + std::to_string(fleet.pool.probes) +
        " readmissions=" + std::to_string(fleet.pool.readmissions);
    std::printf("determinism-fingerprint: %s\n", fp.c_str());

    // Acceptance.
    const long totalJobs =
        fleet.stats.submitted + baseline.stats.submitted;
    const bool scale_ok =
        totalJobs >= kMinJobs && kWorkloadTenants >= kMinTenants &&
        kBackends == 8;
    const bool fleet_completion_ok =
        fleet.completion >= kFleetMinCompletion;
    const bool baseline_contrast_ok =
        baseline.completion < kBaselineMaxCompletion;
    const bool quarantine_ok =
        fleet.pool.quarantines >= 2 && fleet.pool.readmissions >= 1 &&
        fleet.repairedActive && fleet.wedgeStillQuarantined &&
        fleet.adminReadmitBlocked;
    const bool quota_ok = fleet.stats.tenantRejected > 0;
    const bool failover_ok = fleet.stats.failovers > 0;
    const bool accounted =
        fleet.stats.submitted ==
        fleet.stats.rejected + fleet.stats.shed +
            fleet.stats.breakerFastFails + fleet.stats.completed +
            fleet.stats.cancelled + fleet.stats.deadlineExceeded +
            fleet.stats.failed;
    const bool pass = scale_ok && fleet_completion_ok &&
                      baseline_contrast_ok && quarantine_ok &&
                      quota_ok && failover_ok && accounted;
    std::printf(
        "acceptance: scale=%s fleet_completion=%s baseline=%s "
        "quarantine=%s quota=%s failover=%s accounted=%s => %s\n",
        scale_ok ? "yes" : "no", fleet_completion_ok ? "yes" : "no",
        baseline_contrast_ok ? "yes" : "no",
        quarantine_ok ? "yes" : "no", quota_ok ? "yes" : "no",
        failover_ok ? "yes" : "no", accounted ? "yes" : "no",
        pass ? "PASS" : "FAIL");

    bench::printTelemetry();
    std::FILE *out = bench::openBenchJson("BENCH_fleet.json");
    if (out == nullptr)
        return pass ? 0 : 1;
    std::fprintf(out, "{\n");
    bench::writeBenchHeader(out, "fleet");
    std::fprintf(out,
                 "  \"thresholds\": {\"min_jobs\": %ld, "
                 "\"min_tenants\": %d, \"backends\": %zu, "
                 "\"fleet_min_completion\": %.2f, "
                 "\"baseline_max_completion\": %.2f},\n",
                 kMinJobs, kMinTenants, kBackends,
                 kFleetMinCompletion, kBaselineMaxCompletion);
    std::fprintf(
        out,
        "  \"fleet\": {\"submitted\": %ld, \"admitted\": %ld, "
        "\"completed\": %ld, \"failed\": %ld, "
        "\"breaker_fastfails\": %ld, \"tenant_rejected\": %ld, "
        "\"failovers\": %ld, \"completion\": %.4f},\n",
        fleet.stats.submitted, fleet.stats.admitted,
        fleet.stats.completed, fleet.stats.failed,
        fleet.stats.breakerFastFails, fleet.stats.tenantRejected,
        fleet.stats.failovers, fleet.completion);
    std::fprintf(
        out,
        "  \"pool\": {\"jobs\": %ld, \"failures\": %ld, "
        "\"quarantines\": %ld, \"readmissions\": %ld, "
        "\"probes\": %ld, \"probe_failures\": %ld, "
        "\"recalibrations\": %ld},\n",
        fleet.pool.jobs, fleet.pool.failures, fleet.pool.quarantines,
        fleet.pool.readmissions, fleet.pool.probes,
        fleet.pool.probeFailures, fleet.pool.recalibrations);
    std::fprintf(out,
                 "  \"baseline\": {\"submitted\": %ld, "
                 "\"admitted\": %ld, \"completed\": %ld, "
                 "\"completion\": %.4f},\n",
                 baseline.stats.submitted, baseline.stats.admitted,
                 baseline.stats.completed, baseline.completion);
    std::fprintf(out, "  \"fingerprint\": \"%s\",\n", fp.c_str());
    bench::writeTelemetryField(out);
    std::fprintf(
        out,
        "  \"acceptance\": {\"scale_ok\": %s, "
        "\"fleet_completion_ok\": %s, \"baseline_contrast_ok\": %s, "
        "\"quarantine_ok\": %s, \"quota_ok\": %s, "
        "\"failover_ok\": %s, \"accounted\": %s, \"pass\": %s}\n",
        scale_ok ? "true" : "false",
        fleet_completion_ok ? "true" : "false",
        baseline_contrast_ok ? "true" : "false",
        quarantine_ok ? "true" : "false", quota_ok ? "true" : "false",
        failover_ok ? "true" : "false", accounted ? "true" : "false",
        pass ? "true" : "false");
    std::fprintf(out, "}\n");
    bench::closeBenchJson(out, "BENCH_fleet.json");
    return pass ? 0 : 1;
}
