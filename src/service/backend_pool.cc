#include "service/backend_pool.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "compile/compile_cache.h"
#include "store/persistent_propagator_cache.h"
#include "store/serde.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qpulse {

const char *
backendAdminStateName(BackendAdminState state)
{
    switch (state) {
      case BackendAdminState::Active:      return "active";
      case BackendAdminState::Quarantined: return "quarantined";
      case BackendAdminState::Draining:    return "draining";
    }
    return "unknown";
}

namespace {

/** Health-score penalty at a 100% windowed failure rate. */
constexpr double kHealthFailureWeight = 4.0;
/** Health-score penalty at full calibration staleness. */
constexpr double kHealthFreshnessWeight = 0.5;

Status
validateHealthPolicy(const HealthPolicy &policy)
{
    const auto invalid = [](const std::string &detail) {
        return Status::error(ErrorCode::InvalidArgument,
                             "HealthPolicy: " + detail);
    };
    if (policy.window < 1)
        return invalid("window must be >= 1, got " +
                       std::to_string(policy.window));
    if (!(policy.freshnessHorizonJobs > 0.0))
        return invalid("freshnessHorizonJobs must be > 0");
    return Status::okStatus();
}

Status
validateProbePolicy(const ProbePolicy &policy)
{
    if (policy.shots < 1)
        return Status::error(ErrorCode::InvalidArgument,
                             "ProbePolicy: shots must be >= 1, got " +
                                 std::to_string(policy.shots));
    return Status::okStatus();
}

/** True when `code` says something about backend health: a deadline
 *  expiry is a failure (a healthy backend finishes inside its budget,
 *  and a wedged one must trip its breaker so the queue fails fast
 *  instead of timing out job by job); cancellation and validation
 *  rejects record nothing. */
bool
healthFailure(ErrorCode code)
{
    switch (code) {
      case ErrorCode::TransientFailure:
      case ErrorCode::Timeout:
      case ErrorCode::RetriesExhausted:
      case ErrorCode::DeadlineExceeded:
        return true;
      default:
        return false;
    }
}

/** Generation of one member: its simulator basis version, its name
 *  (so same-named bases on different members never cross-serve), and
 *  its monotonic recalibration epoch. Any recalibration changes the
 *  epoch, so previously persisted propagators become unreachable. */
std::uint64_t
memberGeneration(const PulseSimulator &sim, const std::string &name,
                 std::uint64_t persistEpoch)
{
    const std::uint64_t base = store::mixHash(
        sim.basisVersion(),
        store::hashBytes(name.data(), name.size()));
    return store::mixHash(base, persistEpoch);
}

} // namespace

BackendPool::Entry::Entry(std::string name_,
                          std::shared_ptr<const PulseBackend> backend_,
                          PulseSimulator sim_, Schedule probe_,
                          const Policies &policies)
    : name(std::move(name_)), backend(std::move(backend_)),
      sim(std::move(sim_)),
      executor(backend, policies.retry, policies.watchdog),
      breaker(policies.breaker), probe(std::move(probe_)),
      window(static_cast<std::size_t>(policies.health.window), 0)
{
}

BackendPool::BackendPool() : BackendPool(Policies{}) {}

BackendPool::BackendPool(Policies policies)
    : policies_(std::move(policies))
{
    throwIfError(validateBreakerPolicy(policies_.breaker));
    throwIfError(validateHealthPolicy(policies_.health));
    throwIfError(validateProbePolicy(policies_.probe));
    store_ = policies_.artifactStore ? policies_.artifactStore
                                     : store::ArtifactStore::openFromEnv();
    // One compile cache for the whole fleet: member compilers key by
    // their own calibration generation, so members sharing a
    // calibration share compiled schedules (the failover path serves
    // hop recompiles from cache) while distinct calibrations miss.
    compileCache_ = policies_.compileCache
                        ? policies_.compileCache
                        : std::make_shared<CompileCache>(
                              CompileCache::kDefaultCapacity, store_);
}

void
BackendPool::addBackend(std::string name,
                        std::shared_ptr<const PulseBackend> backend,
                        PulseSimulator sim)
{
    qpulseRequire(backend != nullptr,
                  "BackendPool::addBackend: null backend");
    Schedule probe = backend->probeSchedule(0);
    addBackend(std::move(name), std::move(backend), std::move(sim),
               std::move(probe));
}

void
BackendPool::addBackend(std::string name,
                        std::shared_ptr<const PulseBackend> backend,
                        PulseSimulator sim, Schedule probe)
{
    qpulseRequire(backend != nullptr,
                  "BackendPool::addBackend: null backend");
    qpulseRequire(!name.empty(),
                  "BackendPool::addBackend: empty backend name");
    qpulseRequire(!has(name), "BackendPool::addBackend: duplicate "
                              "backend name '" +
                                  name + "'");
    entries_.push_back(std::make_unique<Entry>(
        std::move(name), std::move(backend), std::move(sim),
        std::move(probe), policies_));
    Entry *entry = entries_.back().get();
    if (store_)
        entry->persistCache =
            std::make_shared<store::PersistentPropagatorCache>(
                store_,
                memberGeneration(entry->sim, entry->name,
                                 entry->persistEpoch),
                store::simConfigFingerprint(entry->sim));
    entry->compiler = std::make_unique<PulseCompiler>(
        entry->backend, policies_.compileMode);
    entry->compiler->setCompileCache(compileCache_);
    entry->compiler->setCompileGeneration(calibrationGeneration(
        entry->backend->library(), entry->persistEpoch));
    // The drift watchdog's targeted refresh re-tunes the member: its
    // calibration is fresh again, the fleet counts the event, and any
    // persisted propagators from the stale calibration are retired.
    entry->executor.setRecalibrationHook([this, entry] {
        static telemetry::Counter &c_recal =
            telemetry::MetricsRegistry::global().counter(
                "fleet.recalibrations");
        entry->jobsSinceCalibration = 0;
        ++stats_.recalibrations;
        c_recal.increment();
        bumpPersistGeneration(*entry);
    });
    updateGauges();
}

void
BackendPool::setFaultInjector(const std::string &name,
                              std::shared_ptr<FaultInjector> injector)
{
    Entry &entry = find(name);
    entry.injector = injector;
    entry.executor.setFaultInjector(std::move(injector));
}

bool
BackendPool::has(const std::string &name) const
{
    for (const auto &entry : entries_)
        if (entry->name == name)
            return true;
    return false;
}

std::vector<std::string>
BackendPool::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &entry : entries_)
        out.push_back(entry->name);
    return out;
}

BackendAdminState
BackendPool::adminState(const std::string &name) const
{
    return find(name).admin;
}

const CircuitBreaker &
BackendPool::breaker(const std::string &name) const
{
    return find(name).breaker;
}

long
BackendPool::calibrationVersion(const std::string &name) const
{
    return find(name).calibrationVersion;
}

long
BackendPool::jobsSinceCalibration(const std::string &name) const
{
    return find(name).jobsSinceCalibration;
}

double
BackendPool::healthScore(const std::string &name) const
{
    return scoreOf(find(name));
}

std::vector<std::string>
BackendPool::routingOrder() const
{
    std::vector<std::pair<double, const Entry *>> ranked;
    ranked.reserve(entries_.size());
    for (const auto &entry : entries_)
        if (entry->admin == BackendAdminState::Active)
            ranked.emplace_back(scoreOf(*entry), entry.get());
    // stable_sort keeps insertion order among equal scores, so the
    // failover order is fully deterministic.
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    std::vector<std::string> order;
    order.reserve(ranked.size());
    for (const auto &pair : ranked)
        order.push_back(pair.second->name);
    return order;
}

BackendPool::PoolRun
BackendPool::runOn(const std::string &name,
                   const ResilientRequest &request,
                   const PulseShotOptions &opts)
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    static telemetry::Counter &c_jobs = registry.counter("fleet.jobs");
    static telemetry::Counter &c_failures =
        registry.counter("fleet.job_failures");
    static telemetry::Counter &c_denied =
        registry.counter("fleet.breaker_denied");

    Entry &entry = find(name);
    PoolRun run;

    // The member's own breaker gate. Routed traffic only reaches
    // Active members, whose breaker admits by construction; this
    // covers pinned jobs and keeps the gate self-contained.
    if (!entry.breaker.allow()) {
        c_denied.increment();
        run.outcome.status = Status::error(
            ErrorCode::Unavailable,
            breakerDenialMessage(entry.name, entry.breaker));
        run.outcome.lastError = run.outcome.status;
        maybeQuarantine(entry);
        return run;
    }

    run.ran = true;
    ++stats_.jobs;
    c_jobs.increment();
    registry.counter("fleet.routed." + entry.name).increment();

    // With persistence on, route the job's propagator derivations
    // through the member's disk-backed cache (memory -> disk ->
    // derive). A caller-supplied cache wins: it is an explicit choice.
    PulseShotOptions effective = opts;
    if (entry.persistCache && !effective.cache)
        effective.cache = entry.persistCache;
    run.outcome = entry.executor.run(entry.sim, request, effective);
    ++entry.jobsSinceCalibration;

    const ErrorCode code = run.outcome.status.code();
    if (code == ErrorCode::Ok) {
        entry.breaker.recordSuccess();
        recordOutcome(entry, /*failure=*/false);
    } else if (healthFailure(code)) {
        entry.breaker.recordFailure();
        recordOutcome(entry, /*failure=*/true);
        ++stats_.failures;
        c_failures.increment();
    }
    registry.gauge("fleet.breaker.state." + entry.name)
        .set(entry.breaker.stateValue());
    registry.gauge("fleet.health." + entry.name).set(scoreOf(entry));
    maybeQuarantine(entry);
    return run;
}

void
BackendPool::pumpProbes()
{
    for (auto &entryPtr : entries_) {
        Entry &entry = *entryPtr;
        if (entry.admin != BackendAdminState::Quarantined)
            continue;
        // While the cooldown lasts, each pump spends one denial; the
        // pump that exhausts it flips the breaker Half-Open and runs
        // a real probe job. Recovery latency is therefore measured in
        // scheduled work, deterministic across thread counts.
        if (!entry.breaker.allow())
            continue;
        runProbe(entry);
    }
}

Status
BackendPool::beginDrain(const std::string &name)
{
    if (!has(name))
        return Status::error(ErrorCode::InvalidArgument,
                             "BackendPool: unknown backend '" + name +
                                 "'");
    Entry &entry = find(name);
    if (entry.admin == BackendAdminState::Quarantined)
        return Status::error(
            ErrorCode::Unavailable,
            "backend '" + name +
                "' is quarantined: it re-enters service through "
                "health probes, not an admin drain");
    if (entry.admin == BackendAdminState::Draining)
        return Status::error(ErrorCode::InvalidArgument,
                             "backend '" + name +
                                 "' is already draining");
    entry.admin = BackendAdminState::Draining;
    ++stats_.drains;
    static telemetry::Counter &c_drains =
        telemetry::MetricsRegistry::global().counter("fleet.drains");
    c_drains.increment();
    updateGauges();
    return Status::okStatus();
}

Status
BackendPool::readmit(const std::string &name)
{
    if (!has(name))
        return Status::error(ErrorCode::InvalidArgument,
                             "BackendPool: unknown backend '" + name +
                                 "'");
    Entry &entry = find(name);
    if (entry.admin == BackendAdminState::Quarantined)
        return Status::error(
            ErrorCode::Unavailable,
            "backend '" + name +
                "' is quarantined: only successful health probes "
                "re-admit it");
    if (entry.admin == BackendAdminState::Active)
        return Status::error(ErrorCode::InvalidArgument,
                             "backend '" + name +
                                 "' is not draining");
    // The drain's purpose: a full recalibration pass. Clear any
    // active drift, reset freshness and the health window, and start
    // the member on a fresh breaker.
    if (entry.injector)
        entry.injector->recalibrate();
    entry.jobsSinceCalibration = 0;
    ++entry.calibrationVersion;
    bumpPersistGeneration(entry);
    entry.breaker = CircuitBreaker(policies_.breaker);
    std::fill(entry.window.begin(), entry.window.end(), 0);
    entry.windowNext = 0;
    entry.windowFill = 0;
    entry.windowFailures = 0;
    entry.admin = BackendAdminState::Active;
    ++stats_.drainReadmissions;
    static telemetry::Counter &c_readmit =
        telemetry::MetricsRegistry::global().counter(
            "fleet.drain_readmissions");
    c_readmit.increment();
    updateGauges();
    return Status::okStatus();
}

BackendPool::Entry &
BackendPool::find(const std::string &name)
{
    for (auto &entry : entries_)
        if (entry->name == name)
            return *entry;
    qpulseFatal("BackendPool: unknown backend '" + name + "'");
}

const BackendPool::Entry &
BackendPool::find(const std::string &name) const
{
    for (const auto &entry : entries_)
        if (entry->name == name)
            return *entry;
    qpulseFatal("BackendPool: unknown backend '" + name + "'");
}

double
BackendPool::scoreOf(const Entry &entry) const
{
    if (entry.admin != BackendAdminState::Active)
        return 0.0;
    double base = 0.0;
    switch (entry.breaker.state()) {
      case BreakerState::Closed:   base = 1.0; break;
      case BreakerState::HalfOpen: base = 0.5; break;
      case BreakerState::Open:     return 0.0;
    }
    const double failRate =
        entry.windowFill == 0
            ? 0.0
            : static_cast<double>(entry.windowFailures) /
                  static_cast<double>(entry.windowFill);
    const double staleness =
        std::min(1.0, static_cast<double>(entry.jobsSinceCalibration) /
                          policies_.health.freshnessHorizonJobs);
    return base - kHealthFailureWeight * failRate -
           kHealthFreshnessWeight * staleness;
}

void
BackendPool::recordOutcome(Entry &entry, bool failure)
{
    if (entry.windowFill == entry.window.size()) {
        if (entry.window[entry.windowNext])
            --entry.windowFailures;
    } else {
        ++entry.windowFill;
    }
    entry.window[entry.windowNext] = failure ? 1 : 0;
    if (failure)
        ++entry.windowFailures;
    entry.windowNext = (entry.windowNext + 1) % entry.window.size();
}

void
BackendPool::maybeQuarantine(Entry &entry)
{
    if (entry.admin != BackendAdminState::Active)
        return;
    if (entry.breaker.state() != BreakerState::Open)
        return;
    entry.admin = BackendAdminState::Quarantined;
    ++stats_.quarantines;
    static telemetry::Counter &c_quarantines =
        telemetry::MetricsRegistry::global().counter(
            "fleet.quarantines");
    c_quarantines.increment();
    updateGauges();
}

void
BackendPool::runProbe(Entry &entry)
{
    telemetry::TraceSpan span("fleet.probe");
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    static telemetry::Counter &c_probes =
        registry.counter("fleet.probes");
    static telemetry::Counter &c_probe_failures =
        registry.counter("fleet.probe_failures");
    static telemetry::Counter &c_readmissions =
        registry.counter("fleet.readmissions");

    ++stats_.probes;
    c_probes.increment();

    // Probes carry no stale-tracking key and no fallback: a probe
    // must exercise the real substrate, not degrade around it.
    ResilientRequest request;
    request.schedule = entry.probe;

    PulseShotOptions opts;
    opts.shots = policies_.probe.shots;
    opts.seed = Rng::deriveSeed(policies_.probe.seed,
                                entry.probeCounter++);
    if (entry.persistCache)
        opts.cache = entry.persistCache;

    const ResilientOutcome outcome =
        entry.executor.run(entry.sim, request, opts);

    if (outcome.status.ok()) {
        entry.breaker.recordSuccess();
        if (entry.breaker.state() == BreakerState::Closed) {
            // Enough consecutive probe successes: the breaker closed
            // and the member rejoins routing with a clean window.
            std::fill(entry.window.begin(), entry.window.end(), 0);
            entry.windowNext = 0;
            entry.windowFill = 0;
            entry.windowFailures = 0;
            entry.admin = BackendAdminState::Active;
            ++stats_.readmissions;
            c_readmissions.increment();
        }
    } else {
        // A failed probe re-opens the breaker and restarts the
        // cooldown; the member stays quarantined.
        entry.breaker.recordFailure();
        ++stats_.probeFailures;
        c_probe_failures.increment();
    }
    registry.gauge("fleet.breaker.state." + entry.name)
        .set(entry.breaker.stateValue());
    registry.gauge("fleet.health." + entry.name).set(scoreOf(entry));
    updateGauges();
}

std::shared_ptr<store::PersistentPropagatorCache>
BackendPool::persistentCache(const std::string &name) const
{
    return find(name).persistCache;
}

Status
BackendPool::flushPersistence()
{
    Status first = Status::okStatus();
    for (auto &entry : entries_) {
        if (!entry->persistCache)
            continue;
        const Status status = entry->persistCache->flush();
        if (!status.ok() && first.ok())
            first = status;
    }
    if (compileCache_) {
        const Status status = compileCache_->flush();
        if (!status.ok() && first.ok())
            first = status;
    }
    return first;
}

PulseCompiler &
BackendPool::compiler(const std::string &name)
{
    return *find(name).compiler;
}

std::uint64_t
BackendPool::compileGeneration(const std::string &name) const
{
    return find(name).compiler->compileGeneration();
}

void
BackendPool::bumpPersistGeneration(Entry &entry)
{
    // The epoch always advances: compiled schedules keyed under the
    // old calibration generation must miss even when the persistent
    // tier is off (the memory tier invalidates the same way).
    ++entry.persistEpoch;
    if (entry.persistCache)
        entry.persistCache->setGeneration(memberGeneration(
            entry.sim, entry.name, entry.persistEpoch));
    if (entry.compiler)
        entry.compiler->setCompileGeneration(calibrationGeneration(
            entry.backend->library(), entry.persistEpoch));
    // A fresh snapshot marks the recalibration point for the next
    // process's bootstrap (newest-wins on the fixed snapshot key).
    if (store_)
        writeCalibrationSnapshot(*store_, entry.backend->library());
}

void
BackendPool::updateGauges() const
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    static telemetry::Gauge &g_active =
        registry.gauge("fleet.backends_active");
    static telemetry::Gauge &g_quarantined =
        registry.gauge("fleet.backends_quarantined");
    static telemetry::Gauge &g_draining =
        registry.gauge("fleet.backends_draining");
    double active = 0.0, quarantined = 0.0, draining = 0.0;
    for (const auto &entry : entries_) {
        switch (entry->admin) {
          case BackendAdminState::Active:      active += 1.0; break;
          case BackendAdminState::Quarantined: quarantined += 1.0; break;
          case BackendAdminState::Draining:    draining += 1.0; break;
        }
    }
    g_active.set(active);
    g_quarantined.set(quarantined);
    g_draining.set(draining);
}

} // namespace qpulse
