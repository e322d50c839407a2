#include "device/resilient_executor.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "device/schedule_validation.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qpulse {

namespace {

constexpr std::uint64_t kBackoffSalt = 0xBAC0FF01ull;

/** Consecutive failed runs after which a keyed entry is stale. */
constexpr int kStaleAfterFailures = 2;

/**
 * Re-export the per-run ResilienceStats delta into the global metrics
 * registry, so executor health shows up in the one telemetry report
 * alongside cache and backend counters. Every field counts decisions
 * taken by the deterministic retry state machine, never scheduling,
 * so the exported values are thread-count invariant.
 */
void
absorbResilienceStats(const ResilienceStats &stats)
{
    telemetry::MetricsRegistry &registry =
        telemetry::MetricsRegistry::global();
    static telemetry::Counter &c_attempts =
        registry.counter("executor.attempts");
    static telemetry::Counter &c_retries =
        registry.counter("executor.retries");
    static telemetry::Counter &c_faults =
        registry.counter("executor.faults_detected");
    static telemetry::Counter &c_recals =
        registry.counter("executor.recalibrations");
    static telemetry::Counter &c_fallbacks =
        registry.counter("executor.fallbacks");
    static telemetry::Counter &c_degraded =
        registry.counter("executor.degraded_runs");
    static telemetry::Counter &c_rejects =
        registry.counter("executor.validation_rejects");
    const auto u64 = [](long v) {
        return static_cast<std::uint64_t>(v < 0 ? 0 : v);
    };
    c_attempts.add(u64(stats.attempts));
    c_retries.add(u64(stats.retries));
    c_faults.add(u64(stats.faultsDetected));
    c_recals.add(u64(stats.recalibrations));
    c_fallbacks.add(u64(stats.fallbacks));
    c_degraded.add(u64(stats.degradedRuns));
    c_rejects.add(u64(stats.validationRejects));
}

/** Expected top basis state and its probability, fault-free. */
struct Baseline
{
    std::size_t index = 0;
    double proxy = 0.0;
};

/**
 * Evolves through the run's cache (null when caching is off), so every
 * attempt's runShots hits what this evolution derived.
 */
Baseline
cleanBaseline(const PulseSimulator &sim, const Schedule &schedule,
              const std::shared_ptr<PropagatorCache> &cache)
{
    PulseSimulator worker = sim;
    worker.setPropagatorCache(cache);
    Vector ground(worker.model().dim());
    ground[0] = Complex{1.0, 0.0};
    const std::vector<double> pops =
        worker.populations(worker.evolveState(schedule, ground));
    Baseline baseline;
    for (std::size_t i = 0; i < pops.size(); ++i)
        if (pops[i] > baseline.proxy) {
            baseline.proxy = pops[i];
            baseline.index = i;
        }
    return baseline;
}

} // namespace

ResilientExecutor::ResilientExecutor(
    std::shared_ptr<const PulseBackend> backend, RetryPolicy retry,
    DriftWatchdogPolicy watchdog)
    : backend_(std::move(backend)), retry_(retry), watchdog_(watchdog)
{
    qpulseRequire(backend_ != nullptr,
                  "ResilientExecutor needs a backend");
    qpulseRequire(retry_.maxAttempts >= 1,
                  "RetryPolicy needs maxAttempts >= 1");
}

double
ResilientExecutor::backoffMs(int attempt, std::uint64_t run_id,
                             std::uint64_t seed) const
{
    // attempt is the retry ordinal (1 = first retry). Deterministic
    // jitter: the delay depends only on (seed, run, attempt), never on
    // the clock, preserving the bit-identical-replay contract.
    double delay = retry_.backoffBaseMs *
                   std::pow(retry_.backoffFactor, attempt - 1);
    delay = std::min(delay, retry_.backoffCapMs);
    Rng rng(Rng::deriveSeed(Rng::deriveSeed(seed ^ kBackoffSalt, run_id),
                            static_cast<std::uint64_t>(attempt)));
    delay *= 1.0 + retry_.jitter * (2.0 * rng.uniform() - 1.0);
    return delay;
}

bool
ResilientExecutor::entryStale(const std::string &key) const
{
    if (key.empty())
        return false;
    const auto it = failureStreaks_.find(key);
    return it != failureStreaks_.end() &&
           it->second >= kStaleAfterFailures;
}

void
ResilientExecutor::markFresh(const std::string &key)
{
    if (!key.empty())
        failureStreaks_.erase(key);
}

void
ResilientExecutor::registerFailure(const std::string &key)
{
    if (!key.empty())
        ++failureStreaks_[key];
}

ResilientOutcome
ResilientExecutor::run(const PulseSimulator &sim,
                       const ResilientRequest &request,
                       const PulseShotOptions &opts)
{
    telemetry::TraceSpan run_span("executor.run");
    static telemetry::Counter &c_runs =
        telemetry::MetricsRegistry::global().counter("executor.runs");
    c_runs.increment();

    const std::uint64_t run_id = runCounter_++;
    ResilientOutcome outcome;
    ResilienceStats &stats = outcome.stats;
    const ChannelBudget budget =
        ChannelBudget::fromConfig(backend_->config());

    // --- Phase selection: a stale entry skips its primary schedule.
    bool on_fallback = false;
    const Schedule *active = &request.schedule;
    if (request.fallback && entryStale(request.key)) {
        on_fallback = true;
        active = &*request.fallback;
        ++stats.fallbacks;
        outcome.usedFallback = true;
        outcome.lastError = Status::error(
            ErrorCode::StaleCalibration,
            "entry '" + request.key + "' is stale; using fallback");
    }

    // --- Validation gate (the primary may be structurally invalid —
    // e.g. a miscalibrated augmented entry scaling past |d| = 1 — in
    // which case it is immediately stale and the standard
    // decomposition takes over).
    Status valid = validateSchedule(*active, budget);
    if (!valid.ok()) {
        ++stats.validationRejects;
        outcome.lastError = valid;
        if (!on_fallback && request.fallback) {
            if (!request.key.empty())
                failureStreaks_[request.key] =
                    std::max(failureStreaks_[request.key],
                             kStaleAfterFailures);
            on_fallback = true;
            active = &*request.fallback;
            ++stats.fallbacks;
            outcome.usedFallback = true;
            valid = validateSchedule(*active, budget);
            if (!valid.ok()) {
                ++stats.validationRejects;
                outcome.lastError = valid;
            }
        }
        if (!valid.ok()) {
            outcome.status = valid;
            outcome.result.resilience = stats;
            stats_ += stats;
            absorbResilienceStats(stats);
            return outcome;
        }
    }

    // --- One propagator cache for the whole run: the clean baselines
    // and every attempt's runShots share it, so a retry derives nothing
    // new unless the injector rewrote the schedule.
    PulseShotOptions shot_opts = opts;
    shot_opts.cache = runPropagatorCache(sim, opts);

    // --- Fidelity-proxy baseline from a clean, fault-free evolution.
    Baseline baseline = cleanBaseline(sim, *active, shot_opts.cache);
    if (request.baselineProxy >= 0.0)
        baseline.proxy = request.baselineProxy;
    outcome.baseline = baseline.proxy;

    const auto shots = static_cast<double>(opts.shots);

    // Cooperative interruption: set once the token fires or the
    // deadline expires; the attempt loop stops retrying and the
    // partial shot result (if any attempt got that far) is surfaced.
    Status interrupt;
    PulseShotResult interrupt_partial;
    double backoff_spent_ms = 0.0; // Cumulative, both phases.

    // runShots is a pure function of (sim, schedule, options) and a
    // retry keeps the seed, so an attempt that would execute a
    // schedule its phase already ran is served that complete result
    // instead.
    static telemetry::Counter &c_reuses =
        telemetry::MetricsRegistry::global().counter(
            "executor.shot_reuses");

    // One bounded attempt loop over a schedule; returns true when a
    // result (healthy or accepted-degraded) landed in outcome.result.
    const auto run_phase = [&](const Schedule &schedule) -> bool {
        int recalibrations = 0;
        bool have_best = false;
        PulseShotResult best;
        double best_proxy = 0.0;
        // An uncorrupted injection is the phase schedule, drifted iff
        // driftApplied (FaultInjector::Injection), so it keys a kept
        // result. Corrupted uploads are random per attempt and never
        // reuse.
        std::optional<PulseShotResult> executed[2];
        for (int attempt = 0; attempt < retry_.maxAttempts; ++attempt) {
            interrupt = opts.deadline.check(opts.token);
            if (!interrupt.ok())
                return false; // Cancelled/expired: stop retrying.
            telemetry::TraceSpan attempt_span("executor.attempt");
            ++stats.attempts;
            if (attempt > 0) {
                telemetry::TraceSpan retry_span("executor.retry");
                ++stats.retries;
                double delay = backoffMs(attempt, run_id, opts.seed);
                // Per-attempt budget: never charge past the cumulative
                // backoff cap, and never past the wall-clock deadline
                // (remainingMs() is +inf for unlimited/virtual, so
                // those never shrink a delay).
                if (retry_.maxTotalBackoffMs >= 0.0)
                    delay = std::min(
                        delay, std::max(0.0, retry_.maxTotalBackoffMs -
                                                 backoff_spent_ms));
                delay = std::min(delay, opts.deadline.remainingMs());
                backoff_spent_ms += delay;
                stats.backoffTotalMs += delay;
            }

            FaultInjector::Injection injection;
            if (injector_) {
                injection = injector_->inject(schedule, run_id, attempt);
            } else {
                injection.schedule = schedule;
            }

            if (injection.transient || injection.timeout) {
                ++stats.faultsDetected;
                if (injection.transient) {
                    ++stats.transientFailures;
                    outcome.lastError = Status::error(
                        ErrorCode::TransientFailure,
                        "shot batch rejected (attempt " +
                            std::to_string(attempt + 1) + ")");
                } else {
                    ++stats.timeouts;
                    outcome.lastError = Status::error(
                        ErrorCode::Timeout,
                        "shot batch timed out (attempt " +
                            std::to_string(attempt + 1) + ")");
                }
                continue;
            }

            if (injection.corrupted) {
                // The validation gate catches structurally-broken
                // uploads (NaN glitches, clipped envelopes) before
                // they can poison the propagator cache; re-uploading
                // is the fix. Silently-degrading corruption (dropped
                // samples) passes here and is caught by the proxy
                // check below instead.
                const Status upload =
                    validateSchedule(injection.schedule, budget);
                if (!upload.ok()) {
                    ++stats.faultsDetected;
                    ++stats.corruptedSchedules;
                    ++stats.validationRejects;
                    outcome.lastError = upload;
                    continue;
                }
            }

            std::optional<PulseShotResult> &kept =
                executed[injection.driftApplied ? 1 : 0];
            PulseShotResult result;
            if (!injection.corrupted && kept) {
                result = *kept;
                result.cacheStats = PropagatorCacheStats{};
                c_reuses.increment();
            } else {
                result = backend_->runShots(sim, injection.schedule,
                                            shot_opts);
                if (!injection.corrupted && !result.partial)
                    kept = result;
            }
            // Readout faults are drawn per attempt, on this copy.
            if (injector_)
                stats.readoutFaultShots +=
                    injector_->applyReadoutFaults(
                        result.counts, result.populations, run_id,
                        attempt);

            if (!result.interruption.ok()) {
                // The run was cut short mid-shots. Keep the partial
                // counts — they are complete, valid draws — and stop
                // retrying: more attempts cannot outlive the deadline.
                interrupt = result.interruption;
                interrupt_partial = std::move(result);
                return false;
            }

            const double proxy =
                static_cast<double>(result.counts[baseline.index]) /
                shots;
            outcome.proxy = proxy;
            if (baseline.proxy - proxy <= watchdog_.tolerance) {
                outcome.result = std::move(result);
                return true;
            }

            // Proxy crossed the threshold: the prime suspect between
            // daily calibrations is coherent drift, so trigger one
            // targeted calibration refresh per crossing (bounded),
            // then retry. Keep the batch as the best-effort result.
            ++stats.faultsDetected;
            if (!have_best || proxy > best_proxy) {
                best = std::move(result);
                best_proxy = proxy;
                have_best = true;
            }
            outcome.lastError = Status::error(
                ErrorCode::StaleCalibration,
                "fidelity proxy " + std::to_string(proxy) +
                    " fell below baseline " +
                    std::to_string(baseline.proxy) + " - tolerance");
            if (recalibrations < watchdog_.maxRecalibrations) {
                ++recalibrations;
                ++stats.recalibrations;
                if (injector_)
                    injector_->recalibrate();
                if (recalibrationHook_)
                    recalibrationHook_();
            }
        }
        if (have_best) {
            // Budget exhausted with completed-but-degraded batches:
            // accept the best one rather than erroring out.
            ++stats.degradedRuns;
            outcome.degraded = true;
            outcome.proxy = best_proxy;
            outcome.result = std::move(best);
            return true;
        }
        return false;
    };

    bool success = run_phase(*active);

    // --- Graceful degradation: a run whose primary phase exhausted
    // its budget falls back to the standard decomposition instead of
    // erroring out; repeated failures mark the entry stale so future
    // runs skip the primary entirely. An interrupted run never falls
    // back: the fallback would face the same dead token/deadline.
    if (!success && !interrupt.ok()) {
        static telemetry::Counter &c_interrupts =
            telemetry::MetricsRegistry::global().counter(
                "executor.interrupted_runs");
        c_interrupts.increment();
        if (!interrupt_partial.partial) {
            // Interrupt fired before any shot ran: synthesize an
            // empty partial so consumers see one uniform shape.
            interrupt_partial.partial = true;
            interrupt_partial.shotsRequested = opts.shots;
            interrupt_partial.interruption = interrupt;
        }
        outcome.lastError = interrupt;
        outcome.status = interrupt;
        outcome.result = std::move(interrupt_partial);
        outcome.result.resilience = stats;
        stats_ += stats;
        absorbResilienceStats(stats);
        return outcome;
    }
    // Streaks are only kept for keys with a fallback: staleness only
    // matters there, and a key without one (a front-end chunk key is
    // unique) would otherwise hold an entry forever.
    if (!success && !on_fallback && request.fallback) {
        registerFailure(request.key);
        const Status fallback_valid =
            validateSchedule(*request.fallback, budget);
        if (fallback_valid.ok()) {
            on_fallback = true;
            ++stats.fallbacks;
            outcome.usedFallback = true;
            baseline =
                cleanBaseline(sim, *request.fallback, shot_opts.cache);
            outcome.baseline = baseline.proxy;
            success = run_phase(*request.fallback);
        } else {
            ++stats.validationRejects;
            outcome.lastError = fallback_valid;
        }
    }

    if (success) {
        if (!on_fallback)
            markFresh(request.key);
        outcome.status = Status::okStatus();
    } else {
        if (on_fallback)
            registerFailure(request.key);
        outcome.status = Status::error(
            ErrorCode::RetriesExhausted,
            "gave up after " + std::to_string(stats.attempts) +
                " attempts; last error: " +
                outcome.lastError.toString());
    }
    outcome.result.resilience = stats;
    stats_ += stats;
    absorbResilienceStats(stats);
    return outcome;
}

} // namespace qpulse
