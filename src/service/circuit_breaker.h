/**
 * @file
 * Per-backend circuit breaker for the execution service.
 *
 * A wedged backend — 100% timeouts, every attempt burned — must not be
 * allowed to eat every queued job's retry budget. The breaker watches
 * the failure rate over a sliding window of recent executions and trips
 * Open after the rate crosses the policy threshold; while Open, jobs
 * fail fast with a structured `unavailable` Status instead of running
 * the full retry loop. After a cooldown the breaker goes Half-Open and
 * lets probe jobs through: a streak of successes closes it, a probe
 * failure re-opens it.
 *
 * Determinism: the cooldown is counted in *denied allow() calls*, not
 * wall time, so the breaker's state trajectory — and every counter
 * derived from it — is a pure function of the job sequence, bit-
 * identical across QPULSE_THREADS settings. The class is sequential
 * (one breaker per backend, driven by the service's sequential drain
 * loop) and deliberately unsynchronized.
 */
#ifndef QPULSE_SERVICE_CIRCUIT_BREAKER_H
#define QPULSE_SERVICE_CIRCUIT_BREAKER_H

#include <cstdint>
#include <deque>

#include "common/status.h"

namespace qpulse {

/** The classic three-state breaker. */
enum class BreakerState
{
    Closed,  ///< Healthy: every job passes.
    Open,    ///< Tripped: jobs fail fast with `unavailable`.
    HalfOpen ///< Probing: jobs pass; outcomes decide open vs closed.
};

/** Stable lower-case name ("closed" / "open" / "half-open"). */
const char *breakerStateName(BreakerState state);

struct CircuitBreakerPolicy
{
    /** Sliding window of recent recorded outcomes. */
    int window = 8;
    /** Outcomes required in the window before the rate is evaluated. */
    int minSamples = 4;
    /** Failure rate (failures / samples) at which the breaker trips. */
    double openFailureRate = 0.5;
    /**
     * allow() calls denied while Open before the next call becomes a
     * Half-Open probe. Counted in calls, not wall time, so breaker
     * trajectories replay deterministically.
     */
    int cooldownDenials = 2;
    /** Consecutive probe successes that close a Half-Open breaker. */
    int halfOpenSuccesses = 2;
};

/**
 * Structured validation of a breaker policy. Degenerate configs —
 * a breaker that can never open (openFailureRate > 1, minSamples >
 * window) or never close (non-positive halfOpenSuccesses) — are
 * rejected with an `invalid-argument` Status naming the field, so a
 * service refuses to start with a breaker that silently can't do its
 * job. CircuitBreaker's constructor throws the same Status as a
 * StatusError; validate first when a throw is unwanted.
 */
Status validateBreakerPolicy(const CircuitBreakerPolicy &policy);

class CircuitBreaker;

/**
 * "circuit breaker <state>", plus — while Open — how many more
 * cooldown denials remain before the half-open probe.
 */
std::string breakerStateDetail(const CircuitBreaker &breaker);

/**
 * The structured fast-fail message for a job denied by `breaker`:
 * names the backend and its breakerStateDetail, so an `unavailable`
 * Status tells the caller *which* backend refused and how far through
 * its cooldown it is. Call after allow() returned false (the denial
 * just counted is already reflected).
 */
std::string breakerDenialMessage(const std::string &backendName,
                                 const CircuitBreaker &breaker);

class CircuitBreaker
{
  public:
    /** Throws StatusError(validateBreakerPolicy(policy)) if invalid. */
    explicit CircuitBreaker(CircuitBreakerPolicy policy = {});

    /**
     * Gate one job. Closed/Half-Open: true. Open: counts a denial and
     * returns false until the cooldown is spent, then transitions to
     * Half-Open and admits the call as a probe.
     */
    bool allow();

    /** Record the gated job's outcome (only for jobs that ran). */
    void recordSuccess();
    void recordFailure();

    BreakerState state() const { return state_; }

    /** Numeric state for the telemetry gauge (0/1/2 as declared). */
    double stateValue() const
    {
        return static_cast<double>(static_cast<int>(state_));
    }

    /** Lifetime count of fast-failed (denied) allow() calls. */
    std::uint64_t denials() const { return denials_; }

    /**
     * Denied allow() calls still owed before an Open breaker admits
     * its Half-Open probe (0 unless Open). Surfaced so fast-fail
     * Status messages and cooldown-accounting tests can report how
     * far through the cooldown a backend is.
     */
    int
    cooldownRemaining() const
    {
        if (state_ != BreakerState::Open)
            return 0;
        return policy_.cooldownDenials - cooldownSpent_;
    }

    /** Lifetime count of Closed->Open transitions. */
    std::uint64_t trips() const { return trips_; }

  private:
    void record(bool failure);

    CircuitBreakerPolicy policy_;
    BreakerState state_ = BreakerState::Closed;
    std::deque<bool> window_; ///< true = failure.
    int cooldownSpent_ = 0;   ///< Denials since the breaker opened.
    int probeStreak_ = 0;     ///< Consecutive Half-Open successes.
    std::uint64_t denials_ = 0;
    std::uint64_t trips_ = 0;
};

} // namespace qpulse

#endif // QPULSE_SERVICE_CIRCUIT_BREAKER_H
