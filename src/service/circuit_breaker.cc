#include "service/circuit_breaker.h"

#include "common/status.h"

namespace qpulse {

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::Closed:   return "closed";
      case BreakerState::Open:     return "open";
      case BreakerState::HalfOpen: return "half-open";
    }
    return "unknown";
}

Status
validateBreakerPolicy(const CircuitBreakerPolicy &policy)
{
    const auto invalid = [](const std::string &detail) {
        return Status::error(ErrorCode::InvalidArgument,
                             "CircuitBreakerPolicy: " + detail);
    };
    if (policy.window < 1)
        return invalid("window must be >= 1, got " +
                       std::to_string(policy.window));
    if (policy.minSamples < 1)
        return invalid("minSamples must be >= 1, got " +
                       std::to_string(policy.minSamples));
    if (policy.minSamples > policy.window)
        return invalid(
            "minSamples (" + std::to_string(policy.minSamples) +
            ") exceeds window (" + std::to_string(policy.window) +
            "): the failure rate would never be evaluated and the "
            "breaker could never open");
    if (!(policy.openFailureRate > 0.0))
        return invalid("openFailureRate must be > 0 (got " +
                       std::to_string(policy.openFailureRate) +
                       "): the breaker would trip on any sample");
    if (policy.openFailureRate > 1.0)
        return invalid("openFailureRate must be <= 1 (got " +
                       std::to_string(policy.openFailureRate) +
                       "): the rate can never exceed 1, so the "
                       "breaker could never open");
    if (policy.cooldownDenials < 0)
        return invalid("cooldownDenials must be >= 0, got " +
                       std::to_string(policy.cooldownDenials));
    if (policy.halfOpenSuccesses < 1)
        return invalid("halfOpenSuccesses must be >= 1 (got " +
                       std::to_string(policy.halfOpenSuccesses) +
                       "): an Open breaker could never close again");
    return Status::okStatus();
}

std::string
breakerStateDetail(const CircuitBreaker &breaker)
{
    std::string detail =
        std::string("circuit breaker ") + breakerStateName(breaker.state());
    if (breaker.state() == BreakerState::Open)
        detail += " (" + std::to_string(breaker.cooldownRemaining()) +
                  " more cooldown denials until the half-open probe)";
    return detail;
}

std::string
breakerDenialMessage(const std::string &backendName,
                     const CircuitBreaker &breaker)
{
    return "backend '" + backendName +
           "' unavailable: " + breakerStateDetail(breaker) +
           "; failing fast";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerPolicy policy)
    : policy_(policy)
{
    throwIfError(validateBreakerPolicy(policy_));
}

bool
CircuitBreaker::allow()
{
    if (state_ != BreakerState::Open)
        return true;
    if (cooldownSpent_ < policy_.cooldownDenials) {
        ++cooldownSpent_;
        ++denials_;
        return false;
    }
    // Cooldown spent: this call is the Half-Open probe.
    state_ = BreakerState::HalfOpen;
    probeStreak_ = 0;
    return true;
}

void
CircuitBreaker::recordSuccess()
{
    if (state_ == BreakerState::HalfOpen) {
        if (++probeStreak_ >= policy_.halfOpenSuccesses) {
            state_ = BreakerState::Closed;
            window_.clear();
        }
        return;
    }
    record(false);
}

void
CircuitBreaker::recordFailure()
{
    if (state_ == BreakerState::HalfOpen) {
        // A failed probe re-opens immediately: the backend is still
        // unhealthy and a fresh cooldown starts.
        state_ = BreakerState::Open;
        cooldownSpent_ = 0;
        window_.clear();
        return;
    }
    record(true);
}

void
CircuitBreaker::record(bool failure)
{
    if (state_ == BreakerState::Open)
        return; // Shouldn't happen (Open jobs never run); be safe.
    window_.push_back(failure);
    while (static_cast<int>(window_.size()) > policy_.window)
        window_.pop_front();
    if (static_cast<int>(window_.size()) < policy_.minSamples)
        return;
    int failures = 0;
    for (bool f : window_)
        failures += f ? 1 : 0;
    const double rate = static_cast<double>(failures) /
                        static_cast<double>(window_.size());
    if (rate >= policy_.openFailureRate) {
        state_ = BreakerState::Open;
        cooldownSpent_ = 0;
        window_.clear();
        ++trips_;
    }
}

} // namespace qpulse
