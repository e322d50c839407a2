#include "common/cancellation.h"

#include <cstdlib>
#include <cstring>
#include <limits>

namespace qpulse {

bool
virtualTimeEnabled()
{
    const char *raw = std::getenv("QPULSE_VIRTUAL_TIME");
    return raw != nullptr && std::strcmp(raw, "1") == 0;
}

CancelToken
CancelToken::make()
{
    CancelToken token;
    token.state_ = std::make_shared<State>();
    return token;
}

void
CancelToken::cancel(Status reason)
{
    if (state_ == nullptr)
        return;
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->cancelled.load(std::memory_order_relaxed))
        return; // First cancel wins; keep the original reason.
    state_->reason = std::move(reason);
    state_->cancelled.store(true, std::memory_order_release);
}

Status
CancelToken::reason() const
{
    if (!cancelled())
        return Status::okStatus();
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->reason;
}

Deadline
Deadline::afterMs(double ms)
{
    Deadline deadline;
    deadline.state_ = std::make_shared<State>();
    deadline.state_->isVirtual = false;
    deadline.state_->expiry =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(ms < 0.0 ? 0.0
                                                               : ms));
    return deadline;
}

Deadline
Deadline::virtualBudget(std::uint64_t units)
{
    Deadline deadline;
    deadline.state_ = std::make_shared<State>();
    deadline.state_->isVirtual = true;
    deadline.state_->budget = units;
    return deadline;
}

Deadline
Deadline::afterMsOrBudget(double ms, std::uint64_t units)
{
    return virtualTimeEnabled() ? virtualBudget(units) : afterMs(ms);
}

bool
Deadline::expired() const
{
    if (state_ == nullptr)
        return false;
    if (state_->isVirtual)
        return state_->spent.load(std::memory_order_relaxed) >=
               state_->budget;
    return std::chrono::steady_clock::now() >= state_->expiry;
}

std::uint64_t
Deadline::remainingUnits() const
{
    if (state_ == nullptr || !state_->isVirtual)
        return std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t spent =
        state_->spent.load(std::memory_order_relaxed);
    return spent >= state_->budget ? 0 : state_->budget - spent;
}

bool
Deadline::tryCharge(std::uint64_t units) const
{
    if (state_ == nullptr)
        return true;
    if (!state_->isVirtual)
        return !expired();
    const std::uint64_t before =
        state_->spent.fetch_add(units, std::memory_order_relaxed);
    return before < state_->budget;
}

Status
Deadline::check(const CancelToken &token) const
{
    if (token.cancelled())
        return token.reason();
    if (expired())
        return Status::error(
            ErrorCode::DeadlineExceeded,
            isVirtual() ? "virtual-time budget exhausted"
                        : "wall-clock deadline passed");
    return Status::okStatus();
}

} // namespace qpulse
