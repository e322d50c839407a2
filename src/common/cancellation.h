/**
 * @file
 * Cooperative cancellation and deadlines for the execution stack.
 *
 * A CancelToken is a cheap, copyable handle to a shared cancellation
 * flag: the service layer (or any caller) cancels it once, and every
 * layer holding a copy — PulseBackend::runShots between shot batches,
 * the PulseSimulator evolve loops every few hundred AWG samples, the
 * ResilientExecutor between retry attempts — observes the flag and
 * winds down cooperatively, surfacing the work completed so far as a
 * partial result instead of throwing it away.
 *
 * A Deadline bounds a job's execution in one of two currencies:
 *
 *  - wall-clock: a steady_clock expiry. Honest about real latency, but
 *    inherently scheduling-dependent — two runs with different thread
 *    counts can complete different amounts of work before expiry.
 *  - virtual time: a budget of simulated AWG samples, charged one
 *    shot batch at a time just before the batch runs. Expiry is a
 *    pure function of the workload, so partial results, shed counters
 *    and every telemetry export stay bit-identical across
 *    QPULSE_THREADS settings — the determinism contract the
 *    `service`-label tests and BENCH runs rely on.
 *
 * QPULSE_VIRTUAL_TIME=1 flips Deadline::afterMsOrBudget (the form the
 * service layer and benches use) from wall-clock to virtual budgets,
 * making a whole run deterministic without touching call sites.
 *
 * Both types share their state through shared_ptr, so copies threaded
 * down the stack observe one flag / consume one budget. All reads are
 * lock-free; Deadline::tryCharge is a single atomic fetch_add.
 */
#ifndef QPULSE_COMMON_CANCELLATION_H
#define QPULSE_COMMON_CANCELLATION_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/status.h"

namespace qpulse {

/**
 * True when QPULSE_VIRTUAL_TIME=1: deadlines constructed through
 * Deadline::afterMsOrBudget run on sample budgets instead of the
 * clock. Read per call (not cached) so tests can flip the variable.
 */
bool virtualTimeEnabled();

/**
 * Shared cooperative-cancellation flag. A default-constructed token is
 * *inert*: it can never be cancelled and costs nothing to check, so it
 * is safe as a default member of option structs. CancelToken::make()
 * returns a live token.
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /** A live (cancellable) token. */
    static CancelToken make();

    /** True when this token can ever fire (i.e. not inert). */
    bool cancellable() const { return state_ != nullptr; }

    /**
     * Request cancellation with a structured reason (default:
     * Cancelled). First cancel wins; later calls keep the original
     * reason. No-op on an inert token.
     */
    void cancel(Status reason = Status::error(
                    ErrorCode::Cancelled, "cancelled by caller"));

    /** True once cancel() has been called. */
    bool cancelled() const
    {
        return state_ != nullptr &&
               state_->cancelled.load(std::memory_order_acquire);
    }

    /** The cancel reason; Ok while not cancelled. */
    Status reason() const;

  private:
    struct State
    {
        std::atomic<bool> cancelled{false};
        std::mutex mutex;
        Status reason;
    };

    std::shared_ptr<State> state_;
};

/**
 * A job deadline: unlimited (default), wall-clock, or a virtual-time
 * budget of simulated AWG samples. Copies share the consumed budget.
 */
class Deadline
{
  public:
    /** Unlimited: never expires, charges are free. */
    Deadline() = default;

    static Deadline none() { return Deadline(); }

    /** Wall-clock deadline `ms` milliseconds from now. */
    static Deadline afterMs(double ms);

    /** Virtual-time deadline: a budget of `units` simulated samples. */
    static Deadline virtualBudget(std::uint64_t units);

    /**
     * The service-layer constructor: wall-clock `ms` normally, a
     * virtual budget of `units` when QPULSE_VIRTUAL_TIME=1.
     */
    static Deadline afterMsOrBudget(double ms, std::uint64_t units);

    bool unlimited() const { return state_ == nullptr; }
    bool isVirtual() const
    {
        return state_ != nullptr && state_->isVirtual;
    }

    /**
     * True once the deadline passed: wall-clock now >= expiry, or the
     * virtual budget is fully consumed. Never true when unlimited.
     */
    bool expired() const;

    /**
     * Wall-clock milliseconds left (floored at 0). Returns +infinity
     * when unlimited *or virtual* — virtual budgets bound work, not
     * latency, so they must never shrink a backoff delay.
     */
    double remainingMs() const;

    /** Unconsumed virtual units (max() when unlimited or wall-clock). */
    std::uint64_t remainingUnits() const;

    /**
     * Admission-charge one unit of work costing `units`. Virtual mode:
     * atomically consumes the cost and returns true iff the budget had
     * *any* capacity left before the charge — the unit that crosses
     * the boundary is still admitted (guaranteed progress), everything
     * after it is refused. Wall-clock mode: charges nothing, returns
     * !expired(). Unlimited: always true.
     *
     * Call sequentially (e.g. per shot batch, just before it runs)
     * when the admitted set must be deterministic.
     */
    bool tryCharge(std::uint64_t units) const;

    /**
     * Combined gate: the token's cancel reason if it fired, else a
     * structured deadline-exceeded error if expired, else Ok.
     * Cancellation wins because it is the more specific intent.
     */
    Status check(const CancelToken &token) const;

  private:
    struct State
    {
        bool isVirtual = false;
        std::chrono::steady_clock::time_point expiry{};
        std::uint64_t budget = 0;
        std::atomic<std::uint64_t> spent{0};
    };

    std::shared_ptr<State> state_;
};

} // namespace qpulse

#endif // QPULSE_COMMON_CANCELLATION_H
