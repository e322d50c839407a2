/**
 * @file
 * Shared worker-thread pool for the embarrassingly parallel loops in
 * qpulse. Parallelism runs across independent schedules, never inside
 * one run's shots: the service's drain-time precompile, ZNE stretch
 * sweeps, RB sequence batches and the per-point sweeps in the figure
 * benches. PulseBackend::runShots runs on its calling thread.
 *
 * The pool is a process-wide singleton sized from
 * std::thread::hardware_concurrency(), overridable with the
 * QPULSE_THREADS environment variable (QPULSE_THREADS=1 disables
 * worker threads entirely and every parallelFor runs inline). Work is
 * submitted through parallelFor, which distributes loop iterations
 * over the workers with an atomic cursor and blocks until the loop is
 * complete. Nested parallelFor calls (a body that itself calls
 * parallelFor) degrade gracefully to inline execution instead of
 * deadlocking on the shared queue.
 *
 * Determinism contract: parallelFor imposes no iteration order, so
 * loop bodies must be independent (callers that need reproducible
 * randomness derive one Rng per iteration index, see Rng).
 */
#ifndef QPULSE_COMMON_THREAD_POOL_H
#define QPULSE_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace qpulse {

/**
 * Fixed-size worker pool executing queued tasks.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Total parallelism (including the calling thread
     *                during parallelFor). 0 or 1 means no workers.
     */
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (worker threads + the calling thread). */
    std::size_t size() const { return workers_.size() + 1; }

    /**
     * Stable identity of the calling thread within its pool: 0 for
     * the main thread (or any thread not owned by a pool), 1..N-1 for
     * pool workers, fixed for the worker's lifetime. Consumers that
     * need per-thread state without locking — the telemetry tracer's
     * per-thread buffers, per-worker scratch arenas — key off this
     * instead of std::this_thread::get_id(), which is neither small
     * nor stable across runs.
     */
    static std::size_t currentWorkerId();

    /** "main" or "worker-<id>", matching currentWorkerId(). */
    static const std::string &currentWorkerName();

    /**
     * Run body(i) for every i in [0, n), distributing iterations over
     * the pool; the calling thread participates. Blocks until every
     * iteration has finished. The first exception thrown by any
     * iteration is rethrown on the calling thread (remaining
     * iterations still run to completion). Runs inline when the pool
     * has no workers, n <= 1, or the caller is itself a pool worker.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body,
                     std::size_t maxThreads = 0);

    /**
     * The process-wide pool. Sized from QPULSE_THREADS when set (>= 1),
     * otherwise std::thread::hardware_concurrency().
     */
    static ThreadPool &global();

  private:
    void workerLoop(std::size_t worker_id);

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
};

/**
 * Convenience: ThreadPool::global().parallelFor(n, body), optionally
 * capped at maxThreads total threads (0 = no cap). Use the cap to make
 * a workload's thread count explicit, e.g. in benches comparing 1 vs N
 * threads.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body,
                 std::size_t maxThreads = 0);

} // namespace qpulse

#endif // QPULSE_COMMON_THREAD_POOL_H
