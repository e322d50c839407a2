/**
 * @file
 * Low-overhead span tracer for the compile -> simulate -> readout
 * pipeline.
 *
 * A TraceSpan is an RAII marker: construction stamps a monotonic-clock
 * start, destruction records one completed TraceEvent into the calling
 * thread's ring buffer. Buffers are per-thread (no contention on the
 * hot path beyond one uncontended mutex) and merged at drain/flush
 * time into a deterministic (startNs, seq)-sorted event list.
 *
 * Tracing is disabled by default; the *entire* disabled cost of a span
 * is one relaxed atomic load and a branch, so instrumentation can stay
 * compiled into release hot paths (the < 2 % bench budget in
 * docs/OBSERVABILITY.md). It is enabled either programmatically
 * (Tracer::setEnabled, tests) or by the QPULSE_TRACE=<path>
 * environment variable, in which case the process flushes the buffer
 * to <path> at exit in the Chrome trace_event JSON format that
 * chrome://tracing and Perfetto load directly.
 *
 * Span names must be string literals (or otherwise outlive the
 * tracer): events store the pointer, never a copy, so the record path
 * does not allocate.
 *
 * This library sits below qpulse_common (it links nothing but the
 * threads runtime), so even the ThreadPool can be instrumented.
 * Thread identity is an explicit hook: ThreadPool workers call
 * setCurrentThreadInfo with their stable worker id; unregistered
 * threads get tid 0 ("main").
 */
#ifndef QPULSE_TELEMETRY_TRACE_H
#define QPULSE_TELEMETRY_TRACE_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qpulse {
namespace telemetry {

/** One completed span, as stored in the ring buffers. */
struct TraceEvent
{
    const char *name = "";
    const char *category = "qpulse";
    std::uint64_t startNs = 0;    ///< Monotonic-clock start.
    std::uint64_t durationNs = 0; ///< Span duration.
    std::uint32_t tid = 0;        ///< Stable thread id (0 = main).
    std::uint64_t seq = 0;        ///< Global completion order.
};

/**
 * Process-wide trace collector. All methods are thread-safe.
 */
class Tracer
{
  public:
    /**
     * Default events retained per thread before the ring overwrites
     * its oldest entry; QPULSE_TRACE_BUFFER overrides (long traced
     * runs — a full bench under QPULSE_TRACE — need a deeper ring to
     * keep their earliest compile-stage spans).
     */
    static constexpr std::size_t kThreadBufferCapacity = 16384;

    /** The per-thread ring capacity in effect for this process. */
    std::size_t threadBufferCapacity() const { return capacity_; }

    /** The process-wide tracer (constructed on first use, leaked). */
    static Tracer &instance();

    /** The single-branch gate every TraceSpan checks first. */
    static bool enabled()
    {
        return s_enabled.load(std::memory_order_relaxed);
    }

    /** Enable/disable collection (does not touch the output path). */
    void setEnabled(bool on);

    /** Set the flush destination and enable collection. */
    void configure(const std::string &path);

    const std::string &path() const { return path_; }

    /**
     * Record one completed span on the calling thread's buffer.
     * No-op when disabled. Name/category must outlive the tracer.
     */
    void record(const char *name, const char *category,
                std::uint64_t start_ns, std::uint64_t duration_ns);

    /**
     * Remove and return every buffered event, merged across threads
     * and sorted by (startNs, seq) so the export is deterministic for
     * a fixed set of events.
     */
    std::vector<TraceEvent> drain();

    /** Drop all buffered events (tests). */
    void clear();

    /** Events lost to ring overwrite since the last drain/clear. */
    std::uint64_t dropped() const;

    /**
     * Drain and write the Chrome trace to the configured path. No-op
     * without a path. Registered with atexit when
     * QPULSE_TRACE enables tracing, so instrumented binaries emit
     * their trace without any per-binary code.
     */
    void flush();

    /** Chrome trace_event JSON ("X" complete events + thread names). */
    static void writeChromeTrace(std::ostream &os,
                                 const std::vector<TraceEvent> &events);

    /** Monotonic clock, ns. */
    static std::uint64_t nowNs();

  private:
    Tracer();

    struct ThreadBuffer;
    ThreadBuffer &threadBuffer();

    static std::atomic<bool> s_enabled;

    mutable std::mutex registryMutex_;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
    std::atomic<std::uint64_t> seq_{0};
    std::string path_;
    std::size_t capacity_ = kThreadBufferCapacity;
};

/**
 * RAII span: alive range = [construction, destruction). Constructing
 * one while tracing is disabled costs a single atomic load.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name,
                       const char *category = "qpulse")
    {
        if (Tracer::enabled()) {
            name_ = name;
            category_ = category;
            startNs_ = Tracer::nowNs();
        }
    }

    ~TraceSpan()
    {
        if (name_ != nullptr)
            Tracer::instance().record(
                name_, category_, startNs_,
                Tracer::nowNs() - startNs_);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name_ = nullptr;
    const char *category_ = nullptr;
    std::uint64_t startNs_ = 0;
};

/**
 * Register the calling thread's stable id/name with the tracer (the
 * ThreadPool hook: workers pass their currentWorkerId()). The name is
 * copied; it labels the tid row in chrome://tracing.
 */
void setCurrentThreadInfo(std::uint32_t tid, const std::string &name);

/** The id registered for this thread (0 when never registered). */
std::uint32_t currentThreadId();

} // namespace telemetry
} // namespace qpulse

#endif // QPULSE_TELEMETRY_TRACE_H
