#include "telemetry/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>

namespace qpulse {
namespace telemetry {

namespace {

/** Thread identity registered through setCurrentThreadInfo. */
thread_local std::uint32_t tls_tid = 0;
thread_local std::string tls_thread_name;

/** Minimal JSON string escape (names are identifiers, but be safe). */
std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:   out += c; break;
        }
    }
    return out;
}

/**
 * Construct the singleton during static initialization so a
 * QPULSE_TRACE set in the environment takes effect before any span
 * runs, and the atexit flush is registered early (it then runs after
 * main's locals are gone but before static destruction).
 */
[[maybe_unused]] const bool g_tracer_boot =
    (Tracer::instance(), true);

} // namespace

std::atomic<bool> Tracer::s_enabled{false};

/**
 * Fixed-capacity ring of completed events. The per-thread mutex is
 * uncontended except while a drain is merging, so the record path is
 * a stamp + lock + store.
 */
struct Tracer::ThreadBuffer
{
    std::mutex mutex;
    std::vector<TraceEvent> events; ///< Ring storage.
    std::size_t next = 0;           ///< Ring write cursor.
    std::size_t count = 0;          ///< Resident events (<= capacity).
    std::uint64_t dropped = 0;      ///< Overwritten since last drain.
    std::uint32_t tid = 0;
    std::string name;
};

Tracer::Tracer()
{
    const char *depth = std::getenv("QPULSE_TRACE_BUFFER");
    if (depth != nullptr && depth[0] != '\0') {
        char *end = nullptr;
        const long parsed = std::strtol(depth, &end, 10);
        if (end != nullptr && *end == '\0' && parsed >= 1)
            capacity_ = static_cast<std::size_t>(parsed);
        else
            std::fprintf(stderr,
                         "qpulse warning: ignoring invalid "
                         "QPULSE_TRACE_BUFFER='%s'\n",
                         depth);
    }

    const char *path = std::getenv("QPULSE_TRACE");
    if (path != nullptr && path[0] != '\0') {
        configure(path);
        std::atexit([] { Tracer::instance().flush(); });
    }
}

Tracer &
Tracer::instance()
{
    // Leaked on purpose: worker threads and atexit handlers may record
    // or flush after static destructors would have torn it down.
    static Tracer *tracer = new Tracer();
    return *tracer;
}

void
Tracer::setEnabled(bool on)
{
    s_enabled.store(on, std::memory_order_relaxed);
}

void
Tracer::configure(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        path_ = path;
    }
    setEnabled(true);
}

Tracer::ThreadBuffer &
Tracer::threadBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buffer = [this] {
        auto fresh = std::make_shared<ThreadBuffer>();
        fresh->events.resize(capacity_);
        fresh->tid = tls_tid;
        fresh->name = tls_thread_name;
        std::lock_guard<std::mutex> lock(registryMutex_);
        buffers_.push_back(fresh);
        return fresh;
    }();
    return *buffer;
}

void
Tracer::record(const char *name, const char *category,
               std::uint64_t start_ns, std::uint64_t duration_ns)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.name = name;
    event.category = category;
    event.startNs = start_ns;
    event.durationNs = duration_ns;
    event.tid = tls_tid;
    event.seq = seq_.fetch_add(1, std::memory_order_relaxed);

    ThreadBuffer &buffer = threadBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    // Pick up a thread registration that happened after the buffer
    // was created (setCurrentThreadInfo updates tls state only).
    buffer.tid = tls_tid;
    if (buffer.name != tls_thread_name)
        buffer.name = tls_thread_name;
    const std::size_t capacity = buffer.events.size();
    buffer.events[buffer.next] = event;
    buffer.next = (buffer.next + 1) % capacity;
    if (buffer.count < capacity)
        ++buffer.count;
    else
        ++buffer.dropped;
}

std::vector<TraceEvent>
Tracer::drain()
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        buffers = buffers_;
    }
    std::vector<TraceEvent> merged;
    for (const auto &buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        const std::size_t capacity = buffer->events.size();
        // Ring order: oldest resident event first.
        const std::size_t first =
            (buffer->next + capacity - buffer->count) % capacity;
        for (std::size_t k = 0; k < buffer->count; ++k)
            merged.push_back(
                buffer->events[(first + k) % capacity]);
        buffer->count = 0;
        buffer->next = 0;
        buffer->dropped = 0;
    }
    std::sort(merged.begin(), merged.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.startNs != b.startNs ? a.startNs < b.startNs
                                                : a.seq < b.seq;
              });
    return merged;
}

void
Tracer::clear()
{
    drain();
}

std::uint64_t
Tracer::dropped() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        buffers = buffers_;
    }
    std::uint64_t total = 0;
    for (const auto &buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        total += buffer->dropped;
    }
    return total;
}

void
Tracer::flush()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        path = path_;
    }
    if (path.empty())
        return;
    const std::vector<TraceEvent> events = drain();
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr,
                     "qpulse warning: QPULSE_TRACE: cannot open '%s'\n",
                     path.c_str());
        return;
    }
    writeChromeTrace(out, events);
}

void
Tracer::writeChromeTrace(std::ostream &os,
                         const std::vector<TraceEvent> &events)
{
    os << "{\"traceEvents\":[\n";
    bool first = true;

    // One metadata row per tid labels the track in chrome://tracing /
    // Perfetto ("main", "worker-3", ...).
    std::map<std::uint32_t, std::string> names;
    for (const TraceEvent &event : events)
        if (names.find(event.tid) == names.end())
            names[event.tid] = "";
    {
        std::lock_guard<std::mutex> lock(
            Tracer::instance().registryMutex_);
        for (const auto &buffer : Tracer::instance().buffers_) {
            const auto it = names.find(buffer->tid);
            if (it != names.end() && it->second.empty())
                it->second = buffer->name;
        }
    }
    char line[256];
    for (const auto &entry : names) {
        const std::string label = entry.second.empty()
            ? (entry.first == 0 ? "main"
                                : "thread-" + std::to_string(entry.first))
            : entry.second;
        std::snprintf(line, sizeof line,
                      "{\"ph\":\"M\",\"name\":\"thread_name\","
                      "\"pid\":1,\"tid\":%u,"
                      "\"args\":{\"name\":\"%s\"}}",
                      entry.first, jsonEscape(label).c_str());
        os << (first ? "" : ",\n") << line;
        first = false;
    }

    for (const TraceEvent &event : events) {
        // ts/dur in microseconds, the unit trace_event expects.
        std::snprintf(line, sizeof line,
                      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                      jsonEscape(event.name).c_str(),
                      jsonEscape(event.category).c_str(),
                      static_cast<double>(event.startNs) / 1000.0,
                      static_cast<double>(event.durationNs) / 1000.0,
                      event.tid);
        os << (first ? "" : ",\n") << line;
        first = false;
    }
    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

std::uint64_t
Tracer::nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setCurrentThreadInfo(std::uint32_t tid, const std::string &name)
{
    tls_tid = tid;
    tls_thread_name = name;
}

std::uint32_t
currentThreadId()
{
    return tls_tid;
}

} // namespace telemetry
} // namespace qpulse
