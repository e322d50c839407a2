#include "ingest/frontend.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "common/env.h"
#include "common/rng.h"
#include "telemetry/metrics.h"

namespace qpulse {
namespace ingest {

namespace {

struct FrontEndMetrics
{
    telemetry::Counter &bytes;
    telemetry::Counter &documents;
    telemetry::Counter &accepted;
    telemetry::Counter &rejected;
    telemetry::Counter &completed;
    telemetry::Counter &failed;
    telemetry::Counter &disconnects;
    telemetry::Counter &overflow;
    telemetry::Counter &chunks;
    telemetry::Counter &faults;
    telemetry::Gauge &active;
    telemetry::Histogram &documentBytes;
};

FrontEndMetrics &
metrics()
{
    auto &reg = telemetry::MetricsRegistry::global();
    static FrontEndMetrics m{
        reg.counter("ingest.frontend.bytes"),
        reg.counter("ingest.frontend.documents"),
        reg.counter("ingest.frontend.accepted"),
        reg.counter("ingest.frontend.rejected"),
        reg.counter("ingest.frontend.completed"),
        reg.counter("ingest.frontend.failed"),
        reg.counter("ingest.frontend.disconnects"),
        reg.counter("ingest.frontend.overflow"),
        reg.counter("ingest.frontend.chunks"),
        reg.counter("ingest.faults.injected"),
        reg.gauge("ingest.frontend.active"),
        reg.histogram("ingest.document.bytes",
                      {64, 256, 1024, 4096, 16384, 65536, 262144,
                       1048576, 4194304}),
    };
    return m;
}

/** Feed slice size: bounds how far a buffer can overshoot its budget
 *  before the overflow check runs. */
constexpr std::size_t kFeedSliceBytes = 64u << 10;

bool
isJsonWhitespace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

} // namespace

void
DocumentFramer::feed(std::string_view bytes,
                     std::vector<std::string> &frames)
{
    for (const char c : bytes) {
        if (buffer_.empty() && !inGarbage_) {
            // Between frames: skip whitespace, start a document on a
            // container opener, start a garbage run on anything else.
            if (isJsonWhitespace(c))
                continue;
            buffer_.push_back(c);
            if (c == '{' || c == '[') {
                depth_ = 1;
                inString_ = false;
                escaped_ = false;
            } else {
                inGarbage_ = true;
            }
            continue;
        }

        if (inGarbage_) {
            // Resync: the garbage run ends where a document could
            // plausibly begin; the run itself becomes a frame the
            // parser rejects with a structured code.
            if (c == '{' || c == '[') {
                frames.push_back(std::move(buffer_));
                buffer_.clear();
                inGarbage_ = false;
                buffer_.push_back(c);
                depth_ = 1;
                inString_ = false;
                escaped_ = false;
            } else {
                buffer_.push_back(c);
            }
            continue;
        }

        buffer_.push_back(c);
        if (inString_) {
            if (escaped_)
                escaped_ = false;
            else if (c == '\\')
                escaped_ = true;
            else if (c == '"')
                inString_ = false;
            continue;
        }
        if (c == '"') {
            inString_ = true;
        } else if (c == '{' || c == '[') {
            ++depth_;
        } else if (c == '}' || c == ']') {
            // A mismatched closer still closes the frame (depth can
            // only fall); the parser reports the actual defect.
            if (--depth_ <= 0) {
                frames.push_back(std::move(buffer_));
                buffer_.clear();
                depth_ = 0;
            }
        }
    }
}

bool
DocumentFramer::flush(std::string &frame)
{
    if (buffer_.empty())
        return false;
    frame = std::move(buffer_);
    reset();
    return true;
}

void
DocumentFramer::reset()
{
    buffer_.clear();
    depth_ = 0;
    inString_ = false;
    escaped_ = false;
    inGarbage_ = false;
}

const char *
streamEventKindName(StreamEventKind kind)
{
    switch (kind) {
    case StreamEventKind::Accepted:
        return "accepted";
    case StreamEventKind::Partial:
        return "partial";
    case StreamEventKind::Completed:
        return "completed";
    case StreamEventKind::Rejected:
        return "rejected";
    case StreamEventKind::Failed:
        return "failed";
    case StreamEventKind::Disconnected:
        return "disconnected";
    }
    return "unknown";
}

RequestFrontEnd::RequestFrontEnd(ExecutionService &service,
                                 FrontEndPolicy policy)
    : service_(service), policy_(policy)
{
    if (policy_.maxConnectionBufferBytes == 0)
        policy_.maxConnectionBufferBytes =
            static_cast<std::size_t>(envIngestMaxBytes());
    if (policy_.maxPendingPerConnection == 0)
        policy_.maxPendingPerConnection = 1;
    if (policy_.streamBatchShots <= 0)
        policy_.streamBatchShots = 64;
}

int
RequestFrontEnd::open()
{
    const int id = nextConnection_++;
    connections_.emplace(id, Connection{});
    return id;
}

void
RequestFrontEnd::emit(StreamEvent event)
{
    if (sink_)
        sink_(event);
}

void
RequestFrontEnd::feed(int connection, std::string_view bytes)
{
    auto it = connections_.find(connection);
    if (it == connections_.end())
        return; // Bytes of a dead peer: dropped, never fatal.
    Connection &conn = it->second;

    stats_.bytesReceived += static_cast<long>(bytes.size());
    metrics().bytes.add(bytes.size());

    // Feed in bounded slices so the byte budget is enforced even when
    // one call carries a very large payload.
    std::vector<std::string> frames;
    while (!bytes.empty()) {
        const std::size_t take =
            std::min(bytes.size(), kFeedSliceBytes);
        conn.framer.feed(bytes.substr(0, take), frames);
        bytes.remove_prefix(take);

        for (std::string &frame : frames)
            handleDocument(connection, frame);
        frames.clear();

        if (conn.framer.buffered() > policy_.maxConnectionBufferBytes) {
            // Buffer budget blown mid-document: drop it with a
            // structured reject and resynchronize on the next frame.
            ++stats_.overflowDrops;
            metrics().overflow.increment();
            const std::uint64_t request = nextRequest_++;
            rejectDocument(
                connection, request,
                "ingest/" + std::to_string(request),
                Status::error(
                    ErrorCode::SizeLimitExceeded,
                    "connection buffer exceeded " +
                        std::to_string(
                            policy_.maxConnectionBufferBytes) +
                        " bytes mid-document"));
            conn.framer.reset();
        }
    }
}

std::uint64_t
RequestFrontEnd::deliver(int connection, const std::string &document)
{
    const std::uint64_t ordinal = nextDelivery_++;
    if (!injector_) {
        feed(connection, document);
        return ordinal;
    }
    FaultInjector::IngestInjection injection =
        injector_->injectIngest(document, ordinal);
    if (injection.mutated() || injection.disconnected) {
        ++stats_.ingestFaults;
        metrics().faults.increment();
    }
    if (injection.disconnected) {
        feed(connection,
             std::string_view(injection.payload)
                 .substr(0, injection.disconnectAfter));
        close(connection);
    } else {
        feed(connection, injection.payload);
    }
    return ordinal;
}

void
RequestFrontEnd::handleDocument(int connection,
                                const std::string &text)
{
    ++stats_.documents;
    metrics().documents.increment();
    metrics().documentBytes.observe(static_cast<double>(text.size()));

    const std::uint64_t request = nextRequest_++;
    const std::string defaultKey =
        "ingest/c" + std::to_string(connection) + "/r" +
        std::to_string(request);

    IngestedJob job;
    Status status = parseJob(text, policy_.limits, job);
    if (!status.ok()) {
        rejectDocument(connection, request, defaultKey, status);
        return;
    }
    const std::string key = job.key.empty() ? defaultKey : job.key;

    status = validateSchedule(job.schedule, policy_.budget);
    if (!status.ok()) {
        rejectDocument(connection, request, key, status);
        return;
    }

    Connection &conn = connections_.at(connection);
    if (conn.pending >= policy_.maxPendingPerConnection) {
        rejectDocument(
            connection, request, key,
            Status::error(ErrorCode::ResourceExhausted,
                          "connection holds " +
                              std::to_string(conn.pending) +
                              " streaming requests (budget " +
                              std::to_string(
                                  policy_.maxPendingPerConnection) +
                              ")"));
        return;
    }

    ActiveRequest active;
    active.connection = connection;
    active.request = request;
    active.key = key;
    active.job = std::move(job);
    active.chunksTotal =
        (active.job.shots + policy_.streamBatchShots - 1) /
        policy_.streamBatchShots;

    StreamEvent event;
    event.kind = StreamEventKind::Accepted;
    event.connection = connection;
    event.request = request;
    event.key = key;
    event.shotsRequested = active.job.shots;
    emit(std::move(event));

    ++conn.pending;
    ++stats_.accepted;
    metrics().accepted.increment();
    active_.emplace(request, std::move(active));
    metrics().active.set(static_cast<double>(active_.size()));
}

void
RequestFrontEnd::rejectDocument(int connection, std::uint64_t request,
                                const std::string &key, Status status)
{
    ++stats_.rejected;
    metrics().rejected.increment();
    StreamEvent event;
    event.kind = StreamEventKind::Rejected;
    event.connection = connection;
    event.request = request;
    event.key = key;
    event.status = std::move(status);
    emit(std::move(event));
}

void
RequestFrontEnd::finish(int connection)
{
    auto it = connections_.find(connection);
    if (it == connections_.end())
        return;
    std::string trailing;
    if (it->second.framer.flush(trailing))
        handleDocument(connection, trailing);
}

void
RequestFrontEnd::close(int connection)
{
    // Erasing (not just resetting) the connection frees its receive
    // buffer, which can have grown to maxConnectionBufferBytes.
    if (connections_.erase(connection) == 0)
        return;

    const Status reason = Status::error(
        ErrorCode::Cancelled, "connection closed mid-stream");
    for (auto active = active_.begin(); active != active_.end();) {
        if (active->second.connection == connection)
            active = retire(active, StreamEventKind::Disconnected,
                            reason);
        else
            ++active;
    }
}

std::map<std::uint64_t, RequestFrontEnd::ActiveRequest>::iterator
RequestFrontEnd::retire(
    std::map<std::uint64_t, ActiveRequest>::iterator it,
    StreamEventKind kind, Status status)
{
    ActiveRequest &active = it->second;
    StreamEvent event;
    event.kind = kind;
    event.connection = active.connection;
    event.request = active.request;
    event.key = active.key;
    event.status = std::move(status);
    event.shotsRequested = active.job.shots;
    event.shotsCompleted = active.shotsCompleted;
    event.counts = active.counts;
    emit(std::move(event));

    auto conn = connections_.find(active.connection);
    if (conn != connections_.end() && conn->second.pending > 0)
        --conn->second.pending;

    switch (kind) {
    case StreamEventKind::Completed:
        ++stats_.completed;
        metrics().completed.increment();
        break;
    case StreamEventKind::Failed:
        ++stats_.failed;
        metrics().failed.increment();
        break;
    case StreamEventKind::Disconnected:
        ++stats_.disconnected;
        metrics().disconnects.increment();
        break;
    default:
        break;
    }

    auto next = active_.erase(it);
    metrics().active.set(static_cast<double>(active_.size()));
    return next;
}

std::size_t
RequestFrontEnd::pump()
{
    if (active_.empty())
        return 0;

    // Submit the next chunk of every active request, ordinal order —
    // round-robin streaming across requests and connections.
    std::vector<std::pair<std::uint64_t, Status>> submitFailures;
    for (auto &[id, active] : active_) {
        if (active.chunksSubmitted >= active.chunksTotal)
            continue;
        const long chunk = active.chunksSubmitted;
        const long start = chunk * policy_.streamBatchShots;
        JobRequest request;
        request.schedule = active.job.schedule;
        request.key = "ingest/" + std::to_string(id) + "/" +
                      std::to_string(chunk);
        request.tenant = active.job.tenant;
        request.backendName = active.job.backend;
        request.shots = std::min(policy_.streamBatchShots,
                                 active.job.shots - start);
        request.seed = Rng::deriveSeed(
            active.job.seed, static_cast<std::uint64_t>(chunk));
        request.priority = active.job.priority;
        const Status status = service_.submit(std::move(request));
        if (!status.ok())
            submitFailures.emplace_back(id, status);
        else
            ++active.chunksSubmitted;
    }
    for (auto &[id, status] : submitFailures) {
        auto it = active_.find(id);
        if (it != active_.end())
            retire(it, StreamEventKind::Failed, status);
    }

    // Each chunk's event leaves as soon as its job finishes, inside
    // the drain, in execution order.
    std::size_t routed = 0;
    service_.drain([&](const JobOutcome &outcome) {
        // Only outcomes we submitted carry the "ingest/<id>/<chunk>"
        // key; anything else on a shared service is not ours.
        if (outcome.key.rfind("ingest/", 0) != 0)
            return;
        const char *digits = outcome.key.c_str() + 7;
        char *end = nullptr;
        const std::uint64_t id = std::strtoull(digits, &end, 10);
        if (end == digits)
            return;
        auto it = active_.find(id);
        if (it == active_.end())
            return; // Request already retired (disconnect).
        ++routed;
        ++stats_.chunksExecuted;
        metrics().chunks.increment();

        ActiveRequest &active = it->second;
        if (!outcome.status.ok()) {
            retire(it, StreamEventKind::Failed, outcome.status);
            return;
        }
        const PulseShotResult &result = outcome.execution.result;
        if (active.counts.size() < result.counts.size())
            active.counts.resize(result.counts.size(), 0);
        long chunkShots = 0;
        for (std::size_t i = 0; i < result.counts.size(); ++i) {
            active.counts[i] += result.counts[i];
            chunkShots += result.counts[i];
        }
        active.shotsCompleted += chunkShots;
        ++active.chunksDone;

        if (active.chunksDone >= active.chunksTotal) {
            retire(it, StreamEventKind::Completed,
                   Status::okStatus());
            return;
        }
        StreamEvent event;
        event.kind = StreamEventKind::Partial;
        event.connection = active.connection;
        event.request = active.request;
        event.key = active.key;
        event.shotsRequested = active.job.shots;
        event.shotsCompleted = active.shotsCompleted;
        event.counts = active.counts;
        emit(std::move(event));
    });
    return routed;
}

void
RequestFrontEnd::run()
{
    while (!active_.empty()) {
        if (pump() == 0 && !active_.empty()) {
            // Nothing routed yet requests remain: every remaining
            // request failed to make progress (e.g. all submits
            // rejected). retire() in pump already handled them, so
            // an empty round with survivors means a wedged service —
            // fail the survivors instead of spinning forever.
            const Status stuck = Status::error(
                ErrorCode::Unavailable,
                "execution service made no progress on a pump");
            while (!active_.empty())
                retire(active_.begin(), StreamEventKind::Failed,
                       stuck);
        }
    }
}

} // namespace ingest
} // namespace qpulse
