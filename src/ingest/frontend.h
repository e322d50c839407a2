/**
 * @file
 * RequestFrontEnd: the streaming request loop over ExecutionService.
 *
 * This is where untrusted bytes meet the execution stack. Clients
 * open logical connections and feed raw bytes; the front end frames
 * complete JSON documents out of the stream (DocumentFramer — a
 * string/escape-aware brace balancer, because scheduleToQobjJson
 * emits multi-line documents), pushes each one through the defensive
 * parse + lowering pipeline (json.h, openpulse.h), gates the lowered
 * schedule through validateSchedule, and streams the job's shots
 * through the service in chunks so partial counts flow back to the
 * client while later chunks are still executing.
 *
 * Robustness posture (docs/ROBUSTNESS.md, "Ingestion boundary"):
 *
 *   - Per-connection byte budget: a connection whose receive buffer
 *     exceeds FrontEndPolicy::maxConnectionBufferBytes is rejected
 *     with size-limit and the buffer dropped (resync at the next
 *     top-level '{'/'['); one hostile client cannot balloon memory.
 *   - Admission: a connection may hold at most maxPendingPerConnection
 *     streaming requests; excess documents are rejected with
 *     resource-exhausted before any work is done.
 *   - Graceful degradation: malformed, truncated, non-UTF-8 or
 *     oversized documents produce Rejected events carrying the
 *     structured ErrorCode — never an exception, never a crash, and
 *     never a poisoned neighbor (framing resynchronizes).
 *   - Fault injection: an attached FaultInjector's ingest classes
 *     (QPULSE_FAULT_PLAN ingest_trunc/ingest_corrupt/ingest_dupkey/
 *     ingest_disc) mutate payloads deterministically inside
 *     deliver(), modeling a flaky transport in front of the framer.
 *
 * Determinism: all counters count work, not scheduling, and shot
 * chunks draw per-chunk seeds via Rng::deriveSeed, so a streamed run
 * is bit-identical across QPULSE_THREADS (bench_ingest diffs the
 * fingerprint across 1 and 8 threads in CI).
 */
#ifndef QPULSE_INGEST_FRONTEND_H
#define QPULSE_INGEST_FRONTEND_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "device/fault_injector.h"
#include "device/schedule_validation.h"
#include "ingest/openpulse.h"
#include "service/execution_service.h"

namespace qpulse {
namespace ingest {

/**
 * Splits a byte stream into complete top-level JSON documents: a
 * brace/bracket balancer that tracks string and escape state, so
 * braces inside string literals never confuse the frame. Bytes that
 * cannot start a document (anything but '{' or '[') are collected
 * into a "garbage" frame delimited by the next plausible document
 * start — the parser then rejects that frame with a structured code,
 * which is how the stream resynchronizes after corruption.
 */
class DocumentFramer
{
  public:
    /** Feed bytes; complete frames are appended to `frames`. */
    void feed(std::string_view bytes, std::vector<std::string> &frames);

    /**
     * Flush the trailing partial frame (end of stream). Returns true
     * and fills `frame` when undelivered bytes existed.
     */
    bool flush(std::string &frame);

    /** Bytes currently buffered (the incomplete frame). */
    std::size_t buffered() const { return buffer_.size(); }

    /** Drop all buffered bytes and reset to the between-frames state
     *  (byte-budget overflow handling). */
    void reset();

  private:
    std::string buffer_;
    int depth_ = 0;
    bool inString_ = false;
    bool escaped_ = false;
    bool inGarbage_ = false;
};

/** What kind of streaming event a StreamEvent reports. */
enum class StreamEventKind
{
    Accepted,     ///< Document parsed, validated and admitted.
    Partial,      ///< A shot chunk finished; cumulative counts inside.
    Completed,    ///< All chunks done; final cumulative counts inside.
    Rejected,     ///< Document refused (parse/schema/validate/admission).
    Failed,       ///< Admitted request terminated with an error.
    Disconnected, ///< Connection closed with the request in flight.
};

/** Stable lower-case event name ("accepted", "partial", ...). */
const char *streamEventKindName(StreamEventKind kind);

/** One streaming result event, pushed to the connection's sink. */
struct StreamEvent
{
    StreamEventKind kind = StreamEventKind::Rejected;
    int connection = -1;
    /** Front-end-wide framed-document ordinal. */
    std::uint64_t request = 0;
    /** Client job key, or "ingest/c<conn>/r<req>" when none given. */
    std::string key;
    /** Reject/failure reason (Ok for progress events). */
    Status status;
    long shotsRequested = 0;
    /** Cumulative shots finished across completed chunks. */
    long shotsCompleted = 0;
    /** Cumulative counts (Partial/Completed only). */
    std::vector<long> counts;
};

/** Front-end policy knobs. */
struct FrontEndPolicy
{
    /** Parse + lowering budgets for every document. */
    IngestLimits limits;
    /**
     * Per-connection receive-buffer budget in bytes. 0 = read
     * QPULSE_INGEST_MAX_BYTES (default 8 MiB).
     */
    std::size_t maxConnectionBufferBytes = 0;
    /** Max streaming requests one connection may hold (admission). */
    std::size_t maxPendingPerConnection = 8;
    /** Shots per streamed chunk (partial-result granularity). */
    long streamBatchShots = 64;
    /** Channel budget for the pre-submit validateSchedule gate. */
    ChannelBudget budget;
    /** Run the validateSchedule gate before admission. */
    bool validate = true;
};

/** Deterministic front-end counters (mirrored into ingest.*). */
struct FrontEndStats
{
    long bytesReceived = 0;
    long documents = 0;     ///< Complete frames seen.
    long accepted = 0;      ///< Admitted streaming requests.
    long rejected = 0;      ///< Structured document rejections.
    long completed = 0;     ///< Requests that finished all chunks.
    long failed = 0;        ///< Requests terminated by an error.
    long disconnected = 0;  ///< Requests killed by a disconnect.
    long overflowDrops = 0; ///< Buffer-budget rejections.
    long chunksExecuted = 0;///< Shot chunks drained from the service.
    long ingestFaults = 0;  ///< Transport faults injected in deliver().
};

/**
 * The streaming request front end. Sequential by design, like the
 * ExecutionService beneath it: one thread calls open/feed/pump, and
 * every chunk's shot loop runs on that thread too.
 */
class RequestFrontEnd
{
  public:
    using EventSink = std::function<void(const StreamEvent &)>;

    /** The service is borrowed; it must outlive the front end. */
    RequestFrontEnd(ExecutionService &service,
                    FrontEndPolicy policy = {});

    /**
     * Install the event sink (null = events only counted). The sink
     * runs inside feed/deliver/finish/close/pump and must not call
     * back into the front end: feed() holds a reference to the
     * connection while it emits, and a re-entrant close() would
     * destroy it.
     */
    void setEventSink(EventSink sink) { sink_ = std::move(sink); }

    /** Attach the transport fault source used by deliver(). */
    void setFaultInjector(std::shared_ptr<FaultInjector> injector)
    {
        injector_ = std::move(injector);
    }

    /** Open a logical connection; returns its id. */
    int open();

    /**
     * Feed raw bytes into `connection`. Complete documents are
     * parsed, validated, admitted (Accepted event) or refused
     * (Rejected event with the structured code) immediately; shot
     * execution happens in pump(). Unknown/closed connections are
     * ignored (the bytes of a dead peer).
     */
    void feed(int connection, std::string_view bytes);

    /**
     * Deliver one whole client document over `connection` through the
     * attached fault injector (identity transport when none): the
     * payload may arrive truncated, corrupted or with a duplicated
     * key, and the connection may drop mid-document (Disconnected
     * events for its in-flight requests). Returns the request ordinal
     * the document was assigned.
     */
    std::uint64_t deliver(int connection, const std::string &document);

    /**
     * Graceful end-of-stream: flush the trailing partial frame (a
     * truncated trailing document is Rejected with unexpected-end).
     * The connection's admitted requests keep streaming.
     */
    void finish(int connection);

    /**
     * Abortive close: release the connection and its receive buffer,
     * and kill its in-flight requests with Disconnected events.
     */
    void close(int connection);

    /**
     * One streaming step: submit the next shot chunk of every active
     * request, drain the service, route outcomes back and emit
     * Partial/Completed/Failed events. Returns the number of chunk
     * outcomes routed (0 = nothing active).
     */
    std::size_t pump();

    /** Pump until every admitted request reached a terminal event. */
    void run();

    std::size_t activeRequests() const { return active_.size(); }
    const FrontEndStats &stats() const { return stats_; }
    const FrontEndPolicy &policy() const { return policy_; }

  private:
    /** An open connection; close() erases it from connections_. */
    struct Connection
    {
        DocumentFramer framer;
        std::size_t pending = 0; ///< Active requests on this conn.
    };

    /** One admitted streaming request. */
    struct ActiveRequest
    {
        int connection = -1;
        std::uint64_t request = 0;
        std::string key;
        IngestedJob job;
        long chunksTotal = 0;
        long chunksSubmitted = 0;
        long chunksDone = 0;
        long shotsCompleted = 0;
        std::vector<long> counts;
    };

    void emit(StreamEvent event);
    void handleDocument(int connection, const std::string &text);
    void rejectDocument(int connection, std::uint64_t request,
                        const std::string &key, Status status);
    /** Terminal bookkeeping shared by Completed/Failed/Disconnected;
     *  returns the iterator past the erased request. */
    std::map<std::uint64_t, ActiveRequest>::iterator
    retire(std::map<std::uint64_t, ActiveRequest>::iterator it,
           StreamEventKind kind, Status status);

    ExecutionService &service_;
    FrontEndPolicy policy_;
    EventSink sink_;
    std::shared_ptr<FaultInjector> injector_;
    std::map<int, Connection> connections_;
    /** Active requests keyed by ordinal (stable pump order). */
    std::map<std::uint64_t, ActiveRequest> active_;
    int nextConnection_ = 0;
    std::uint64_t nextRequest_ = 0;
    std::uint64_t nextDelivery_ = 0; ///< Fault-stream coordinate.
    FrontEndStats stats_;
};

} // namespace ingest
} // namespace qpulse

#endif // QPULSE_INGEST_FRONTEND_H
