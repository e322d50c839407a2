/**
 * @file
 * Tests for the hardened OpenPulse-JSON ingestion boundary: the
 * defensive parser (distinct structured codes, golden byte/line/column
 * location messages, depth safety without stack overflow, strict
 * UTF-8), the lowering into Schedule/IngestedJob, the checked-in
 * corpus (one valid exemplar per instruction kind, one minimized
 * invalid exemplar per ingest ErrorCode, round-tripped through parse
 * -> validateSchedule), the DocumentFramer, and the RequestFrontEnd
 * streaming loop (partial results, admission, buffer budgets,
 * disconnects and the memory they release — via a live-bytes counting
 * global allocator — unknown backend names, deterministic ingest fault
 * injection).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "device/fault_injector.h"
#include "device/schedule_validation.h"
#include "ingest/frontend.h"
#include "ingest/json.h"
#include "ingest/openpulse.h"
#include "pulse/qobj.h"
#include "service/execution_service.h"
#include "telemetry/metrics.h"

// ---------------------------------------------------------------------
// Live-bytes counting allocator: every operator new in this binary
// records its size in a header in front of the block, and operator
// delete subtracts it, so tests can assert that memory was released.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::int64_t> g_live_bytes{0};
constexpr std::size_t kSizeHeader = alignof(std::max_align_t);
} // namespace

void *
operator new(std::size_t size)
{
    void *block = std::malloc(size + kSizeHeader);
    if (!block)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(block) = size;
    g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                           std::memory_order_relaxed);
    return static_cast<char *>(block) + kSizeHeader;
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The nothrow forms must carry the header too (std::stable_sort's
// temporary buffer comes from one): a sanitizer runtime supplies its
// own nothrow new, whose blocks the delete below would misread.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return ::operator new(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return ::operator new(size, std::nothrow);
}

// The replaced operator new above allocates with std::malloc, so
// releasing with std::free is correct; GCC cannot see the pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    if (!p)
        return;
    void *block = static_cast<char *>(p) - kSizeHeader;
    g_live_bytes.fetch_sub(
        static_cast<std::int64_t>(*static_cast<std::size_t *>(block)),
        std::memory_order_relaxed);
    std::free(block);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    ::operator delete(p);
}

#pragma GCC diagnostic pop

namespace qpulse {
namespace ingest {
namespace {

std::int64_t
liveBytes()
{
    return g_live_bytes.load(std::memory_order_relaxed);
}

namespace fs = std::filesystem;

Status
parseText(const std::string &text, JsonLimits limits = {})
{
    JsonValue out;
    return parseJson(text, limits, out);
}

TEST(IngestJson, ParsesScalarsAndContainers)
{
    JsonValue root;
    const Status status = parseJson(
        "{\"a\": [1, 2.5, -3e2], \"b\": \"x\\u0041\", "
        "\"c\": true, \"d\": null, \"e\": {}}",
        JsonLimits{}, root);
    ASSERT_TRUE(status.ok()) << status.message();
    ASSERT_TRUE(root.isObject());
    const JsonValue *a = root.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_DOUBLE_EQ(a->items()[0].number(), 1.0);
    EXPECT_DOUBLE_EQ(a->items()[1].number(), 2.5);
    EXPECT_DOUBLE_EQ(a->items()[2].number(), -300.0);
    ASSERT_NE(root.find("b"), nullptr);
    EXPECT_EQ(root.find("b")->string(), "xA");
    EXPECT_TRUE(root.find("c")->boolean());
    EXPECT_TRUE(root.find("d")->isNull());
    EXPECT_TRUE(root.find("e")->isObject());
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(IngestJson, GoldenLocationMessages)
{
    // The canonical suffix contract: " at byte B (line L, column C)".
    // Golden-tested so the format cannot silently regress.
    Status status = parseText("[1, 2, x]");
    EXPECT_EQ(status.code(), ErrorCode::MalformedJson);
    EXPECT_TRUE(status.message().ends_with(
        " at byte 7 (line 1, column 8)"))
        << status.message();

    status = parseText("{\n  \"a\": nope\n}");
    EXPECT_EQ(status.code(), ErrorCode::MalformedJson);
    EXPECT_TRUE(status.message().ends_with(
        " at byte 9 (line 2, column 8)"))
        << status.message();

    status = parseText("{\"a\": 1");
    EXPECT_EQ(status.code(), ErrorCode::UnexpectedEnd);
    EXPECT_TRUE(status.message().ends_with(
        " at byte 7 (line 1, column 8)"))
        << status.message();
}

TEST(IngestJson, LocateOffsetCountsLinesAndColumns)
{
    const std::string text = "ab\ncde\n\nf";
    EXPECT_EQ(locateOffset(text, 0).line, 1u);
    EXPECT_EQ(locateOffset(text, 0).column, 1u);
    EXPECT_EQ(locateOffset(text, 3).line, 2u);
    EXPECT_EQ(locateOffset(text, 3).column, 1u);
    EXPECT_EQ(locateOffset(text, 5).line, 2u);
    EXPECT_EQ(locateOffset(text, 5).column, 3u);
    EXPECT_EQ(locateOffset(text, 8).line, 4u);
    EXPECT_EQ(locateOffset(text, 8).column, 1u);
    EXPECT_EQ(locationSuffix(text, 5),
              " at byte 5 (line 2, column 3)");
}

TEST(IngestJson, DeepNestingHitsDepthLimitNotTheStack)
{
    // 200k-deep nesting must exhaust the *limit*, never the call
    // stack — the parser is iterative by construction.
    std::string deep(200000, '[');
    JsonLimits limits;
    limits.maxValues = 1u << 20;
    const Status status = parseText(deep, limits);
    EXPECT_EQ(status.code(), ErrorCode::DepthLimitExceeded);
}

TEST(IngestJson, DistinctStructuredCodes)
{
    EXPECT_EQ(parseText("{\"a\": 1,}").code(),
              ErrorCode::MalformedJson);
    EXPECT_EQ(parseText("{\"a\": 01}").code(),
              ErrorCode::MalformedJson);
    EXPECT_EQ(parseText("").code(), ErrorCode::UnexpectedEnd);
    EXPECT_EQ(parseText("{\"a\": ").code(),
              ErrorCode::UnexpectedEnd);
    EXPECT_EQ(parseText("{\"a\": 1e999}").code(),
              ErrorCode::NumberOutOfRange);
    EXPECT_EQ(parseText("{\"a\": 1, \"a\": 2}").code(),
              ErrorCode::DuplicateKey);

    JsonLimits tight;
    tight.maxBytes = 8;
    EXPECT_EQ(parseText("{\"abcdef\": 1}", tight).code(),
              ErrorCode::SizeLimitExceeded);
    tight = JsonLimits{};
    tight.maxStringBytes = 4;
    EXPECT_EQ(parseText("{\"abcdefgh\": 1}", tight).code(),
              ErrorCode::SizeLimitExceeded);
    tight = JsonLimits{};
    tight.maxValues = 3;
    EXPECT_EQ(parseText("[1, 2, 3, 4, 5]", tight).code(),
              ErrorCode::SizeLimitExceeded);
    tight = JsonLimits{};
    tight.maxDepth = 2;
    EXPECT_EQ(parseText("[[[1]]]", tight).code(),
              ErrorCode::DepthLimitExceeded);
}

TEST(IngestJson, StrictUtf8)
{
    // Overlong encoding of '/'.
    EXPECT_EQ(parseText("{\"a\": \"\xC0\xAF\"}").code(),
              ErrorCode::InvalidUtf8);
    // Raw surrogate half.
    EXPECT_EQ(parseText("{\"a\": \"\xED\xA0\x80\"}").code(),
              ErrorCode::InvalidUtf8);
    // Code point above U+10FFFF.
    EXPECT_EQ(parseText("{\"a\": \"\xF4\x90\x80\x80\"}").code(),
              ErrorCode::InvalidUtf8);
    // Truncated multi-byte sequence.
    EXPECT_EQ(parseText("{\"a\": \"\xE2\x82\"}").code(),
              ErrorCode::InvalidUtf8);
    // Well-formed multi-byte text is accepted verbatim.
    JsonValue root;
    const Status ok = parseJson(
        "{\"a\": \"\xCF\x80\xE2\x9C\x93\xF0\x9F\x98\x80\"}",
        JsonLimits{}, root);
    ASSERT_TRUE(ok.ok()) << ok.message();
    EXPECT_EQ(root.find("a")->string(),
              "\xCF\x80\xE2\x9C\x93\xF0\x9F\x98\x80");
}

TEST(IngestJson, EscapeHandling)
{
    JsonValue root;
    // Surrogate-pair escape decodes to one 4-byte code point.
    Status status = parseJson("{\"a\": \"\\uD83D\\uDE00\"}",
                              JsonLimits{}, root);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(root.find("a")->string(), "\xF0\x9F\x98\x80");

    // Lone surrogate escapes are invalid UTF-8, not valid JSON text.
    EXPECT_EQ(parseText("{\"a\": \"\\uD800\"}").code(),
              ErrorCode::InvalidUtf8);
    // Unknown escapes and raw control characters are malformed.
    EXPECT_EQ(parseText("{\"a\": \"\\x\"}").code(),
              ErrorCode::MalformedJson);
    EXPECT_EQ(parseText("{\"a\": \"\x01\"}").code(),
              ErrorCode::MalformedJson);
}

// ---------------------------------------------------------------------
// Lowering.

TEST(IngestLowering, AcceptsQobjWireFormat)
{
    Schedule original("demo");
    original.shiftPhase(driveChannel(0), -0.5);
    original.play(driveChannel(0),
                  std::make_shared<GaussianWaveform>(
                      16, 4.0, Complex{0.1, 0.0}));
    original.delay(driveChannel(1), 8);
    original.shiftFrequency(driveChannel(1), -0.33);
    original.acquire(acquireChannel(0), 32);

    QobjWriteOptions options;
    options.includeSamples = true;
    const std::string json = scheduleToQobjJson(original, options);

    IngestedJob job;
    const Status status = parseJob(json, IngestLimits{}, job);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(job.schedule.name(), "demo");
    ASSERT_EQ(job.schedule.instructions().size(),
              original.instructions().size());
    for (std::size_t i = 0; i < original.instructions().size(); ++i) {
        const PulseInstruction &want = original.instructions()[i];
        const PulseInstruction &got = job.schedule.instructions()[i];
        EXPECT_EQ(got.kind, want.kind) << i;
        EXPECT_EQ(got.channel.kind, want.channel.kind) << i;
        EXPECT_EQ(got.channel.index, want.channel.index) << i;
        EXPECT_EQ(got.startTime, want.startTime) << i;
    }

    ChannelBudget budget;
    budget.driveChannels = 2;
    budget.acquireChannels = 1;
    const Status gate = validateSchedule(job.schedule, budget);
    EXPECT_TRUE(gate.ok()) << gate.message();
}

TEST(IngestLowering, EnvelopeCarriesJobParameters)
{
    const std::string envelope =
        "{\"qobj\": {\"name\": \"env\", \"duration\": 0, "
        "\"instructions\": [{\"t0\": 0, \"ch\": \"d0\", "
        "\"name\": \"fc\", \"phase\": 0.5}]}, \"shots\": 77, "
        "\"seed\": 12345, \"priority\": -3, \"tenant\": \"alice\", "
        "\"backend\": \"west\", \"key\": \"jobs/42\"}";
    IngestedJob job;
    const Status status = parseJob(envelope, IngestLimits{}, job);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(job.shots, 77);
    EXPECT_EQ(job.seed, 12345u);
    EXPECT_EQ(job.priority, -3);
    EXPECT_EQ(job.tenant, "alice");
    EXPECT_EQ(job.backend, "west");
    EXPECT_EQ(job.key, "jobs/42");
    EXPECT_EQ(job.schedule.instructions().size(), 1u);
}

TEST(IngestLowering, UnstatedShotsDefaultWithinMaxShots)
{
    IngestLimits limits;
    limits.maxShots = 16;
    const std::string schedule =
        "{\"name\": \"bare\", \"instructions\": [{\"t0\": 0, "
        "\"ch\": \"d0\", \"name\": \"fc\", \"phase\": 0.5}]}";

    // Neither a bare schedule nor an envelope without "shots" may
    // exceed the limit through the default.
    IngestedJob bare;
    Status status = parseJob(schedule, limits, bare);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(bare.shots, 16);
    IngestedJob envelope;
    status = parseJob("{\"qobj\": " + schedule + "}", limits, envelope);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(envelope.shots, 16);

    // An explicit count past the limit is still refused.
    status = parseJob("{\"qobj\": " + schedule + ", \"shots\": 17}",
                      limits, envelope);
    EXPECT_EQ(status.code(), ErrorCode::NumberOutOfRange);

    // Under the default limits the default stays 256.
    IngestedJob plain;
    ASSERT_TRUE(parseJob(schedule, IngestLimits{}, plain).ok());
    EXPECT_EQ(plain.shots, 256);
}

TEST(IngestLowering, SchemaRejectsAreDistinctAndLocated)
{
    IngestedJob job;
    IngestLimits limits;

    Status status = parseJob("{\"name\": \"x\"}", limits, job);
    EXPECT_EQ(status.code(), ErrorCode::SchemaError);
    EXPECT_NE(status.message().find(" at byte "), std::string::npos);

    status = parseJob(
        "{\"name\": \"x\", \"instructions\": [], \"zzz\": 1}",
        limits, job);
    EXPECT_EQ(status.code(), ErrorCode::UnknownField);
    EXPECT_NE(status.message().find("\"zzz\""), std::string::npos);

    status = parseJob(
        "{\"qobj\": {\"name\": \"x\", \"instructions\": []}, "
        "\"shots\": 0}",
        limits, job);
    EXPECT_EQ(status.code(), ErrorCode::NumberOutOfRange);

    status = parseJob(
        "{\"qobj\": {\"name\": \"x\", \"instructions\": []}, "
        "\"shots\": 1.5}",
        limits, job);
    EXPECT_EQ(status.code(), ErrorCode::SchemaError);

    status = parseJob(
        "{\"instructions\": [{\"t0\": 0, \"ch\": \"q0\", "
        "\"name\": \"fc\", \"phase\": 0}]}",
        limits, job);
    EXPECT_EQ(status.code(), ErrorCode::SchemaError);

    status = parseJob(
        "{\"instructions\": [{\"t0\": 0, \"ch\": \"d99999\", "
        "\"name\": \"fc\", \"phase\": 0}]}",
        limits, job);
    EXPECT_EQ(status.code(), ErrorCode::NumberOutOfRange);

    limits.maxSamples = 1;
    status = parseJob(
        "{\"instructions\": [{\"t0\": 0, \"ch\": \"d0\", "
        "\"name\": \"play\", \"samples\": [[0.1, 0], [0.1, 0]]}]}",
        limits, job);
    EXPECT_EQ(status.code(), ErrorCode::SizeLimitExceeded);
    limits = IngestLimits{};

    limits.maxNameBytes = 3;
    status = parseJob(
        "{\"name\": \"abcdefgh\", \"instructions\": []}", limits,
        job);
    EXPECT_EQ(status.code(), ErrorCode::SizeLimitExceeded);
}

// ---------------------------------------------------------------------
// Corpus: one valid exemplar per instruction kind, one minimized
// invalid exemplar per ingest ErrorCode; filenames of invalid
// exemplars encode the expected code ("<code>__<slug>.json").

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::vector<fs::path>
corpusFiles(const char *subdir)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(
             fs::path(QPULSE_INGEST_CORPUS_DIR) / subdir))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(IngestCorpus, ValidExemplarsParseValidateAndRoundTrip)
{
    const std::vector<fs::path> files = corpusFiles("valid");
    ASSERT_GE(files.size(), 6u); // play/fc/sf/delay/acquire/envelope.

    ChannelBudget budget;
    budget.driveChannels = 1;
    budget.controlChannels = 1;
    budget.measureChannels = 1;
    budget.acquireChannels = 1;

    std::size_t kinds = 0;
    for (const fs::path &path : files) {
        IngestedJob job;
        const Status status =
            parseJob(readFile(path), IngestLimits{}, job);
        ASSERT_TRUE(status.ok())
            << path.filename() << ": " << status.message();
        const Status gate = validateSchedule(job.schedule, budget);
        EXPECT_TRUE(gate.ok())
            << path.filename() << ": " << gate.message();
        kinds |= 1u << static_cast<std::size_t>(
                     job.schedule.instructions().at(0).kind);

        // Round trip: re-emit through the trusted writer and re-parse
        // through the defensive boundary.
        QobjWriteOptions options;
        options.includeSamples = true;
        IngestedJob again;
        const Status rt = parseJob(
            scheduleToQobjJson(job.schedule, options), IngestLimits{},
            again);
        ASSERT_TRUE(rt.ok())
            << path.filename() << ": " << rt.message();
        EXPECT_EQ(again.schedule.instructions().size(),
                  job.schedule.instructions().size())
            << path.filename();
    }
    // All five instruction kinds are covered by the corpus.
    EXPECT_EQ(kinds, (1u << 0) | (1u << 1) | (1u << 2) | (1u << 3) |
                         (1u << 4));
}

TEST(IngestCorpus, InvalidExemplarsRejectWithTheEncodedCode)
{
    std::map<std::string, ErrorCode> codes;
    for (const ErrorCode code :
         {ErrorCode::MalformedJson, ErrorCode::UnexpectedEnd,
          ErrorCode::InvalidUtf8, ErrorCode::DepthLimitExceeded,
          ErrorCode::SizeLimitExceeded, ErrorCode::NumberOutOfRange,
          ErrorCode::DuplicateKey, ErrorCode::SchemaError,
          ErrorCode::UnknownField})
        codes[errorCodeName(code)] = code;

    const std::vector<fs::path> files = corpusFiles("invalid");
    std::map<std::string, int> seen;
    for (const fs::path &path : files) {
        const std::string stem = path.stem().string();
        const std::size_t sep = stem.find("__");
        ASSERT_NE(sep, std::string::npos) << stem;
        const std::string codeName = stem.substr(0, sep);
        ASSERT_TRUE(codes.count(codeName)) << stem;

        IngestedJob job;
        const Status status =
            parseJob(readFile(path), IngestLimits{}, job);
        EXPECT_EQ(status.code(), codes[codeName])
            << path.filename() << ": " << status.message();
        ++seen[codeName];
    }
    // Every ingest code has at least one minimized exemplar.
    EXPECT_EQ(seen.size(), codes.size());
}

// ---------------------------------------------------------------------
// DocumentFramer.

TEST(IngestFramer, SplitsConcatenatedMultilineDocuments)
{
    DocumentFramer framer;
    std::vector<std::string> frames;
    framer.feed("{\"a\":\n 1}\n  {\"b\": \"}{\"}[1, 2]", frames);
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0], "{\"a\":\n 1}");
    EXPECT_EQ(frames[1], "{\"b\": \"}{\"}");
    EXPECT_EQ(frames[2], "[1, 2]");
    EXPECT_EQ(framer.buffered(), 0u);
}

TEST(IngestFramer, ResynchronizesAfterGarbage)
{
    DocumentFramer framer;
    std::vector<std::string> frames;
    framer.feed("!!noise!! {\"a\": 1}", frames);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], "!!noise!! ");
    EXPECT_EQ(frames[1], "{\"a\": 1}");
}

TEST(IngestFramer, FlushReturnsTrailingPartialFrame)
{
    DocumentFramer framer;
    std::vector<std::string> frames;
    framer.feed("{\"a\": [1, 2", frames);
    EXPECT_TRUE(frames.empty());
    EXPECT_GT(framer.buffered(), 0u);
    std::string trailing;
    ASSERT_TRUE(framer.flush(trailing));
    EXPECT_EQ(trailing, "{\"a\": [1, 2");
    EXPECT_EQ(framer.buffered(), 0u);
    EXPECT_FALSE(framer.flush(trailing));
}

TEST(IngestFramer, EscapedQuotesInsideStrings)
{
    DocumentFramer framer;
    std::vector<std::string> frames;
    framer.feed("{\"a\": \"\\\"}{\\\\\"}", frames);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "{\"a\": \"\\\"}{\\\\\"}");
}

// ---------------------------------------------------------------------
// RequestFrontEnd over a calibrated single-qubit rig.

struct Rig
{
    Rig()
        : config(almadenLineConfig(1)),
          backend(makeCalibratedBackend(config)),
          calibrator(config), cal(calibrator.calibrateQubit(0)),
          sim(calibrator.qubitModel(0))
    {}

    Schedule
    x180Schedule() const
    {
        Schedule schedule("x180");
        schedule.play(driveChannel(0), cal.x180Pulse());
        return schedule;
    }

    std::string
    envelopeJson(long shots, const std::string &key,
                 std::uint64_t seed = 11) const
    {
        QobjWriteOptions options;
        options.includeSamples = true;
        return "{\"qobj\": " +
               scheduleToQobjJson(x180Schedule(), options) +
               ", \"shots\": " + std::to_string(shots) +
               ", \"seed\": " + std::to_string(seed) +
               ", \"key\": \"" + key + "\"}";
    }

    BackendConfig config;
    std::shared_ptr<const PulseBackend> backend;
    Calibrator calibrator;
    QubitCalibration cal;
    PulseSimulator sim;
};

FrontEndPolicy
rigPolicy(const Rig &rig)
{
    FrontEndPolicy policy;
    policy.budget = ChannelBudget::fromConfig(rig.config);
    policy.streamBatchShots = 16;
    return policy;
}

TEST(IngestFrontEnd, StreamsPartialResultsPerChunk)
{
    Rig rig;
    ExecutionService service(rig.backend, rig.sim);
    RequestFrontEnd front(service, rigPolicy(rig));
    std::vector<StreamEvent> events;
    front.setEventSink(
        [&](const StreamEvent &e) { events.push_back(e); });

    const int conn = front.open();
    front.feed(conn, rig.envelopeJson(48, "stream/x180"));
    front.finish(conn);
    front.run();

    ASSERT_EQ(events.size(), 4u); // Accepted, 2 Partial, Completed.
    EXPECT_EQ(events[0].kind, StreamEventKind::Accepted);
    EXPECT_EQ(events[0].key, "stream/x180");
    EXPECT_EQ(events[0].shotsRequested, 48);
    EXPECT_EQ(events[1].kind, StreamEventKind::Partial);
    EXPECT_EQ(events[1].shotsCompleted, 16);
    EXPECT_EQ(events[2].kind, StreamEventKind::Partial);
    EXPECT_EQ(events[2].shotsCompleted, 32);
    EXPECT_EQ(events[3].kind, StreamEventKind::Completed);
    EXPECT_EQ(events[3].shotsCompleted, 48);
    long total = 0;
    for (long c : events[3].counts)
        total += c;
    EXPECT_EQ(total, 48);
    EXPECT_EQ(front.stats().accepted, 1);
    EXPECT_EQ(front.stats().completed, 1);
    EXPECT_EQ(front.stats().chunksExecuted, 3);
    EXPECT_EQ(front.activeRequests(), 0u);
}

TEST(IngestFrontEnd, EmitsEachChunkAsItsJobFinishes)
{
    // Three requests of two 16-shot chunks each: every pump runs one
    // chunk per request. A fault-free chunk is one runShots call, so
    // the backend.runs delta at each event says how many chunks had
    // run when it left. Each event must leave right after its own
    // chunk, not after the whole drain.
    Rig rig;
    ExecutionService service(rig.backend, rig.sim);
    RequestFrontEnd front(service, rigPolicy(rig));
    const telemetry::Counter &runs =
        telemetry::MetricsRegistry::global().counter("backend.runs");
    std::uint64_t runs0 = 0;
    std::vector<StreamEvent> events;
    std::vector<std::uint64_t> runDeltas;
    front.setEventSink([&](const StreamEvent &e) {
        if (e.kind == StreamEventKind::Accepted)
            return;
        events.push_back(e);
        runDeltas.push_back(runs.value() - runs0);
    });

    for (int c = 0; c < 3; ++c) {
        const int conn = front.open();
        front.feed(conn,
                   rig.envelopeJson(32, "each/" + std::to_string(c),
                                    20 + static_cast<std::uint64_t>(c)));
        front.finish(conn);
    }
    runs0 = runs.value();
    EXPECT_EQ(front.pump(), 3u);
    EXPECT_EQ(runDeltas, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(front.pump(), 3u);
    EXPECT_EQ(runDeltas,
              (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(front.pump(), 0u);

    ASSERT_EQ(events.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
        const StreamEvent &e = events[i];
        const bool partial = i < 3;
        EXPECT_EQ(e.kind, partial ? StreamEventKind::Partial
                                  : StreamEventKind::Completed)
            << i;
        EXPECT_EQ(e.key, "each/" + std::to_string(i % 3)) << i;
        EXPECT_EQ(e.shotsRequested, 32) << i;
        EXPECT_EQ(e.shotsCompleted, partial ? 16 : 32) << i;
        long total = 0;
        for (long c : e.counts)
            total += c;
        EXPECT_EQ(total, e.shotsCompleted) << i;
    }
    EXPECT_EQ(front.stats().completed, 3);
    EXPECT_EQ(front.stats().chunksExecuted, 6);
    EXPECT_EQ(front.activeRequests(), 0u);
}

TEST(IngestFrontEnd, RejectsMalformedWithStructuredCodes)
{
    Rig rig;
    ExecutionService service(rig.backend, rig.sim);
    RequestFrontEnd front(service, rigPolicy(rig));
    std::vector<StreamEvent> events;
    front.setEventSink(
        [&](const StreamEvent &e) { events.push_back(e); });

    const int conn = front.open();
    front.feed(conn, "{\"name\": 3, \"instructions\": []}");
    front.feed(conn, "{\"a\": 1, \"a\": 2}");
    front.finish(conn);
    front.run();

    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, StreamEventKind::Rejected);
    EXPECT_EQ(events[0].status.code(), ErrorCode::SchemaError);
    EXPECT_EQ(events[1].kind, StreamEventKind::Rejected);
    EXPECT_EQ(events[1].status.code(), ErrorCode::DuplicateKey);
    EXPECT_NE(events[1].status.message().find(" at byte "),
              std::string::npos);
    EXPECT_EQ(front.stats().rejected, 2);
    EXPECT_EQ(front.stats().accepted, 0);
}

TEST(IngestFrontEnd, TruncatedTrailingDocumentRejectsOnFinish)
{
    Rig rig;
    ExecutionService service(rig.backend, rig.sim);
    RequestFrontEnd front(service, rigPolicy(rig));
    std::vector<StreamEvent> events;
    front.setEventSink(
        [&](const StreamEvent &e) { events.push_back(e); });

    const int conn = front.open();
    const std::string doc = rig.envelopeJson(16, "cut");
    front.feed(conn, std::string_view(doc).substr(0, doc.size() / 2));
    front.finish(conn);
    front.run();

    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, StreamEventKind::Rejected);
    EXPECT_EQ(events[0].status.code(), ErrorCode::UnexpectedEnd);
}

TEST(IngestFrontEnd, BufferBudgetOverflowRejectsAndResyncs)
{
    Rig rig;
    FrontEndPolicy policy = rigPolicy(rig);
    policy.maxConnectionBufferBytes = 64;
    ExecutionService service(rig.backend, rig.sim);
    RequestFrontEnd front(service, policy);
    std::vector<StreamEvent> events;
    front.setEventSink(
        [&](const StreamEvent &e) { events.push_back(e); });

    const int conn = front.open();
    // An unterminated document far beyond the 64-byte budget.
    front.feed(conn,
               "{\"name\": \"" + std::string(100000, 'a') + "\"");
    ASSERT_GE(events.size(), 1u);
    EXPECT_EQ(events[0].kind, StreamEventKind::Rejected);
    EXPECT_EQ(events[0].status.code(),
              ErrorCode::SizeLimitExceeded);
    EXPECT_GE(front.stats().overflowDrops, 1L);

    // The connection still works for subsequent documents.
    events.clear();
    front.feed(conn, "{\"a\": 1, \"a\": 2}");
    bool sawDuplicate = false;
    for (const StreamEvent &e : events)
        sawDuplicate |= e.status.code() == ErrorCode::DuplicateKey;
    EXPECT_TRUE(sawDuplicate);
}

TEST(IngestFrontEnd, AdmissionBudgetRejectsExcessRequests)
{
    Rig rig;
    FrontEndPolicy policy = rigPolicy(rig);
    policy.maxPendingPerConnection = 1;
    ExecutionService service(rig.backend, rig.sim);
    RequestFrontEnd front(service, policy);
    std::vector<StreamEvent> events;
    front.setEventSink(
        [&](const StreamEvent &e) { events.push_back(e); });

    const int conn = front.open();
    front.feed(conn, rig.envelopeJson(16, "first"));
    front.feed(conn, rig.envelopeJson(16, "second"));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, StreamEventKind::Accepted);
    EXPECT_EQ(events[1].kind, StreamEventKind::Rejected);
    EXPECT_EQ(events[1].status.code(),
              ErrorCode::ResourceExhausted);
    front.run();
    EXPECT_EQ(front.stats().completed, 1);
}

TEST(IngestFrontEnd, CloseDisconnectsInFlightRequests)
{
    Rig rig;
    ExecutionService service(rig.backend, rig.sim);
    RequestFrontEnd front(service, rigPolicy(rig));
    std::vector<StreamEvent> events;
    front.setEventSink(
        [&](const StreamEvent &e) { events.push_back(e); });

    const int conn = front.open();
    front.feed(conn, rig.envelopeJson(64, "doomed"));
    EXPECT_EQ(front.pump(), 1u); // First chunk lands.
    front.close(conn);
    front.run();

    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(events.back().kind, StreamEventKind::Disconnected);
    EXPECT_EQ(events.back().status.code(), ErrorCode::Cancelled);
    EXPECT_EQ(events.back().shotsCompleted, 16);
    EXPECT_EQ(front.stats().disconnected, 1);
    // Bytes of a dead peer are dropped silently.
    const std::size_t before = events.size();
    front.feed(conn, "{\"a\": 1}");
    EXPECT_EQ(events.size(), before);
}

TEST(IngestFrontEnd, CloseReleasesTheReceiveBuffer)
{
    Rig rig;
    FrontEndPolicy policy = rigPolicy(rig);
    policy.maxConnectionBufferBytes = 4u << 20;
    ExecutionService service(rig.backend, rig.sim);
    RequestFrontEnd front(service, policy);
    // An unterminated document under the budget: the framer buffers
    // all of it, waiting for the closing brace that never comes.
    const std::string partial =
        "{\"name\": \"" + std::string(1u << 20, 'a');
    const auto cycle = [&] {
        const int conn = front.open();
        front.feed(conn, partial);
        front.close(conn);
    };
    cycle(); // Warm-up: one-time allocations (metrics) land here.

    const std::int64_t before = liveBytes();
    for (int i = 0; i < 8; ++i)
        cycle();
    // Every closed connection must give its buffer back; keeping even
    // one would leave at least 1 MiB live.
    EXPECT_LT(liveBytes() - before, std::int64_t{1} << 20);
}

TEST(IngestFrontEnd, SingleBackendServiceFailsUnknownBackendNames)
{
    Rig rig;
    ExecutionService service(rig.backend, rig.sim);
    RequestFrontEnd front(service, rigPolicy(rig));
    std::map<std::string, StreamEvent> last;
    front.setEventSink(
        [&](const StreamEvent &e) { last[e.key] = e; });

    const auto envelope = [&](const std::string &backend) {
        std::string doc = rig.envelopeJson(16, "pin/" + backend);
        doc.insert(doc.size() - 1, ", \"backend\": \"" + backend + "\"");
        return doc;
    };
    const int conn = front.open();
    for (const char *backend : {"b0", "b1", "default"})
        front.feed(conn, envelope(backend));
    front.finish(conn);
    front.run();

    for (const char *key : {"pin/b0", "pin/b1"}) {
        EXPECT_EQ(last[key].kind, StreamEventKind::Failed) << key;
        EXPECT_STREQ(errorCodeName(last[key].status.code()),
                     "invalid-argument")
            << key;
    }
    EXPECT_EQ(last["pin/default"].kind, StreamEventKind::Completed);

    // A name the service does not serve leaves no breaker gauge
    // behind; the one member's gauge is there.
    bool sawDefault = false;
    for (const auto &[name, value] :
         telemetry::MetricsRegistry::global().snapshot().gauges) {
        EXPECT_NE(name, "fleet.breaker.state.b0");
        EXPECT_NE(name, "fleet.breaker.state.b1");
        sawDefault |= name == "fleet.breaker.state.default";
    }
    EXPECT_TRUE(sawDefault);
}

TEST(IngestFrontEnd, FaultedDeliveryIsDeterministic)
{
    Rig rig;
    FaultPlan plan;
    plan.seed = 99;
    plan.ingestTruncateRate = 0.3;
    plan.ingestCorruptRate = 0.3;
    plan.ingestDupKeyRate = 0.2;
    plan.ingestDisconnectRate = 0.1;

    auto runOnce = [&]() {
        ExecutionService service(rig.backend, rig.sim);
        RequestFrontEnd front(service, rigPolicy(rig));
        front.setFaultInjector(
            std::make_shared<FaultInjector>(plan));
        std::vector<std::string> trace;
        front.setEventSink([&](const StreamEvent &e) {
            std::string entry = streamEventKindName(e.kind);
            entry += ":";
            entry += errorCodeName(e.status.code());
            trace.push_back(std::move(entry));
        });
        for (int i = 0; i < 24; ++i) {
            const int conn = front.open();
            std::string key = "f";
            key += std::to_string(i);
            front.deliver(conn, rig.envelopeJson(16, key, 100 + i));
            front.finish(conn);
        }
        front.run();
        return trace;
    };

    const std::vector<std::string> first = runOnce();
    const std::vector<std::string> second = runOnce();
    EXPECT_EQ(first, second);

    // The plan's rates are high enough that both mutated-and-rejected
    // and clean-and-completed documents occur in 24 deliveries.
    bool sawReject = false;
    for (const std::string &entry : first)
        sawReject |= entry.rfind("rejected:", 0) == 0;
    EXPECT_TRUE(sawReject);
}

TEST(IngestFaultPlan, IngestKeysRoundTripThroughSpec)
{
    FaultPlan plan;
    plan.ingestTruncateRate = 0.25;
    plan.ingestCorruptRate = 0.125;
    plan.ingestDupKeyRate = 0.5;
    plan.ingestDisconnectRate = 0.0625;
    EXPECT_TRUE(plan.enabled());

    FaultPlan reparsed;
    const Status status = FaultPlan::parse(plan.toString(), reparsed);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(reparsed.ingestTruncateRate, 0.25);
    EXPECT_EQ(reparsed.ingestCorruptRate, 0.125);
    EXPECT_EQ(reparsed.ingestDupKeyRate, 0.5);
    EXPECT_EQ(reparsed.ingestDisconnectRate, 0.0625);

    EXPECT_EQ(FaultPlan::parse("ingest_trunc=1.5", reparsed).code(),
              ErrorCode::ParseError);

    // The mutation classes produce payloads the parser rejects with
    // the matching structured code — deterministically per ordinal.
    FaultPlan always;
    always.ingestDupKeyRate = 1.0;
    FaultInjector injector(always);
    const std::string doc = "{\"name\": \"x\"}";
    const auto injection = injector.injectIngest(doc, 7);
    EXPECT_TRUE(injection.duplicatedKey);
    IngestedJob job;
    EXPECT_EQ(parseJob(injection.payload, IngestLimits{}, job).code(),
              ErrorCode::DuplicateKey);
    const auto again =
        FaultInjector(always).injectIngest(doc, 7);
    EXPECT_EQ(again.payload, injection.payload);
}

} // namespace
} // namespace ingest
} // namespace qpulse
