/**
 * @file
 * Tests for the persistent content-addressed artifact store
 * (src/store, docs/PERSISTENCE.md): canonical little-endian serde
 * round-trips, store put/flush/get with cross-process reopen, the
 * generation invalidation model (single backend recalibration and
 * fleet drain/readmit), fail-closed corruption handling (bit flips,
 * truncation, zero fill, version mismatch), the segments-only
 * directory layout, records of retired kinds an older build left
 * behind, and the QPULSE_CACHE_DIR env gate.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/constants.h"
#include "common/status.h"
#include "compile/compile_cache.h"
#include "compile/compiler.h"
#include "device/calibration.h"
#include "device/fault_injector.h"
#include "pulsesim/simulator.h"
#include "service/backend_pool.h"
#include "service/execution_service.h"
#include "store/artifact_store.h"
#include "store/serde.h"

namespace qpulse {
namespace {

namespace fs = std::filesystem;

/** Fresh unique store directory, removed on scope exit. */
struct TempDir
{
    TempDir()
    {
        static int counter = 0;
        path = fs::temp_directory_path() /
               ("qpulse-store-test-" + std::to_string(::getpid()) +
                "-" + std::to_string(counter++));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
    fs::path path;
};

/** RAII guard restoring an env var on scope exit. */
struct EnvGuard
{
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr)
            old_ = old;
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~EnvGuard()
    {
        if (old_.has_value())
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

    const char *name_;
    std::optional<std::string> old_;
};

/** Calibrated single-qubit substrate for service/fleet tests. */
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

    BackendConfig config;
    std::shared_ptr<const PulseBackend> backend;
    Calibrator calibrator;
    QubitCalibration cal;
    PulseSimulator sim;
};

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    double max_diff = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            max_diff = std::max(max_diff, std::abs(a(r, c) - b(r, c)));
    return max_diff;
}

std::vector<std::uint8_t>
readFile(const fs::path &path)
{
    std::FILE *in = std::fopen(path.string().c_str(), "rb");
    EXPECT_NE(in, nullptr) << path;
    std::fseek(in, 0, SEEK_END);
    const long size = std::ftell(in);
    std::fseek(in, 0, SEEK_SET);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), in),
              bytes.size());
    std::fclose(in);
    return bytes;
}

void
writeFile(const fs::path &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *out = std::fopen(path.string().c_str(), "wb");
    ASSERT_NE(out, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out),
              bytes.size());
    std::fclose(out);
}

/** The first segment file in `dir` (there must be exactly >= 1). */
fs::path
firstSegment(const std::string &dir)
{
    std::vector<fs::path> segments;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".qps")
            segments.push_back(entry.path());
    EXPECT_FALSE(segments.empty());
    std::sort(segments.begin(), segments.end());
    return segments.front();
}

store::ArtifactKey
testKey(std::uint64_t content = 0xABCDu)
{
    store::ArtifactKey key;
    key.contentHash = content;
    key.generation = 7;
    key.configFingerprint = 42;
    key.kind = static_cast<std::uint32_t>(
        store::ArtifactKind::CompiledSchedule);
    return key;
}

// ------------------------------------------------------------------
// Serde: canonical little-endian encoding and exact round-trips.
// ------------------------------------------------------------------

TEST(Serde, GoldenLittleEndianEncoding)
{
    store::ByteWriter w;
    w.u32(0x11223344u);
    w.u64(0x0102030405060708ull);
    w.f64(1.0); // IEEE-754: 0x3FF0000000000000.
    const std::vector<std::uint8_t> expected = {
        0x44, 0x33, 0x22, 0x11, // u32, little-endian
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // u64
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F, // f64 1.0
    };
    EXPECT_EQ(w.bytes(), expected);

    store::ByteReader r(expected.data(), expected.size());
    std::uint32_t a = 0;
    std::uint64_t b = 0;
    double c = 0.0;
    ASSERT_TRUE(r.u32(a).ok());
    ASSERT_TRUE(r.u64(b).ok());
    ASSERT_TRUE(r.f64(c).ok());
    EXPECT_EQ(a, 0x11223344u);
    EXPECT_EQ(b, 0x0102030405060708ull);
    EXPECT_EQ(c, 1.0);
    EXPECT_TRUE(r.exhausted());

    // A short buffer is a structured failure, never UB.
    store::ByteReader short_reader(expected.data(), 3);
    std::uint32_t d = 0;
    EXPECT_EQ(short_reader.u32(d).code(), ErrorCode::StoreCorrupt);
}

TEST(Serde, OverflowingDimensionsFailClosed)
{
    // 2^62 gates of at least 20 bytes each wrap u64 (20 * 2^62 = 0 mod
    // 2^64): the division-based guard must reject the count before
    // any allocation.
    store::ByteWriter w;
    w.u64(2);
    w.u64(1ull << 62);
    w.f64(0.0); // A few payload bytes, far short of the claim.
    const std::vector<std::uint8_t> bytes = w.take();
    store::ByteReader r(bytes.data(), bytes.size());
    QuantumCircuit circuit(1);
    EXPECT_EQ(store::deserializeCircuit(r, circuit).code(),
              ErrorCode::StoreCorrupt);

    // A value count near 2^64 / 8 must not wrap the byte-total bound
    // inside the bulk array read either: (2^61 + 1) * 8 = 8 mod 2^64.
    store::ByteWriter vw;
    vw.f64(1.0);
    vw.f64(2.0);
    const std::vector<std::uint8_t> vb = vw.take();
    store::ByteReader vr(vb.data(), vb.size());
    double sink[2] = {0.0, 0.0};
    EXPECT_EQ(vr.f64Array(sink, (std::size_t{1} << 61) + 1).code(),
              ErrorCode::StoreCorrupt);
    EXPECT_EQ(sink[0], 0.0);
}

TEST(Serde, ScheduleRoundTripsAndHashIsContentSensitive)
{
    const BackendConfig config = almadenLineConfig(2);
    const auto backend = makeCalibratedBackend(config);
    Calibrator calibrator(config);
    const Schedule cnot =
        backend->schedule(makeGate(GateType::Cnot, {0, 1}));

    store::ByteWriter w;
    store::serializeScheduleRle(cnot, w);
    const std::vector<std::uint8_t> bytes = w.take();
    store::ByteReader r(bytes.data(), bytes.size());
    Schedule loaded;
    ASSERT_TRUE(store::deserializeScheduleRle(r, loaded).ok());
    EXPECT_EQ(r.remaining(), 0u);

    // The loaded schedule carries sampled waveforms whose samples are
    // bit-identical, so the content hash is unchanged...
    EXPECT_EQ(store::hashSchedule(loaded), store::hashSchedule(cnot));

    // ...and so is the physics it drives, to the repo-wide budget.
    PulseSimulator sim = calibrator.pairSimulator(0, 1);
    const Matrix u_orig = sim.effectiveUnitary(sim.evolveUnitary(cnot));
    const Matrix u_load =
        sim.effectiveUnitary(sim.evolveUnitary(loaded));
    EXPECT_LE(maxAbsDiff(u_orig, u_load), 1e-12);

    // Any content change reroutes the hash.
    Schedule shifted = cnot;
    shifted.shiftPhase(driveChannel(0), 1e-9);
    EXPECT_NE(store::hashSchedule(shifted), store::hashSchedule(cnot));
}

// ------------------------------------------------------------------
// ArtifactStore: round-trips, reopen, invalidation, size budget.
// ------------------------------------------------------------------

TEST(ArtifactStore, PutFlushGetAndCrossProcessReopen)
{
    TempDir dir;
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
    const store::ArtifactKey key = testKey();

    {
        Status status;
        auto store = store::ArtifactStore::open(dir.str(), 1 << 20,
                                                &status);
        ASSERT_NE(store, nullptr) << status.toString();
        ASSERT_TRUE(store->put(key, payload).ok());
        // Not yet flushed: not addressable.
        EXPECT_FALSE(store->contains(key));
        ASSERT_TRUE(store->flush().ok());
        EXPECT_TRUE(store->contains(key));
        store::ArtifactView view;
        ASSERT_TRUE(store->get(key, view).ok());
        ASSERT_EQ(view.size, payload.size());
        EXPECT_EQ(std::vector<std::uint8_t>(view.data,
                                            view.data + view.size),
                  payload);
        EXPECT_EQ(store->stats().hits, 1u);
    } // "Process" exits.

    // A fresh open over the same directory serves the same bytes.
    auto reopened = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->size(), 1u);
    store::ArtifactView view;
    ASSERT_TRUE(reopened->get(key, view).ok());
    ASSERT_EQ(view.size, payload.size());
    EXPECT_EQ(
        std::vector<std::uint8_t>(view.data, view.data + view.size),
        payload);

    // A different generation is simply unreachable.
    store::ArtifactKey other = key;
    other.generation += 1;
    store::ArtifactView missing;
    EXPECT_FALSE(reopened->get(other, missing).ok());
    EXPECT_EQ(reopened->stats().misses, 1u);
}

TEST(ArtifactStore, BitFlippedRecordFailsClosedForever)
{
    TempDir dir;
    const store::ArtifactKey key = testKey();
    {
        auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put(key, {1, 2, 3, 4, 5, 6, 7, 8}).ok());
        ASSERT_TRUE(store->flush().ok());
    }
    const fs::path segment = firstSegment(dir.str());
    auto bytes = readFile(segment);
    // Flip one payload byte (the header stays intact, so the record
    // still frames — the CRC must catch it on first validation).
    bytes[48 + 3] ^= 0x40;
    writeFile(segment, bytes);

    auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(store, nullptr);
    store::ArtifactView view;
    EXPECT_EQ(store->get(key, view).code(), ErrorCode::StoreCorrupt);
    // Quarantined: the second get fails the same way without
    // re-reading a byte — the record is never trusted again.
    EXPECT_EQ(store->get(key, view).code(), ErrorCode::StoreCorrupt);
    EXPECT_GE(store->stats().corrupt, 1u);
    EXPECT_GE(store->stats().quarantined, 1u);
}

TEST(ArtifactStore, TruncatedSegmentKeepsOnlyThePrefix)
{
    TempDir dir;
    const store::ArtifactKey first = testKey(1);
    const store::ArtifactKey second = testKey(2);
    {
        auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put(first, {1, 1, 1, 1}).ok());
        ASSERT_TRUE(store->put(second, {2, 2, 2, 2}).ok());
        ASSERT_TRUE(store->flush().ok());
    }
    const fs::path segment = firstSegment(dir.str());
    auto bytes = readFile(segment);
    bytes.resize(bytes.size() - 6); // Chop into the last record.
    writeFile(segment, bytes);

    auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(store, nullptr);
    store::ArtifactView view;
    ASSERT_TRUE(store->get(first, view).ok());
    EXPECT_EQ(view.size, 4u);
    EXPECT_FALSE(store->get(second, view).ok()); // Structured, no crash.
    EXPECT_GE(store->stats().quarantined, 1u);
}

TEST(ArtifactStore, ZeroFilledSegmentServesNothing)
{
    TempDir dir;
    const store::ArtifactKey key = testKey();
    {
        auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put(key, {1, 2, 3}).ok());
        ASSERT_TRUE(store->flush().ok());
    }
    const fs::path segment = firstSegment(dir.str());
    writeFile(segment,
              std::vector<std::uint8_t>(readFile(segment).size(), 0));

    auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(store, nullptr);
    store::ArtifactView view;
    EXPECT_FALSE(store->get(key, view).ok());
    EXPECT_EQ(store->size(), 0u);
}

TEST(ArtifactStore, ForeignFormatVersionIsVersionMismatch)
{
    TempDir dir;
    const store::ArtifactKey key = testKey();

    // Hand-craft a well-formed record written by a "future" layout:
    // correct framing and CRC, format version bumped.
    store::ByteWriter w;
    w.u32(0x52535051u); // Record magic "QPSR".
    w.u32(store::kFormatVersion + 17);
    w.u32(key.kind);
    w.u32(0);
    w.u64(key.contentHash);
    w.u64(key.generation);
    w.u64(key.configFingerprint);
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    w.u64(payload.size());
    w.raw(payload.data(), payload.size());
    w.u64(store::crc64(w.bytes().data(), w.size()));
    writeFile(dir.path / "seg-000001-1.qps", w.bytes());

    auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(store, nullptr);
    store::ArtifactView view;
    EXPECT_EQ(store->get(key, view).code(),
              ErrorCode::StoreVersionMismatch);
    EXPECT_GE(store->stats().versionMismatch, 1u);
}

TEST(ArtifactStore, SizeBudgetDropsOldestSegments)
{
    TempDir dir;
    // Budget of ~2 small segments; 6 flushes of 1 KiB payloads.
    auto store = store::ArtifactStore::open(dir.str(), 3000);
    ASSERT_NE(store, nullptr);
    std::vector<std::uint8_t> payload(1024, 0x5A);
    for (std::uint64_t k = 0; k < 6; ++k) {
        ASSERT_TRUE(store->put(testKey(1000 + k), payload).ok());
        ASSERT_TRUE(store->flush().ok());
    }
    EXPECT_GT(store->stats().segmentsDropped, 0u);
    EXPECT_LE(store->diskBytes(), 3000u);
    // The newest artifact always survives the budget.
    store::ArtifactView view;
    ASSERT_TRUE(store->get(testKey(1005), view).ok());
    // The oldest was reclaimed.
    EXPECT_FALSE(store->get(testKey(1000), view).ok());
}

TEST(ArtifactStore, WrappingRecordLengthTerminatesTheScan)
{
    TempDir dir;
    const store::ArtifactKey key = testKey();
    // Frame a record claiming a payload of 2^64-56 bytes: the total
    // record span (header + payload + trailer) wraps u64 to exactly
    // 0. open() must quarantine the damage and terminate — an
    // unbounded span check would pass and the scan would never
    // advance past the record.
    store::ByteWriter w;
    w.u32(0x52535051u); // Record magic "QPSR".
    w.u32(store::kFormatVersion);
    w.u32(key.kind);
    w.u32(0);
    w.u64(key.contentHash);
    w.u64(key.generation);
    w.u64(key.configFingerprint);
    w.u64(~0ull - 55); // payloadBytes = 2^64 - 56.
    w.u64(0xDEADBEEFu); // Trailing bytes the scan would spin on.
    writeFile(dir.path / "seg-000001-1.qps", w.bytes());

    auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->size(), 0u);
    store::ArtifactView view;
    EXPECT_FALSE(store->get(key, view).ok());
    EXPECT_GE(store->stats().quarantined, 1u);
}

TEST(ArtifactStore, ViewOutlivesBudgetDropAndStoreDestruction)
{
    TempDir dir;
    const std::vector<std::uint8_t> payload(1024, 0xA5);
    store::ArtifactView view;
    {
        auto store = store::ArtifactStore::open(dir.str(), 3000);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put(testKey(1), payload).ok());
        ASSERT_TRUE(store->flush().ok());
        ASSERT_TRUE(store->get(testKey(1), view).ok());

        // Flush until the size budget drops the segment the view
        // points into.
        for (std::uint64_t k = 2; k < 8; ++k) {
            ASSERT_TRUE(store->put(testKey(k), payload).ok());
            ASSERT_TRUE(store->flush().ok());
        }
        store::ArtifactView gone;
        ASSERT_FALSE(store->get(testKey(1), gone).ok());

        // The pinned bytes are still mapped and intact (ASan-checked).
        ASSERT_EQ(view.size, payload.size());
        EXPECT_EQ(std::vector<std::uint8_t>(view.data,
                                            view.data + view.size),
                  payload);
    } // Store destroyed; the view alone keeps the mapping alive.
    EXPECT_EQ(
        std::vector<std::uint8_t>(view.data, view.data + view.size),
        payload);
}

/**
 * The use-after-munmap regression (run under ASan in CI): a reader
 * consumes views with no store lock held while a writer's flushes
 * evict the segment being read. Before views pinned their mappings,
 * enforceBudget()'s munmap could yank the bytes out from under the
 * reader mid-consumption.
 */
TEST(ArtifactStore, ConcurrentReadsSurviveBudgetEviction)
{
    TempDir dir;
    auto store = store::ArtifactStore::open(dir.str(), 3000);
    ASSERT_NE(store, nullptr);
    const std::vector<std::uint8_t> payload(1024, 0x3C);
    ASSERT_TRUE(store->put(testKey(0), payload).ok());
    ASSERT_TRUE(store->flush().ok());

    std::atomic<bool> stop{false};
    std::thread reader([&store, &stop] {
        while (!stop.load()) {
            store::ArtifactView view;
            if (!store->get(testKey(0), view).ok())
                continue; // Evicted: later gets simply miss.
            std::uint32_t sum = 0;
            for (std::size_t i = 0; i < view.size; ++i)
                sum += view.data[i];
            EXPECT_EQ(sum, 0x3Cu * 1024u);
        }
    });
    for (std::uint64_t k = 1; k <= 32; ++k) {
        ASSERT_TRUE(store->put(testKey(k), payload).ok());
        ASSERT_TRUE(store->flush().ok());
    }
    stop.store(true);
    reader.join();
}

TEST(ArtifactStore, TwoWritersOneDirectoryKeepAllRecordsAddressable)
{
    TempDir dir;
    // Two stores (standing in for two processes) open the same empty
    // directory, so both compute segment sequence number 1.
    auto a = store::ArtifactStore::open(dir.str(), 1 << 20);
    auto b = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(a->put(testKey(1), {0xAA}).ok());
    ASSERT_TRUE(a->flush().ok());
    ASSERT_TRUE(b->put(testKey(2), {0xBB}).ok());
    ASSERT_TRUE(b->flush().ok());

    // Distinct writer tags: neither rename clobbered the other.
    std::size_t segment_files = 0;
    for (const auto &entry : fs::directory_iterator(dir.str()))
        segment_files += entry.path().extension() == ".qps";
    EXPECT_EQ(segment_files, 2u);

    // A fresh open scans both writers' segments and serves BOTH
    // writers' records: same-sequence segments must not alias in the
    // in-memory index.
    auto c = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(c, nullptr);
    store::ArtifactView view;
    ASSERT_TRUE(c->get(testKey(1), view).ok());
    ASSERT_EQ(view.size, 1u);
    EXPECT_EQ(view.data[0], 0xAA);
    ASSERT_TRUE(c->get(testKey(2), view).ok());
    ASSERT_EQ(view.size, 1u);
    EXPECT_EQ(view.data[0], 0xBB);
    EXPECT_EQ(c->stats().corrupt, 0u);
    EXPECT_EQ(c->stats().quarantined, 0u);
}

/**
 * Segments are the store's only on-disk format: flushes leave nothing
 * else in the directory, an open scans the segments, and an index.qpi
 * an older build left beside them is neither read nor rewritten.
 */
TEST(ArtifactStore, DirectoryHoldsOnlySegmentsAndOpenScansThem)
{
    TempDir dir;
    constexpr std::uint64_t kRecords = 4;
    {
        auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
        ASSERT_NE(store, nullptr);
        for (std::uint64_t k = 0; k < kRecords; ++k) {
            ASSERT_TRUE(
                store->put(testKey(k), {static_cast<std::uint8_t>(k), 7})
                    .ok());
            ASSERT_TRUE(store->flush().ok());
        }
    }
    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir.str())) {
        const std::string name = entry.path().filename().string();
        EXPECT_EQ(name.rfind("seg-", 0), 0u) << name;
        EXPECT_EQ(entry.path().extension(), ".qps") << name;
        ++files;
    }
    EXPECT_EQ(files, kRecords);

    const std::vector<std::uint8_t> garbage(64, 0xEE);
    writeFile(dir.path / "index.qpi", garbage);
    auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->size(), kRecords);
    for (std::uint64_t k = 0; k < kRecords; ++k) {
        store::ArtifactView view;
        ASSERT_TRUE(store->get(testKey(k), view).ok()) << k;
        ASSERT_EQ(view.size, 2u);
        EXPECT_EQ(view.data[0], k);
    }
    EXPECT_EQ(store->stats().corrupt, 0u);
    EXPECT_EQ(store->stats().versionMismatch, 0u);

    // A further flush adds a segment and leaves the old file alone.
    ASSERT_TRUE(store->put(testKey(kRecords), {1}).ok());
    ASSERT_TRUE(store->flush().ok());
    EXPECT_EQ(readFile(dir.path / "index.qpi"), garbage);
}

/**
 * A segment write cut short (here by the file-size limit, as a full
 * disk would) fails the flush and lands nothing: no truncated segment,
 * no record served. The records stay pending, and the next flush lands
 * them.
 */
TEST(ArtifactStore, ShortSegmentWriteFailsTheFlush)
{
    TempDir dir;
    const store::ArtifactKey key = testKey();
    const std::vector<std::uint8_t> payload(1000, 0x5A);
    auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->put(key, payload).ok());

    // Past the limit a write fails with EFBIG instead of raising
    // SIGXFSZ. The record (~1 KB) fits the stdio buffer, so the cut
    // happens in the buffer's flush, not in fwrite.
    const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    rlimit saved = {};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit capped = saved;
    capped.rlim_cur = 100;
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    const Status cut = store->flush();
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, old_handler);

    EXPECT_FALSE(cut.ok());
    for (const auto &entry : fs::directory_iterator(dir.str()))
        ADD_FAILURE() << "left behind: " << entry.path();
    store::ArtifactView view;
    EXPECT_FALSE(store->get(key, view).ok());

    ASSERT_TRUE(store->flush().ok());
    ASSERT_TRUE(store->get(key, view).ok());
    EXPECT_EQ(std::vector<std::uint8_t>(view.data, view.data + view.size),
              payload);
    auto reopened = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(reopened, nullptr);
    store::ArtifactView served;
    ASSERT_TRUE(reopened->get(key, served).ok());
    EXPECT_EQ(
        std::vector<std::uint8_t>(served.data, served.data + served.size),
        payload);
}

TEST(ArtifactStore, EnvGateOffMeansNoStore)
{
    EnvGuard dir_guard("QPULSE_CACHE_DIR", nullptr);
    EXPECT_EQ(store::ArtifactStore::openFromEnv(), nullptr);

    EnvGuard empty_guard("QPULSE_CACHE_DIR", "");
    EXPECT_EQ(store::ArtifactStore::openFromEnv(), nullptr);
}

/**
 * Re-kind the records of a segment image alternately as 1 and 3, the
 * retired propagator-block and calibration-snapshot kinds, and
 * re-checksum them: the bytes an older build that wrote those kinds
 * left behind. Returns the keys as retagged.
 */
std::vector<store::ArtifactKey>
retireRecords(std::vector<std::uint8_t> &segment)
{
    const auto read_u64 = [&](std::size_t at) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(segment[at + i]) << (8 * i);
        return v;
    };
    std::vector<store::ArtifactKey> keys;
    constexpr std::size_t kHeader = 48;
    std::size_t offset = 0;
    while (offset < segment.size()) {
        const std::uint32_t kind = keys.size() % 2 == 0 ? 1u : 3u;
        for (int i = 0; i < 4; ++i)
            segment[offset + 8 + i] =
                static_cast<std::uint8_t>(kind >> (8 * i));
        const std::size_t body =
            kHeader + static_cast<std::size_t>(read_u64(offset + 40));
        const std::uint64_t crc = store::crc64(&segment[offset], body);
        for (int i = 0; i < 8; ++i)
            segment[offset + body + i] =
                static_cast<std::uint8_t>(crc >> (8 * i));
        store::ArtifactKey key;
        key.kind = kind;
        key.contentHash = read_u64(offset + 16);
        key.generation = read_u64(offset + 24);
        key.configFingerprint = read_u64(offset + 32);
        keys.push_back(key);
        offset += body + 8;
    }
    return keys;
}

/**
 * A directory an older build shared: propagator blocks and calibration
 * snapshots beside the compiled schedules this build writes. It opens
 * and serves the compiled schedules bit-identically, hands no retired
 * record to any lookup, and the QPULSE_CACHE_MAX_BYTES budget ages the
 * retired records out with their segment.
 */
TEST(ArtifactStore, RetiredKindsAreNeverServedAndAgeOut)
{
    const Rig rig;
    QuantumCircuit circuit(1);
    circuit.rx(0.7, 0);
    TempDir dir;

    // ~1.2 MB of retired records in the oldest segment.
    std::vector<store::ArtifactKey> retired;
    fs::path old_segment;
    {
        TempDir scratch;
        auto old = store::ArtifactStore::open(scratch.str(), 0);
        ASSERT_NE(old, nullptr);
        for (std::uint64_t k = 0; k < 4; ++k)
            ASSERT_TRUE(old->put(testKey(k),
                                 std::vector<std::uint8_t>(
                                     300000, static_cast<std::uint8_t>(k)))
                            .ok());
        ASSERT_TRUE(old->flush().ok());
        const fs::path written = firstSegment(scratch.str());
        std::vector<std::uint8_t> bytes = readFile(written);
        retired = retireRecords(bytes);
        old_segment = dir.path / written.filename();
        writeFile(old_segment, bytes);
    }
    ASSERT_EQ(retired.size(), 4u);

    // This build compiles beside them, and refuses to write a retired
    // kind itself.
    std::uint64_t compiled = 0;
    {
        auto store = store::ArtifactStore::open(dir.str(), 0);
        ASSERT_NE(store, nullptr);
        EXPECT_EQ(store->size(), 0u);
        PulseCompiler compiler(rig.backend, CompileMode::Optimized);
        compiler.setCompileCache(std::make_shared<CompileCache>(16, store));
        compiled = store::hashSchedule(compiler.compile(circuit).schedule);
        ASSERT_TRUE(compiler.compileCache()->flush().ok());
        EXPECT_EQ(store->put(retired[0], {1}).code(),
                  ErrorCode::InvalidArgument);
    }

    EnvGuard dir_guard("QPULSE_CACHE_DIR", dir.str().c_str());
    EnvGuard budget_guard("QPULSE_CACHE_MAX_BYTES", "1048576");
    auto store = store::ArtifactStore::openFromEnv();
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->size(), 1u); // The compiled schedule alone.
    for (const store::ArtifactKey &key : retired) {
        EXPECT_FALSE(store->contains(key));
        store::ArtifactView view;
        EXPECT_EQ(store->get(key, view).code(), ErrorCode::InvalidArgument);
        EXPECT_EQ(view.data, nullptr);
    }
    EXPECT_EQ(store->stats().quarantined, 0u);
    EXPECT_GT(store->diskBytes(), 1u << 20);

    PulseCompiler compiler(rig.backend, CompileMode::Optimized);
    auto cache = std::make_shared<CompileCache>(16, store);
    compiler.setCompileCache(cache);
    EXPECT_EQ(store::hashSchedule(compiler.compile(circuit).schedule),
              compiled);
    EXPECT_EQ(cache->stats().persistHits, 1u);
    EXPECT_EQ(cache->stats().misses, 0u);

    // The next flush goes past the budget: the oldest segment, and
    // the retired records with it, is dropped; the compiled schedules
    // stay served.
    QuantumCircuit other(1);
    other.rx(0.3, 0);
    (void)compiler.compile(other);
    ASSERT_TRUE(cache->flush().ok());
    EXPECT_EQ(store->stats().segmentsDropped, 1u);
    EXPECT_FALSE(fs::exists(old_segment));
    EXPECT_LT(store->diskBytes(), 1u << 20);
    EXPECT_EQ(store->size(), 2u);
    PulseCompiler fresh(rig.backend, CompileMode::Optimized);
    auto fresh_cache = std::make_shared<CompileCache>(16, store);
    fresh.setCompileCache(fresh_cache);
    EXPECT_EQ(store::hashSchedule(fresh.compile(circuit).schedule),
              compiled);
    EXPECT_EQ(fresh_cache->stats().persistHits, 1u);
}

// ------------------------------------------------------------------
// Service and fleet wiring: env gate, invalidation on recalibration
// and drain/readmit.
// ------------------------------------------------------------------

/** A circuit-carrying job: the drain compiles rx(theta) itself. */
JobRequest
rxCircuitJob(long shots = 64)
{
    QuantumCircuit circuit(1);
    circuit.rx(0.7, 0);
    JobRequest request;
    request.circuit = circuit;
    request.key = "rx";
    request.shots = shots;
    request.seed = 0xA11CE;
    return request;
}

JobRequest
x180Job(const Rig &rig, long shots = 64)
{
    JobRequest request;
    request.schedule = rig.x180Schedule();
    request.key = "x180";
    request.shots = shots;
    request.seed = 0xA11CE;
    return request;
}

TEST(ServicePersistence, OffByDefaultAndOnViaEnv)
{
    const Rig rig;
    {
        EnvGuard guard("QPULSE_CACHE_DIR", nullptr);
        ExecutionService service(rig.backend, rig.sim);
        EXPECT_EQ(service.artifactStore(), nullptr);
        EXPECT_TRUE(service.flushPersistence().ok());
    }
    TempDir dir;
    EnvGuard guard("QPULSE_CACHE_DIR", dir.str().c_str());
    ExecutionService service(rig.backend, rig.sim);
    ASSERT_NE(service.artifactStore(), nullptr);

    ASSERT_TRUE(service.submit(rxCircuitJob()).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].status.ok())
        << outcomes[0].status.toString();
    // drain() flushed: the store holds the compiled schedule.
    EXPECT_EQ(service.artifactStore()->stats().puts, 1u);
    EXPECT_EQ(service.artifactStore()->size(), 1u);

    // A second service ("new process") over the same directory serves
    // the compiled schedule from disk and runs the same counts.
    ExecutionService second(rig.backend, rig.sim);
    ASSERT_TRUE(second.submit(rxCircuitJob()).ok());
    const std::vector<JobOutcome> again = second.drain();
    ASSERT_EQ(again.size(), 1u);
    EXPECT_TRUE(again[0].status.ok());
    EXPECT_EQ(second.compileCache()->stats().persistHits, 1u);
    EXPECT_EQ(second.compileCache()->stats().misses, 0u);
    EXPECT_EQ(again[0].execution.result.counts,
              outcomes[0].execution.result.counts);
}

TEST(ServicePersistence, WatchdogRecalibrationBumpsGeneration)
{
    TempDir dir;
    EnvGuard guard("QPULSE_CACHE_DIR", dir.str().c_str());
    const Rig rig;

    ServicePolicy policy;
    policy.watchdog.tolerance = 0.1;
    policy.watchdog.maxRecalibrations = 2;
    ExecutionService service(rig.backend, rig.sim, policy);
    ASSERT_NE(service.artifactStore(), nullptr);
    const std::uint64_t gen0 = service.pool().compileGeneration("default");

    FaultPlan plan;
    plan.driftRate = 1.0;
    plan.driftFreqKhz = 8000.0;
    plan.driftAmpError = 0.3;
    service.pool().setFaultInjector(
        "default", std::make_shared<FaultInjector>(plan));

    ASSERT_TRUE(service.submit(x180Job(rig, /*shots=*/512)).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].status.ok())
        << outcomes[0].status.toString();
    EXPECT_EQ(outcomes[0].execution.stats.recalibrations, 1);
    // The pool counted the recalibration and retired the generation.
    EXPECT_NE(service.pool().compileGeneration("default"), gen0);
    EXPECT_EQ(service.pool().stats().recalibrations, 1);
}

TEST(FleetPersistence, DrainReadmitInvalidatesPerMember)
{
    TempDir dir;
    const Rig rig;
    auto store = store::ArtifactStore::open(dir.str(), 64 << 20);
    ASSERT_NE(store, nullptr);
    QuantumCircuit circuit(1);
    circuit.rx(0.7, 0);

    // Populate: b0 compiles the circuit and the pool flushes it.
    {
        BackendPool::Policies policies;
        policies.artifactStore = store;
        BackendPool pool(policies);
        pool.addBackend("b0", rig.backend, rig.sim);
        (void)pool.compiler("b0").compile(circuit);
        ASSERT_TRUE(pool.flushPersistence().ok());
    }
    const std::size_t persisted = store->size();
    ASSERT_EQ(persisted, 1u);

    // A cold pool over the same store serves b0 from disk. Its two
    // members share a calibration, hence a compile generation.
    BackendPool::Policies policies;
    policies.artifactStore = store;
    BackendPool pool(policies);
    pool.addBackend("b0", rig.backend, rig.sim);
    pool.addBackend("b1", rig.backend, rig.sim);
    EXPECT_EQ(pool.compileGeneration("b0"), pool.compileGeneration("b1"));
    (void)pool.compiler("b0").compile(circuit);
    EXPECT_EQ(pool.compileCache()->stats().persistHits, 1u);

    // Drain/readmit recalibrates b0 alone: its generation moves and
    // b1's does not. The bump itself writes and flushes nothing.
    const std::uint64_t gen_b0 = pool.compileGeneration("b0");
    const std::uint64_t gen_b1 = pool.compileGeneration("b1");
    const std::uint64_t flushes_before = store->stats().flushes;
    ASSERT_TRUE(pool.beginDrain("b0").ok());
    ASSERT_TRUE(pool.readmit("b0").ok());
    EXPECT_EQ(store->stats().flushes, flushes_before);
    EXPECT_NE(pool.compileGeneration("b0"), gen_b0);
    EXPECT_EQ(pool.compileGeneration("b1"), gen_b1);

    // b0's disk record is unreachable now: it recompiles and persists
    // under its new generation, while b1 is still served.
    const CompileCacheStats before = pool.compileCache()->stats();
    (void)pool.compiler("b0").compile(circuit);
    (void)pool.compiler("b1").compile(circuit);
    const CompileCacheStats after = pool.compileCache()->stats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.persistHits, before.persistHits);
    ASSERT_TRUE(pool.flushPersistence().ok());
    EXPECT_EQ(store->size(), persisted + 1);
}

TEST(FleetPersistence, EnvGatedFleetServiceRoundTrips)
{
    TempDir dir;
    EnvGuard guard("QPULSE_CACHE_DIR", dir.str().c_str());
    const Rig rig;

    auto pool = std::make_shared<BackendPool>();
    pool->addBackend("b0", rig.backend, rig.sim);
    ASSERT_NE(pool->artifactStore(), nullptr);
    ExecutionService service(pool);
    ASSERT_NE(service.artifactStore(), nullptr);

    ASSERT_TRUE(service.submit(rxCircuitJob()).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].status.ok())
        << outcomes[0].status.toString();
    // drain() flushed the compiled schedule through the pool.
    EXPECT_EQ(pool->artifactStore()->size(), 1u);
}

} // namespace
} // namespace qpulse
