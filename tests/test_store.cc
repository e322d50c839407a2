/**
 * @file
 * Tests for the persistent content-addressed artifact store
 * (src/store, docs/PERSISTENCE.md): canonical little-endian serde
 * round-trips, store put/flush/get with cross-process reopen, the
 * generation invalidation model (single backend recalibration and
 * fleet drain/readmit), fail-closed corruption handling (bit flips,
 * truncation, zero fill, version mismatch, index damage), the
 * PersistentPropagatorCache disk tier under the simulator shot loop,
 * the documented lock-order contract under concurrent evolve +
 * snapshot + flush, and the QPULSE_CACHE_DIR env gate.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/constants.h"
#include "common/status.h"
#include "compile/compiler.h"
#include "device/calibration.h"
#include "device/fault_injector.h"
#include "pulsesim/simulator.h"
#include "service/backend_pool.h"
#include "service/execution_service.h"
#include "store/artifact_store.h"
#include "store/persistent_propagator_cache.h"
#include "store/serde.h"
#include "telemetry/metrics.h"

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
        store::ArtifactKind::PropagatorBlock);
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

TEST(Serde, MatrixRoundTripsBitIdentically)
{
    Matrix m(5, 3);
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            m(r, c) = Complex(0.1 * static_cast<double>(r) - 1.0 / 3.0,
                              -0.7 * static_cast<double>(c) + 1e-13);

    store::ByteWriter w;
    store::serializeMatrix(m, w);
    const std::vector<std::uint8_t> bytes = w.take();

    store::ByteReader r(bytes.data(), bytes.size());
    Matrix out;
    ASSERT_TRUE(store::deserializeMatrix(r, out).ok());
    ASSERT_EQ(out.rows(), m.rows());
    ASSERT_EQ(out.cols(), m.cols());
    for (std::size_t row = 0; row < m.rows(); ++row)
        for (std::size_t col = 0; col < m.cols(); ++col)
            EXPECT_EQ(out(row, col), m(row, col)); // Exact, not approx.

    // Truncated payload: structured corrupt, not a crash.
    store::ByteReader trunc(bytes.data(), bytes.size() - 5);
    Matrix bad;
    EXPECT_EQ(store::deserializeMatrix(trunc, bad).code(),
              ErrorCode::StoreCorrupt);
}

TEST(Serde, PropagatorKeyRoundTrips)
{
    PropagatorKey key;
    key.words = {1, -2, 1LL << 60, -(1LL << 60), 0};
    store::ByteWriter w;
    store::serializePropagatorKey(key, w);
    const std::vector<std::uint8_t> bytes = w.take();
    store::ByteReader r(bytes.data(), bytes.size());
    PropagatorKey out;
    ASSERT_TRUE(store::deserializePropagatorKey(r, out).ok());
    EXPECT_TRUE(out == key);
}

TEST(Serde, OverflowingDimensionsFailClosed)
{
    // rows*cols wraps u64 (2^33 * 2^33 = 2^66 = 0 mod 2^64): the
    // division-based guard must reject the shape before any
    // allocation or a rows()/cols()-vs-storage mismatch.
    store::ByteWriter w;
    w.u64(1ull << 33);
    w.u64(1ull << 33);
    w.f64(0.0); // A few payload bytes, far short of the claim.
    const std::vector<std::uint8_t> bytes = w.take();
    store::ByteReader r(bytes.data(), bytes.size());
    Matrix out;
    EXPECT_EQ(store::deserializeMatrix(r, out).code(),
              ErrorCode::StoreCorrupt);

    // A word count near 2^64 must not wrap the byte-total bound
    // inside the bulk array read either.
    store::ByteWriter kw;
    kw.u64(~0ull - 3);
    kw.u64(0);
    const std::vector<std::uint8_t> kb = kw.take();
    store::ByteReader kr(kb.data(), kb.size());
    PropagatorKey key;
    EXPECT_EQ(store::deserializePropagatorKey(kr, key).code(),
              ErrorCode::StoreCorrupt);
}

TEST(Serde, ScheduleRoundTripsAndHashIsContentSensitive)
{
    const BackendConfig config = almadenLineConfig(2);
    const auto backend = makeCalibratedBackend(config);
    Calibrator calibrator(config);
    const Schedule cnot =
        backend->schedule(makeGate(GateType::Cnot, {0, 1}));

    store::ByteWriter w;
    store::serializeSchedule(cnot, w);
    const std::vector<std::uint8_t> bytes = w.take();
    store::ByteReader r(bytes.data(), bytes.size());
    Schedule loaded;
    ASSERT_TRUE(store::deserializeSchedule(r, loaded).ok());

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

TEST(Serde, PulseLibraryRoundTrips)
{
    const BackendConfig config = almadenLineConfig(2);
    const auto backend = makeCalibratedBackend(config);
    const PulseLibrary &library = backend->library();

    store::ByteWriter w;
    store::serializePulseLibrary(library, w);
    const std::vector<std::uint8_t> bytes = w.take();
    store::ByteReader r(bytes.data(), bytes.size());
    PulseLibrary loaded;
    ASSERT_TRUE(store::deserializePulseLibrary(r, loaded).ok());

    EXPECT_EQ(loaded.config.name, library.config.name);
    EXPECT_EQ(loaded.qubits.size(), library.qubits.size());
    EXPECT_EQ(loaded.crs.size(), library.crs.size());
    EXPECT_EQ(store::hashPulseLibrary(loaded),
              store::hashPulseLibrary(library));
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

TEST(ArtifactStore, MissingIndexIsRebuiltByScan)
{
    TempDir dir;
    const store::ArtifactKey key = testKey();
    {
        auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put(key, {9, 9, 9}).ok());
        ASSERT_TRUE(store->flush().ok());
    }
    ASSERT_TRUE(fs::remove(dir.path / "index.qpi"));

    auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(store, nullptr);
    store::ArtifactView view;
    ASSERT_TRUE(store->get(key, view).ok());
    EXPECT_EQ(view.size, 3u);
}

TEST(ArtifactStore, CorruptIndexFallsBackToScan)
{
    TempDir dir;
    const store::ArtifactKey key = testKey();
    {
        auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
        ASSERT_NE(store, nullptr);
        ASSERT_TRUE(store->put(key, {5, 5}).ok());
        ASSERT_TRUE(store->flush().ok());
    }
    auto bytes = readFile(dir.path / "index.qpi");
    ASSERT_GT(bytes.size(), 10u);
    bytes[bytes.size() / 2] ^= 0xFF;
    writeFile(dir.path / "index.qpi", bytes);

    auto store = store::ArtifactStore::open(dir.str(), 1 << 20);
    ASSERT_NE(store, nullptr);
    store::ArtifactView view;
    ASSERT_TRUE(store->get(key, view).ok());
    EXPECT_EQ(view.size, 2u);
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
    // Drop the index so the reopen takes the segment-scan path (the
    // index path simply rejects the out-of-bounds entry).
    ASSERT_TRUE(fs::remove(dir.path / "index.qpi"));

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
    ASSERT_TRUE(fs::remove(dir.path / "index.qpi"));

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

    // A fresh open serves BOTH writers' records: same-sequence
    // segments must not alias in the index, and the writer that lost
    // the last-writer-wins index race is healed by segment scan.
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

TEST(ArtifactStore, EnvGateOffMeansNoStore)
{
    EnvGuard dir_guard("QPULSE_CACHE_DIR", nullptr);
    EXPECT_EQ(store::ArtifactStore::openFromEnv(), nullptr);

    EnvGuard empty_guard("QPULSE_CACHE_DIR", "");
    EXPECT_EQ(store::ArtifactStore::openFromEnv(), nullptr);
}

// ------------------------------------------------------------------
// PersistentPropagatorCache: disk tier under the shot loop.
// ------------------------------------------------------------------

TEST(PersistentCache, ColdProcessServesFromDiskBitIdentically)
{
    TempDir dir;
    const Rig rig;
    const Schedule schedule = rig.x180Schedule();
    const std::uint64_t generation = rig.sim.basisVersion();
    const std::uint64_t fingerprint =
        store::simConfigFingerprint(rig.sim);

    PulseShotOptions opts;
    opts.shots = 64;
    opts.seed = 0xC0FFEE;

    // Fresh derivation, no persistence: the reference result.
    const PulseShotResult fresh =
        rig.backend->runShots(rig.sim, schedule, opts);

    // "Process 1": derive, write back, flush, exit.
    {
        auto store = store::ArtifactStore::open(dir.str(), 64 << 20);
        ASSERT_NE(store, nullptr);
        auto cache =
            std::make_shared<store::PersistentPropagatorCache>(
                store, generation, fingerprint);
        opts.cache = cache;
        const PulseShotResult warm =
            rig.backend->runShots(rig.sim, schedule, opts);
        EXPECT_EQ(warm.counts, fresh.counts);
        const store::PersistStats stats = cache->persistStats();
        EXPECT_EQ(stats.diskHits, 0u);
        EXPECT_GT(stats.writeBacks, 0u);
        ASSERT_TRUE(cache->flush().ok());
        EXPECT_GT(store->stats().puts, 0u);
    }

    // "Process 2": a cold memory tier over the same directory must
    // serve from disk, bit-identical to fresh derivation.
    auto store = store::ArtifactStore::open(dir.str(), 64 << 20);
    ASSERT_NE(store, nullptr);
    auto cache = std::make_shared<store::PersistentPropagatorCache>(
        store, generation, fingerprint);
    opts.cache = cache;
    const PulseShotResult served =
        rig.backend->runShots(rig.sim, schedule, opts);
    const store::PersistStats stats = cache->persistStats();
    EXPECT_GT(stats.diskHits, 0u);
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_EQ(served.counts, fresh.counts);
    ASSERT_EQ(served.populations.size(), fresh.populations.size());
    for (std::size_t k = 0; k < fresh.populations.size(); ++k)
        EXPECT_LE(std::abs(served.populations[k] -
                           fresh.populations[k]),
                  1e-12);
}

TEST(PersistentCache, GenerationBumpMakesDiskRecordsUnreachable)
{
    TempDir dir;
    const Rig rig;
    const Schedule schedule = rig.x180Schedule();
    auto store = store::ArtifactStore::open(dir.str(), 64 << 20);
    ASSERT_NE(store, nullptr);
    auto cache = std::make_shared<store::PersistentPropagatorCache>(
        store, /*generation=*/1,
        store::simConfigFingerprint(rig.sim));

    PulseShotOptions opts;
    opts.shots = 32;
    opts.seed = 0xFEED;
    opts.cache = cache;

    (void)rig.backend->runShots(rig.sim, schedule, opts);
    ASSERT_TRUE(cache->flush().ok());
    const std::size_t persisted = store->size();
    ASSERT_GT(persisted, 0u);

    // Invalidate: the memory tier clears, the disk keys reroute.
    cache->setGeneration(2);
    EXPECT_EQ(cache->generation(), 2u);
    const store::PersistStats before = cache->persistStats();
    (void)rig.backend->runShots(rig.sim, schedule, opts);
    const store::PersistStats after = cache->persistStats();
    EXPECT_EQ(after.diskHits, before.diskHits); // Zero new disk hits.
    EXPECT_GT(after.writeBacks, before.writeBacks); // Re-derived.

    // The re-derivation repopulates the store under the new key.
    ASSERT_TRUE(cache->flush().ok());
    EXPECT_GT(store->size(), persisted);
}

TEST(PersistentCache, CorruptRecordsFallBackToDerivation)
{
    TempDir dir;
    const Rig rig;
    const Schedule schedule = rig.x180Schedule();
    const std::uint64_t generation = rig.sim.basisVersion();
    const std::uint64_t fingerprint =
        store::simConfigFingerprint(rig.sim);

    PulseShotOptions opts;
    opts.shots = 48;
    opts.seed = 0xBADC0DE;

    const PulseShotResult fresh =
        rig.backend->runShots(rig.sim, schedule, opts);

    {
        auto store = store::ArtifactStore::open(dir.str(), 64 << 20);
        ASSERT_NE(store, nullptr);
        auto cache =
            std::make_shared<store::PersistentPropagatorCache>(
                store, generation, fingerprint);
        opts.cache = cache;
        (void)rig.backend->runShots(rig.sim, schedule, opts);
        ASSERT_TRUE(cache->flush().ok());
    }

    // Flip a byte in the middle of every record's payload region.
    const fs::path segment = firstSegment(dir.str());
    auto bytes = readFile(segment);
    for (std::size_t off = 60; off < bytes.size(); off += 97)
        bytes[off] ^= 0x01;
    writeFile(segment, bytes);

    auto store = store::ArtifactStore::open(dir.str(), 64 << 20);
    ASSERT_NE(store, nullptr);
    auto cache = std::make_shared<store::PersistentPropagatorCache>(
        store, generation, fingerprint);
    opts.cache = cache;
    const PulseShotResult served =
        rig.backend->runShots(rig.sim, schedule, opts);

    // Whatever mix of quarantines and misses the flips produced, the
    // run must succeed, fall back on every damaged record, and agree
    // with fresh derivation bit-for-bit on the counts.
    const store::PersistStats stats = cache->persistStats();
    EXPECT_GT(stats.fallbacks + stats.diskMisses, 0u);
    EXPECT_EQ(served.counts, fresh.counts);
    ASSERT_EQ(served.populations.size(), fresh.populations.size());
    for (std::size_t k = 0; k < fresh.populations.size(); ++k)
        EXPECT_LE(std::abs(served.populations[k] -
                           fresh.populations[k]),
                  1e-12);
}

/**
 * Lock-order regression (run under TSan in CI): concurrent evolve
 * traffic through getOrComputeInto, a snapshot thread taking the
 * documented LRU-then-persist sequence, and a flush thread draining
 * the write-back queue. The contract in propagator_cache.h says both
 * mutexes are leaf locks — any nesting regression deadlocks or races
 * here.
 */
TEST(PersistentCache, ConcurrentEvolveSnapshotAndFlushAreClean)
{
    TempDir dir;
    auto store = store::ArtifactStore::open(dir.str(), 64 << 20);
    ASSERT_NE(store, nullptr);
    auto cache = std::make_shared<store::PersistentPropagatorCache>(
        store, /*generation=*/3, /*config_fingerprint=*/9,
        /*capacity=*/128);

    constexpr int kWorkers = 4;
    constexpr int kIterations = 400;
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t) {
        threads.emplace_back([&cache, t] {
            for (int i = 0; i < kIterations; ++i) {
                PropagatorKey key;
                key.words = {t, i % 64, (t * 7 + i) % 16};
                Matrix value;
                cache->getOrComputeInto(
                    key,
                    [&] {
                        Matrix m(2, 2);
                        m(0, 0) = Complex(t, i);
                        m(1, 1) = Complex(i, -t);
                        return m;
                    },
                    value);
                ASSERT_EQ(value.rows(), 2u);
            }
        });
    }
    threads.emplace_back([&cache] {
        for (int i = 0; i < 50; ++i)
            (void)cache->snapshotAndResetAll();
    });
    threads.emplace_back([&cache] {
        for (int i = 0; i < 50; ++i)
            (void)cache->flush();
    });
    for (std::thread &thread : threads)
        thread.join();
    ASSERT_TRUE(cache->flush().ok());
    EXPECT_GT(store->size(), 0u);
}

// ------------------------------------------------------------------
// Service and fleet wiring: env gate, invalidation on recalibration
// and drain/readmit.
// ------------------------------------------------------------------

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
        EXPECT_EQ(service.pool().persistentCache("default"), nullptr);
        EXPECT_EQ(service.artifactStore(), nullptr);
        EXPECT_TRUE(service.flushPersistence().ok());
    }
    TempDir dir;
    EnvGuard guard("QPULSE_CACHE_DIR", dir.str().c_str());
    ExecutionService service(rig.backend, rig.sim);
    ASSERT_NE(service.pool().persistentCache("default"), nullptr);
    ASSERT_NE(service.artifactStore(), nullptr);

    ASSERT_TRUE(service.submit(x180Job(rig)).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].status.ok())
        << outcomes[0].status.toString();
    // drain() flushed: the store holds the derived propagators.
    EXPECT_GT(service.artifactStore()->stats().puts, 0u);
    EXPECT_GT(service.artifactStore()->size(), 0u);

    // A second service ("new process") over the same directory serves
    // the same job from disk.
    ExecutionService second(rig.backend, rig.sim);
    const auto second_cache = second.pool().persistentCache("default");
    ASSERT_NE(second_cache, nullptr);
    ASSERT_TRUE(second.submit(x180Job(rig)).ok());
    const std::vector<JobOutcome> again = second.drain();
    ASSERT_EQ(again.size(), 1u);
    EXPECT_TRUE(again[0].status.ok());
    EXPECT_GT(second_cache->persistStats().diskHits, 0u);
    EXPECT_EQ(again[0].execution.result.counts,
              outcomes[0].execution.result.counts);
}

TEST(ServicePersistence, ReopenedStoreServesTheCleanBaselineToo)
{
    TempDir dir;
    EnvGuard guard("QPULSE_CACHE_DIR", dir.str().c_str());
    const Rig rig;
    JobRequest job;
    job.schedule = rig.backend->schedule(
        makeGate(GateType::DirectRx, {0}, {kPi / 2}));
    job.key = "direct_rx/q0";
    job.shots = 64;
    job.seed = 0xD1;

    std::vector<JobOutcome> outcomes;
    {
        ExecutionService first(rig.backend, rig.sim);
        ASSERT_TRUE(first.submit(job).ok());
        outcomes = first.drain();
    }
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].status.ok())
        << outcomes[0].status.toString();

    // A second service over the reopened store serves every
    // propagator of the job from disk: the executor's clean baseline
    // as well as runShots' warm-up and shots.
    const telemetry::Counter &eig_calls =
        telemetry::MetricsRegistry::global().counter("sim.eig.calls");
    ExecutionService second(rig.backend, rig.sim);
    const std::uint64_t start = eig_calls.value();
    ASSERT_TRUE(second.submit(job).ok());
    const std::vector<JobOutcome> again = second.drain();
    EXPECT_EQ(eig_calls.value() - start, 0u);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_TRUE(again[0].status.ok());
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
    const auto cache = service.pool().persistentCache("default");
    ASSERT_NE(cache, nullptr);
    const std::uint64_t gen0 = cache->generation();

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
    EXPECT_NE(cache->generation(), gen0);
    EXPECT_EQ(service.pool().stats().recalibrations, 1);
}

TEST(FleetPersistence, DrainReadmitInvalidatesPerMember)
{
    TempDir dir;
    const Rig rig;
    auto store = store::ArtifactStore::open(dir.str(), 64 << 20);
    ASSERT_NE(store, nullptr);

    BackendPool::Policies policies;
    policies.artifactStore = store;
    BackendPool pool(policies);
    pool.addBackend("b0", rig.backend, rig.sim);
    pool.addBackend("b1", rig.backend, rig.sim);
    const auto cache_b0 = pool.persistentCache("b0");
    const auto cache_b1 = pool.persistentCache("b1");
    ASSERT_NE(cache_b0, nullptr);
    ASSERT_NE(cache_b1, nullptr);
    // Per-member generations differ even for identical calibrations:
    // the member name is part of the key.
    EXPECT_NE(cache_b0->generation(), cache_b1->generation());

    ResilientRequest request;
    request.schedule = rig.x180Schedule();
    PulseShotOptions opts;
    opts.shots = 32;
    opts.seed = 0xF1EE7;

    // Populate b0's artifacts and flush.
    ASSERT_TRUE(pool.runOn("b0", request, opts).outcome.status.ok());
    ASSERT_TRUE(pool.flushPersistence().ok());
    const std::size_t persisted = store->size();
    ASSERT_GT(persisted, 0u);

    // A cold pool over the same store serves b0 from disk.
    BackendPool::Policies policies2;
    policies2.artifactStore = store;
    BackendPool second(policies2);
    second.addBackend("b0", rig.backend, rig.sim);
    ASSERT_TRUE(
        second.runOn("b0", request, opts).outcome.status.ok());
    EXPECT_GT(
        second.persistentCache("b0")->persistStats().diskHits, 0u);

    // Drain/readmit recalibrates: generation bumps, old disk records
    // become unreachable, re-derivation repopulates under a new key.
    const std::uint64_t gen_before =
        second.persistentCache("b0")->generation();
    ASSERT_TRUE(second.beginDrain("b0").ok());
    ASSERT_TRUE(second.readmit("b0").ok());
    EXPECT_NE(second.persistentCache("b0")->generation(), gen_before);

    const store::PersistStats before =
        second.persistentCache("b0")->persistStats();
    ASSERT_TRUE(
        second.runOn("b0", request, opts).outcome.status.ok());
    const store::PersistStats after =
        second.persistentCache("b0")->persistStats();
    EXPECT_EQ(after.diskHits, before.diskHits); // Disk hits at zero.
    EXPECT_GT(after.writeBacks, before.writeBacks);
    ASSERT_TRUE(second.flushPersistence().ok());
    EXPECT_GT(store->size(), persisted);
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

    JobRequest job = x180Job(rig);
    ASSERT_TRUE(service.submit(job).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].status.ok())
        << outcomes[0].status.toString();
    // drain() flushed through the pool.
    EXPECT_GT(pool->artifactStore()->size(), 0u);
}

} // namespace
} // namespace qpulse
