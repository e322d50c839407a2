/**
 * @file
 * Tests for the two-tier memoized compile cache (src/compile,
 * docs/PERFORMANCE.md "Compile path"): CompileKey sensitivity to every
 * input a compile is a function of, hit-vs-fresh bit-identity,
 * generation invalidation through both recalibration paths (drift
 * watchdog and fleet drain/readmit), fail-closed fallback from corrupt
 * persisted records, concurrent compiles of one key, fleet failover
 * compiling through the shared cache, and the CRC-64 CLMUL fast path
 * the persistent tier leans on.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "compile/compile_cache.h"
#include "compile/compiler.h"
#include "device/calibration.h"
#include "device/fault_injector.h"
#include "linalg/simd.h"
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
               ("qpulse-compile-test-" + std::to_string(::getpid()) +
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

/** The paper's CR-pair workload: H-CX-H on a calibrated 2q line. */
QuantumCircuit
cnotWorkload()
{
    QuantumCircuit circuit(2);
    circuit.h(0);
    circuit.h(1);
    circuit.cx(0, 1);
    circuit.h(1);
    return circuit;
}

/** Everything two CompileResults must agree on bit-for-bit. */
struct ResultFingerprint
{
    std::uint64_t scheduleHash;
    long durationDt;
    std::size_t pulseCount;
    std::size_t frameChangeCount;

    bool operator==(const ResultFingerprint &other) const = default;
};

ResultFingerprint
fingerprintOf(const CompileResult &result)
{
    return ResultFingerprint{store::hashSchedule(result.schedule),
                             result.durationDt, result.pulseCount,
                             result.frameChangeCount};
}

// ------------------------------------------------------------------
// Key derivation.
// ------------------------------------------------------------------

TEST(CompileKey, SensitiveToEveryCompileInput)
{
    const BackendConfig config2 = almadenLineConfig(2);
    const BackendConfig config3 = almadenLineConfig(3);
    const auto backend = makeCalibratedBackend(config2);
    const QuantumCircuit base = cnotWorkload();

    // Gate-parameter change reroutes the circuit fingerprint.
    QuantumCircuit rotated(2);
    rotated.h(0);
    rotated.h(1);
    rotated.cx(0, 1);
    rotated.rz(0.25, 1);
    EXPECT_NE(circuitFingerprint(base, config2),
              circuitFingerprint(rotated, config2));

    // Topology change (2q line vs 3q line) reroutes it too: the
    // router sees a different coupling graph.
    EXPECT_NE(circuitFingerprint(base, config2),
              circuitFingerprint(base, config3));

    // Mode, generation and pass config each reroute the full key.
    PulseCompiler optimized(backend, CompileMode::Optimized);
    PulseCompiler standard(backend, CompileMode::Standard);
    const CompileKey opt_key = optimized.cacheKey(base);
    const CompileKey std_key = standard.cacheKey(base);
    EXPECT_FALSE(opt_key == std_key);
    EXPECT_NE(opt_key.mode, std_key.mode);
    EXPECT_NE(opt_key.passConfigFingerprint,
              std_key.passConfigFingerprint);

    PulseCompiler bumped(backend, CompileMode::Optimized);
    bumped.setCompileGeneration(calibrationGeneration(
        backend->library(), /*epoch=*/1));
    EXPECT_FALSE(optimized.cacheKey(base) == bumped.cacheKey(base));
    EXPECT_EQ(opt_key.circuitFingerprint,
              bumped.cacheKey(base).circuitFingerprint);
}

// ------------------------------------------------------------------
// Memory tier: hit identity and concurrent compiles.
// ------------------------------------------------------------------

TEST(CompileCacheMemory, HitIsBitIdenticalToFreshCompile)
{
    const auto backend =
        makeCalibratedBackend(almadenLineConfig(2));
    const QuantumCircuit circuit = cnotWorkload();

    PulseCompiler uncached(backend, CompileMode::Optimized);
    const CompileResult fresh = uncached.compile(circuit);
    ASSERT_TRUE(fresh.validation.ok());

    PulseCompiler cached(backend, CompileMode::Optimized);
    cached.setCompileCache(std::make_shared<CompileCache>(16));
    const CompileResult miss = cached.compile(circuit);
    const CompileResult hit = cached.compile(circuit);

    EXPECT_EQ(fingerprintOf(fresh), fingerprintOf(miss));
    EXPECT_EQ(fingerprintOf(fresh), fingerprintOf(hit));
    EXPECT_TRUE(hit.validation.ok());
    const CompileCacheStats stats = cached.compileCache()->stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(CompileCacheMemory, ConcurrentCompilesOfOneKeyAgree)
{
    const auto backend =
        makeCalibratedBackend(almadenLineConfig(2));
    const QuantumCircuit circuit = cnotWorkload();
    PulseCompiler compiler(backend, CompileMode::Optimized);
    const CompileKey key = compiler.cacheKey(circuit);

    CompileCache cache(16);
    std::atomic<int> factory_runs{0};
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<ResultFingerprint> prints(kThreads);
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&, i] {
            const CompileResult result = cache.getOrCompile(key, [&] {
                ++factory_runs;
                return compiler.compile(circuit);
            });
            prints[static_cast<std::size_t>(i)] =
                fingerprintOf(result);
        });
    for (std::thread &thread : threads)
        thread.join();

    // Each caller either hit the entry or ran the pipeline itself;
    // concurrent misses all insert one key, and the cache keeps one
    // entry for it.
    const CompileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(stats.misses,
              static_cast<std::uint64_t>(factory_runs.load()));
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(cache.size(), 1u);
    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(prints[0], prints[static_cast<std::size_t>(i)]);
}

// ------------------------------------------------------------------
// Persistent tier.
// ------------------------------------------------------------------

TEST(CompileCachePersist, FreshProcessServesFromDiskBitIdentically)
{
    TempDir dir;
    const auto backend =
        makeCalibratedBackend(almadenLineConfig(2));
    const QuantumCircuit circuit = cnotWorkload();

    ResultFingerprint first_print{};
    {
        auto store = store::ArtifactStore::open(dir.str(), 64 << 20);
        ASSERT_NE(store, nullptr);
        PulseCompiler compiler(backend, CompileMode::Optimized);
        compiler.setCompileCache(
            std::make_shared<CompileCache>(16, store));
        const CompileResult result = compiler.compile(circuit);
        ASSERT_TRUE(result.validation.ok());
        first_print = fingerprintOf(result);
        ASSERT_TRUE(compiler.compileCache()->flush().ok());
    }

    // "New process": cold memory tier over the same directory.
    auto store = store::ArtifactStore::open(dir.str(), 64 << 20);
    ASSERT_NE(store, nullptr);
    PulseCompiler compiler(backend, CompileMode::Optimized);
    auto cache = std::make_shared<CompileCache>(16, store);
    compiler.setCompileCache(cache);
    const CompileResult served = compiler.compile(circuit);
    EXPECT_TRUE(served.validation.ok());
    EXPECT_EQ(first_print, fingerprintOf(served));
    EXPECT_EQ(cache->stats().persistHits, 1u);
    EXPECT_EQ(cache->stats().misses, 0u);
}

TEST(CompileCachePersist, CorruptRecordFallsBackFailClosed)
{
    TempDir dir;
    const auto backend =
        makeCalibratedBackend(almadenLineConfig(2));
    const QuantumCircuit circuit = cnotWorkload();
    PulseCompiler compiler(backend, CompileMode::Optimized);
    const CompileKey key = compiler.cacheKey(circuit);

    // Plant a record whose store framing is valid (CRC passes) but
    // whose payload is garbage — the decoder, not the checksum, must
    // reject it.
    auto store = store::ArtifactStore::open(dir.str(), 64 << 20);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store
                    ->put(compileArtifactKey(key),
                          std::vector<std::uint8_t>(
                              {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}))
                    .ok());
    ASSERT_TRUE(store->flush().ok());

    auto cache = std::make_shared<CompileCache>(16, store);
    compiler.setCompileCache(cache);
    const CompileResult result = compiler.compile(circuit);
    // Fail closed: the bad record was discarded and a fresh compile
    // produced a valid result.
    EXPECT_TRUE(result.validation.ok());
    const CompileCacheStats stats = cache->stats();
    EXPECT_GE(stats.persistFallbacks, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.persistHits, 0u);
}

TEST(CompileCachePersist, RecordRoundTripGuardsKeyEcho)
{
    const auto backend =
        makeCalibratedBackend(almadenLineConfig(2));
    const QuantumCircuit circuit = cnotWorkload();
    PulseCompiler compiler(backend, CompileMode::Optimized);
    const CompileResult result = compiler.compile(circuit);
    const CompileKey key = compiler.cacheKey(circuit);

    store::ByteWriter writer;
    serializeCompileResult(key, result, writer);

    CompileResult decoded{QuantumCircuit(1)};
    store::ByteReader reader(writer.bytes().data(), writer.size());
    ASSERT_TRUE(deserializeCompileResult(reader, key, decoded).ok());
    EXPECT_EQ(fingerprintOf(result), fingerprintOf(decoded));

    // A hash-colliding record (key echo mismatch) must fail closed.
    CompileKey other = key;
    other.calibrationGeneration ^= 1;
    CompileResult rejected{QuantumCircuit(1)};
    store::ByteReader reader2(writer.bytes().data(), writer.size());
    const Status mismatch =
        deserializeCompileResult(reader2, other, rejected);
    EXPECT_EQ(mismatch.code(), ErrorCode::StoreCorrupt);
}

// ------------------------------------------------------------------
// Generation invalidation: both recalibration paths.
// ------------------------------------------------------------------

/** Calibrated single-qubit substrate for service/fleet tests. */
struct Rig
{
    Rig()
        : config(almadenLineConfig(1)),
          backend(makeCalibratedBackend(config)),
          calibrator(config), sim(calibrator.qubitModel(0))
    {}

    BackendConfig config;
    std::shared_ptr<const PulseBackend> backend;
    Calibrator calibrator;
    PulseSimulator sim;
};

JobRequest
circuitJob(long shots = 64)
{
    QuantumCircuit circuit(1);
    circuit.x(0);
    JobRequest request;
    request.circuit = circuit;
    request.key = "x-circuit";
    request.shots = shots;
    request.seed = 0xA11CE;
    return request;
}

TEST(CompileCacheService, WatchdogRecalibrationInvalidates)
{
    EnvGuard guard("QPULSE_CACHE_DIR", nullptr);
    const Rig rig;

    ServicePolicy policy;
    policy.watchdog.tolerance = 0.1;
    policy.watchdog.maxRecalibrations = 2;
    policy.maxThreads = 1;
    ExecutionService service(rig.backend, rig.sim, policy);
    ASSERT_NE(service.compileCache(), nullptr);
    const std::uint64_t gen0 = service.pool().compileGeneration("default");

    FaultPlan plan;
    plan.driftRate = 1.0;
    plan.driftFreqKhz = 8000.0;
    plan.driftAmpError = 0.3;
    service.pool().setFaultInjector(
        "default", std::make_shared<FaultInjector>(plan));

    ASSERT_TRUE(service.submit(circuitJob(/*shots=*/512)).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].status.ok())
        << outcomes[0].status.toString();
    ASSERT_EQ(outcomes[0].execution.stats.recalibrations, 1);

    // The watchdog recalibration advanced the compile generation, so
    // the same circuit misses (its old schedule is unreachable).
    EXPECT_NE(service.pool().compileGeneration("default"), gen0);
    const std::uint64_t misses_before =
        service.compileCache()->stats().misses;
    ASSERT_TRUE(service.submit(circuitJob()).ok());
    service.drain();
    EXPECT_GT(service.compileCache()->stats().misses, misses_before);
}

TEST(CompileCacheFleet, DrainReadmitInvalidatesPerMember)
{
    EnvGuard guard("QPULSE_CACHE_DIR", nullptr);
    const Rig rig;
    auto pool = std::make_shared<BackendPool>();
    pool->addBackend("b0", rig.backend, rig.sim);
    pool->addBackend("b1", rig.backend, rig.sim);

    // Identical libraries + epoch 0: both members share one compile
    // generation (by design — failover hops serve from cache).
    EXPECT_EQ(pool->compileGeneration("b0"),
              pool->compileGeneration("b1"));

    const std::uint64_t gen0 = pool->compileGeneration("b0");
    ASSERT_TRUE(pool->beginDrain("b0").ok());
    ASSERT_TRUE(pool->readmit("b0").ok());
    EXPECT_NE(pool->compileGeneration("b0"), gen0);
    EXPECT_EQ(pool->compileGeneration("b1"), gen0);

    // The recalibrated member misses; the untouched member still hits.
    QuantumCircuit circuit(1);
    circuit.x(0);
    (void)pool->compiler("b1").compile(circuit);
    const std::uint64_t misses1 = pool->compileCache()->stats().misses;
    (void)pool->compiler("b1").compile(circuit);
    EXPECT_EQ(pool->compileCache()->stats().misses, misses1);
    (void)pool->compiler("b0").compile(circuit);
    EXPECT_GT(pool->compileCache()->stats().misses, misses1);
}

// ------------------------------------------------------------------
// Fleet failover compiles through the shared cache.
// ------------------------------------------------------------------

TEST(CompileCacheFleet, FailoverHopCompilesAreCacheHits)
{
    EnvGuard guard("QPULSE_CACHE_DIR", nullptr);
    const Rig rig;
    auto pool = std::make_shared<BackendPool>();
    pool->addBackend("b0", rig.backend, rig.sim);
    pool->addBackend("b1", rig.backend, rig.sim);

    // Wedge b0 so the job fails over to b1.
    FaultPlan wedged;
    wedged.timeoutRate = 1.0; // Every attempt times out.
    pool->setFaultInjector(
        "b0", std::make_shared<FaultInjector>(wedged));

    ServicePolicy policy;
    policy.maxThreads = 1;
    policy.retry.maxAttempts = 2;
    ExecutionService service(pool, policy);

    ASSERT_TRUE(service.submit(circuitJob()).ok());
    const std::vector<JobOutcome> outcomes = service.drain();
    ASSERT_EQ(outcomes.size(), 1u);
    const JobOutcome &out = outcomes[0];
    EXPECT_TRUE(out.status.ok()) << out.status.toString();
    EXPECT_EQ(out.backend, "b1");
    ASSERT_EQ(out.path.size(), 2u);

    // Regression (the old behavior re-ran the pass pipeline per hop):
    // one precompile miss, then BOTH hop compiles — b0's and b1's —
    // hit the shared cache, because the members share a calibration
    // generation.
    const CompileCacheStats stats = pool->compileCache()->stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_GE(stats.hits, 2u);
}

// ------------------------------------------------------------------
// The CRC-64 fast path the persistent tier leans on.
// ------------------------------------------------------------------

TEST(Crc64, ClmulPathIsLiveAndMatchesTable)
{
    std::vector<std::uint8_t> buffer(4096);
    std::uint64_t lcg = 0x6A09E667F3BCC909ull;
    for (std::uint8_t &byte : buffer) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        byte = static_cast<std::uint8_t>(lcg >> 56);
    }

    // Differential: one whole-buffer CRC (CLMUL-eligible) must equal
    // the CRC chained through sub-64-byte pieces (table path only).
    const std::uint64_t whole =
        store::crc64(buffer.data(), buffer.size());
    std::uint64_t chained = 0;
    for (std::size_t pos = 0; pos < buffer.size(); pos += 13)
        chained = store::crc64(buffer.data() + pos,
                               std::min<std::size_t>(
                                   13, buffer.size() - pos),
                               chained);
    EXPECT_EQ(whole, chained);

    EXPECT_STREQ(store::crc64ActivePath(16), "table");
    if (kernels::pclmulSupported()) {
        // On capable hardware the fast path must actually be live for
        // large inputs — a silent fallback is a perf regression.
        EXPECT_STREQ(store::crc64ActivePath(4096), "clmul");
        // The QPULSE_SIMD escape hatch forces the table path.
        const kernels::SimdMode saved = kernels::activeSimd();
        kernels::setActiveSimd(kernels::SimdMode::Scalar);
        EXPECT_STREQ(store::crc64ActivePath(4096), "table");
        kernels::setActiveSimd(saved);
    }
}

} // namespace
} // namespace qpulse
