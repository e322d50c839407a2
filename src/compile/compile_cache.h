/**
 * @file
 * Two-tier memoized compile cache (docs/PERFORMANCE.md "Compile
 * path"). The paper's variational workloads recompile the same circuit
 * shape on every parameter update; a compile is a pure function of
 * (circuit, mode, calibration, pass configuration), so its result is
 * content-addressable exactly like a propagator block.
 *
 * Tier 1 is a bounded in-memory LRU of CompileResults. Tier 2 is the
 * persistent ArtifactStore (PR 8): a miss that finds a CompiledSchedule
 * record on disk decodes it instead of re-running the pass pipeline,
 * and a fresh compile writes its record back for the next process.
 *
 * Key derivation:
 *  - circuitFingerprint: canonical, platform-independent hash of the
 *    register width, the gate list (type, wires, parameters quantized
 *    at kDriveQuantum like PropagatorKey words), and the backend's
 *    coupling/routing topology;
 *  - CompileKey adds the compile mode, the calibration generation
 *    (content hash of the PulseLibrary mixed with the recalibration
 *    epoch), and the pass-configuration fingerprint.
 * Recalibration bumps the generation, so every schedule compiled under
 * the old calibration becomes unreachable — the same
 * invalidation-by-unreachability contract the ArtifactStore uses.
 *
 * A cache hit is NOT trusted blindly: PulseCompiler re-runs
 * validateSchedule against the *current* channel budget on every hit,
 * so a miscalibrated cmd_def (or a hash-colliding record) can never be
 * served stale. Results whose validation failed are never inserted.
 *
 * Lock order (the propagator_cache.h contract): the LRU mutex here is
 * a LEAF lock. The compile factory and all ArtifactStore calls (which
 * take the store's own leaf mutex) run with the LRU mutex released;
 * no code path holds both at once. Concurrent misses of one key each
 * run the pipeline; the first insert wins. No caller compiles one key
 * from two threads: the service dedups its drain batch by CompileKey
 * before the parallel precompile.
 */
#ifndef QPULSE_COMPILE_COMPILE_CACHE_H
#define QPULSE_COMPILE_COMPILE_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "compile/compiler.h"
#include "store/artifact_store.h"
#include "store/serde.h"

namespace qpulse {

/**
 * Content address of one compile: everything the result is a pure
 * function of.
 */
struct CompileKey
{
    std::uint64_t circuitFingerprint = 0;
    std::uint32_t mode = 0; ///< CompileMode.
    std::uint64_t calibrationGeneration = 0;
    std::uint64_t passConfigFingerprint = 0;

    bool operator==(const CompileKey &other) const
    {
        return circuitFingerprint == other.circuitFingerprint &&
               mode == other.mode &&
               calibrationGeneration == other.calibrationGeneration &&
               passConfigFingerprint == other.passConfigFingerprint;
    }
};

struct CompileKeyHash
{
    std::size_t operator()(const CompileKey &key) const;
};

/**
 * Canonical platform-independent fingerprint of a circuit as a compile
 * input: register width, gate list (parameters quantized at
 * kDriveQuantum, the PropagatorKey quantum) and the coupling topology
 * the router sees. Two circuits that fingerprint equal compile to the
 * same schedule under the same mode/calibration/pass configuration.
 */
std::uint64_t circuitFingerprint(const QuantumCircuit &circuit,
                                 const BackendConfig &config);

/**
 * Fingerprint of the transpiler pipeline configuration: pass-pipeline
 * version, mode, augmented-basis flag and the CR edge list the
 * template passes match against.
 */
std::uint64_t passConfigFingerprint(const TranspilerTarget &target,
                                    CompileMode mode);

/**
 * Calibration generation for compile keys: content hash of the pulse
 * library mixed with the recalibration epoch. Deliberately does NOT
 * mix in a backend/member name — fleet members sharing a calibration
 * share compiled schedules (the failover path re-serves the same
 * record instead of recompiling per hop).
 */
std::uint64_t calibrationGeneration(const PulseLibrary &library,
                                    std::uint64_t epoch);

/** Monotonic counters (mirrored into compile.cache.* telemetry). */
struct CompileCacheStats
{
    std::uint64_t hits = 0;        ///< In-memory LRU hits.
    std::uint64_t misses = 0;      ///< Fresh pass-pipeline runs.
    std::uint64_t persistHits = 0; ///< Served from a disk record.
    std::uint64_t persistFallbacks = 0; ///< Bad record -> recompiled.
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;

    double hitRate() const
    {
        const std::uint64_t total = hits + persistHits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits + persistHits) /
                                static_cast<double>(total);
    }
};

/**
 * Bounded LRU of CompileResults over an optional persistent tier.
 * Thread-safe; shareable across compilers (and fleet members — the
 * key carries the calibration generation, so two members only share
 * entries when their libraries actually match).
 */
class CompileCache
{
  public:
    /** Default entry bound: compile results are a few tens of KiB. */
    static constexpr std::size_t kDefaultCapacity = 256;

    /** Auto-flush the persistent tier after this many write-backs. */
    static constexpr std::size_t kAutoFlushPuts = 16;

    explicit CompileCache(
        std::size_t capacity = kDefaultCapacity,
        std::shared_ptr<store::ArtifactStore> store = nullptr);
    ~CompileCache();

    CompileCache(const CompileCache &) = delete;
    CompileCache &operator=(const CompileCache &) = delete;

    /**
     * Look up `key`; on a miss, probe the persistent tier, then run
     * `compileFn` (outside every cache lock) and insert + write back
     * the result when its validation passed. An insert that finds the
     * key already resident (a concurrent miss of the same key won)
     * keeps the resident entry. `from_cache` (optional) is set true
     * when the result did NOT come from this caller's own compileFn
     * run — memory or disk hit — i.e. exactly when the caller must
     * re-validate against its current library.
     */
    CompileResult
    getOrCompile(const CompileKey &key,
                 const std::function<CompileResult()> &compileFn,
                 bool *from_cache = nullptr);

    /** Flush buffered write-backs to disk (no-op without a store). */
    Status flush();

    /** Drop every memory-tier entry (counters preserved). */
    void clear();

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    bool hasStore() const { return store_ != nullptr; }
    const std::shared_ptr<store::ArtifactStore> &artifactStore() const
    {
        return store_;
    }

    CompileCacheStats stats() const;

  private:
    struct Entry
    {
        CompileKey key;
        std::shared_ptr<const CompileResult> result;
    };
    using LruList = std::list<Entry>;

    /** Disk probe (no LRU lock held). True -> `out` holds the record. */
    bool loadPersistent(const CompileKey &key, CompileResult &out);
    /** Serialize + buffer a write-back (no LRU lock held). */
    void storePersistent(const CompileKey &key,
                         const CompileResult &result);

    std::size_t capacity_;
    std::shared_ptr<store::ArtifactStore> store_;
    LruList lru_; // Front = most recently used.
    std::unordered_map<CompileKey, LruList::iterator, CompileKeyHash>
        index_;
    CompileCacheStats stats_;
    std::atomic<std::size_t> pendingPuts_{0};
    mutable std::mutex mutex_; ///< Leaf lock (see file comment).
};

/**
 * Serialize a CompileResult into a CompiledSchedule record payload /
 * decode one back. The payload leads with the format version and a
 * full CompileKey echo (collision guard), then the basis circuit, the
 * schedule (samples materialized), and the result metadata. Exposed
 * for tests and the CI corruption-fuzz gate.
 */
void serializeCompileResult(const CompileKey &key,
                            const CompileResult &result,
                            store::ByteWriter &w);
Status deserializeCompileResult(store::ByteReader &r,
                                const CompileKey &expected_key,
                                CompileResult &out);

/** ArtifactStore key a CompileKey persists under. */
store::ArtifactKey compileArtifactKey(const CompileKey &key);

} // namespace qpulse

#endif // QPULSE_COMPILE_COMPILE_CACHE_H
