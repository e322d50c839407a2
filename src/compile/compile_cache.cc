#include "compile/compile_cache.h"

#include <cmath>
#include <utility>

#include "telemetry/metrics.h"

namespace qpulse {

namespace {

/**
 * Bumped whenever the pass pipeline's observable behavior changes in a
 * way the TranspilerTarget does not capture (new pass, reordered
 * pipeline): old persisted schedules must stop being addressable.
 */
constexpr std::uint32_t kPassPipelineVersion = 1;

telemetry::Counter &
cacheCounter(const char *name)
{
    return telemetry::MetricsRegistry::global().counter(name);
}

} // namespace

std::size_t
CompileKeyHash::operator()(const CompileKey &key) const
{
    std::uint64_t h = store::mixHash(key.circuitFingerprint, key.mode);
    h = store::mixHash(h, key.calibrationGeneration);
    h = store::mixHash(h, key.passConfigFingerprint);
    return static_cast<std::size_t>(h);
}

std::uint64_t
circuitFingerprint(const QuantumCircuit &circuit,
                   const BackendConfig &config)
{
    store::ByteWriter w;
    w.u64(circuit.numQubits());
    w.u64(circuit.gates().size());
    for (const Gate &gate : circuit.gates()) {
        w.u32(static_cast<std::uint32_t>(gate.type));
        w.u64(gate.qubits.size());
        for (std::size_t q : gate.qubits)
            w.u64(q);
        w.u64(gate.params.size());
        // Angles quantized like PropagatorKey words: two parameters
        // within half a kDriveQuantum fingerprint equal (and differ by
        // far less than any downstream tolerance); any larger change
        // reroutes the key.
        for (double p : gate.params)
            w.i64(std::llround(p / kDriveQuantum));
    }
    // The routing/coupling topology the transpiler schedules against:
    // the same gate list on a different coupling map compiles to a
    // different schedule.
    w.u64(config.numQubits);
    w.u64(config.couplings.size());
    for (const CouplingEdge &edge : config.couplings) {
        w.u64(edge.control);
        w.u64(edge.target);
    }
    return store::hashBytes(w.bytes().data(), w.size());
}

std::uint64_t
passConfigFingerprint(const TranspilerTarget &target, CompileMode mode)
{
    store::ByteWriter w;
    w.u32(kPassPipelineVersion);
    w.u32(static_cast<std::uint32_t>(mode));
    w.u8(target.augmented ? 1 : 0);
    w.u64(target.edges.size());
    for (const auto &edge : target.edges) {
        w.u64(edge.first);
        w.u64(edge.second);
    }
    return store::hashBytes(w.bytes().data(), w.size());
}

std::uint64_t
calibrationGeneration(const PulseLibrary &library, std::uint64_t epoch)
{
    return store::mixHash(store::hashPulseLibrary(library), epoch);
}

// ------------------------------------------------------------------
// CompiledSchedule record payload
// ------------------------------------------------------------------

void
serializeCompileResult(const CompileKey &key, const CompileResult &result,
                       store::ByteWriter &w)
{
    w.u32(store::kFormatVersion);
    w.u64(key.circuitFingerprint);
    w.u32(key.mode);
    w.u64(key.calibrationGeneration);
    w.u64(key.passConfigFingerprint);
    store::serializeCircuit(result.basisCircuit, w);
    store::serializeScheduleRle(result.schedule, w);
    w.i64(result.durationDt);
    w.u64(result.pulseCount);
    w.u64(result.frameChangeCount);
    w.u32(static_cast<std::uint32_t>(result.mode));
    w.u8(result.validation.ok() ? 1 : 0);
    // Scan sidecar: the memoized per-waveform validation scans, in
    // instruction order. Seeding these into the decoded waveforms lets
    // a disk hit re-validate in O(instructions) instead of re-scanning
    // every sample — which would otherwise dominate the served path.
    // The scans are already memoized here (compile() validated this
    // schedule), so serialization costs no extra sample pass.
    std::uint64_t scanned = 0;
    for (const auto &inst : result.schedule.instructions())
        if (inst.kind == PulseInstructionKind::Play &&
            inst.waveform != nullptr)
            ++scanned;
    w.u64(scanned);
    for (const auto &inst : result.schedule.instructions()) {
        if (inst.kind != PulseInstructionKind::Play ||
            inst.waveform == nullptr)
            continue;
        const WaveformScan &scan = inst.waveform->sampleScan();
        w.f64(scan.peak);
        w.i64(static_cast<std::int64_t>(scan.firstNonFinite));
    }
}

Status
deserializeCompileResult(store::ByteReader &r,
                         const CompileKey &expected_key,
                         CompileResult &out)
{
    std::uint32_t version = 0;
    if (Status s = r.u32(version); !s.ok())
        return s;
    if (version != store::kFormatVersion)
        return Status::error(ErrorCode::StoreVersionMismatch,
                             "compiled schedule payload version " +
                                 std::to_string(version));
    CompileKey echo;
    if (Status s = r.u64(echo.circuitFingerprint); !s.ok())
        return s;
    if (Status s = r.u32(echo.mode); !s.ok())
        return s;
    if (Status s = r.u64(echo.calibrationGeneration); !s.ok())
        return s;
    if (Status s = r.u64(echo.passConfigFingerprint); !s.ok())
        return s;
    if (!(echo == expected_key))
        return Status::error(ErrorCode::StoreCorrupt,
                             "compiled schedule key echo mismatch "
                             "(hash collision or mis-keyed record)");
    if (Status s = store::deserializeCircuit(r, out.basisCircuit);
        !s.ok())
        return s;
    if (Status s = store::deserializeScheduleRle(r, out.schedule);
        !s.ok())
        return s;
    std::int64_t duration = 0;
    if (Status s = r.i64(duration); !s.ok())
        return s;
    out.durationDt = static_cast<long>(duration);
    std::uint64_t count = 0;
    if (Status s = r.u64(count); !s.ok())
        return s;
    out.pulseCount = static_cast<std::size_t>(count);
    if (Status s = r.u64(count); !s.ok())
        return s;
    out.frameChangeCount = static_cast<std::size_t>(count);
    std::uint32_t mode = 0;
    if (Status s = r.u32(mode); !s.ok())
        return s;
    if (mode > static_cast<std::uint32_t>(CompileMode::Optimized))
        return Status::error(ErrorCode::StoreCorrupt,
                             "unknown compile mode " +
                                 std::to_string(mode));
    out.mode = static_cast<CompileMode>(mode);
    std::uint8_t validationOk = 0;
    if (Status s = r.u8(validationOk); !s.ok())
        return s;
    // Only validation-Ok results are ever persisted; the flag is kept
    // in the payload for format stability. The consumer re-validates
    // against its current library regardless.
    out.validation = Status::okStatus();

    // Scan sidecar (see serializeCompileResult). The count must match
    // the waveform-carrying instructions that were just decoded; a
    // mismatch means a truncated or mis-spliced record.
    std::vector<const Waveform *> waveforms;
    for (const auto &inst : out.schedule.instructions())
        if (inst.kind == PulseInstructionKind::Play &&
            inst.waveform != nullptr)
            waveforms.push_back(inst.waveform.get());
    std::uint64_t scanned = 0;
    if (Status s = r.u64(scanned); !s.ok())
        return s;
    if (scanned != waveforms.size())
        return Status::error(ErrorCode::StoreCorrupt,
                             "scan sidecar covers " +
                                 std::to_string(scanned) +
                                 " waveforms, schedule has " +
                                 std::to_string(waveforms.size()));
    for (const Waveform *waveform : waveforms) {
        WaveformScan scan;
        if (Status s = r.f64(scan.peak); !s.ok())
            return s;
        std::int64_t first = -1;
        if (Status s = r.i64(first); !s.ok())
            return s;
        scan.firstNonFinite = static_cast<long>(first);
        waveform->seedSampleScan(scan);
    }
    return Status::okStatus();
}

store::ArtifactKey
compileArtifactKey(const CompileKey &key)
{
    store::ArtifactKey akey;
    akey.contentHash = key.circuitFingerprint;
    akey.generation = key.calibrationGeneration;
    akey.configFingerprint =
        store::mixHash(key.passConfigFingerprint, key.mode);
    akey.kind =
        static_cast<std::uint32_t>(store::ArtifactKind::CompiledSchedule);
    return akey;
}

// ------------------------------------------------------------------
// CompileCache
// ------------------------------------------------------------------

CompileCache::CompileCache(std::size_t capacity,
                           std::shared_ptr<store::ArtifactStore> store)
    : capacity_(capacity == 0 ? 1 : capacity), store_(std::move(store))
{}

CompileCache::~CompileCache()
{
    // Best effort: don't lose buffered write-backs on teardown.
    if (store_ != nullptr)
        (void)store_->flush();
}

bool
CompileCache::loadPersistent(const CompileKey &key, CompileResult &out)
{
    if (store_ == nullptr)
        return false;
    store::ArtifactView view;
    const Status get = store_->get(compileArtifactKey(key), view);
    if (!get.ok()) {
        // Quarantined (corrupt/foreign-version) records fall back to a
        // fresh compile — fail closed, never decode untrusted bytes.
        if (get.code() == ErrorCode::StoreCorrupt ||
            get.code() == ErrorCode::StoreVersionMismatch) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.persistFallbacks;
        }
        return false;
    }
    store::ByteReader r(view.data, view.size);
    if (!deserializeCompileResult(r, key, out).ok()) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.persistFallbacks;
        return false;
    }
    return true;
}

void
CompileCache::storePersistent(const CompileKey &key,
                              const CompileResult &result)
{
    if (store_ == nullptr)
        return;
    store::ByteWriter w;
    serializeCompileResult(key, result, w);
    if (!store_->put(compileArtifactKey(key), w.bytes()).ok())
        return;
    if (pendingPuts_.fetch_add(1, std::memory_order_acq_rel) + 1 >=
        kAutoFlushPuts) {
        pendingPuts_.store(0, std::memory_order_release);
        (void)store_->flush();
    }
}

CompileResult
CompileCache::getOrCompile(const CompileKey &key,
                           const std::function<CompileResult()> &compileFn,
                           bool *from_cache)
{
    static telemetry::Counter &c_hits =
        cacheCounter("compile.cache.hits");
    static telemetry::Counter &c_misses =
        cacheCounter("compile.cache.misses");
    static telemetry::Counter &c_persist_hits =
        cacheCounter("compile.cache.persist_hits");

    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++stats_.hits;
            c_hits.increment();
            if (from_cache != nullptr)
                *from_cache = true;
            return *it->second->result;
        }
    }

    // Miss: probe the persistent tier, else compile. Both run with
    // the LRU lock released (leaf-lock contract).
    std::shared_ptr<const CompileResult> result;
    CompileResult loaded{QuantumCircuit(1)};
    const bool persist_hit = loadPersistent(key, loaded);
    if (persist_hit)
        result = std::make_shared<const CompileResult>(std::move(loaded));
    else
        result = std::make_shared<const CompileResult>(compileFn());

    // Results that failed validation are served but never cached:
    // a miscalibrated cmd_def must keep failing loudly, not get
    // pinned into the cache.
    bool inserted = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (persist_hit)
            ++stats_.persistHits;
        else
            ++stats_.misses;
        // A concurrent miss of this key may have inserted first: keep
        // its entry, so the list and the index stay one-to-one.
        if (result->validation.ok() && index_.find(key) == index_.end()) {
            lru_.push_front(Entry{key, result});
            index_.emplace(key, lru_.begin());
            ++stats_.insertions;
            inserted = true;
            if (lru_.size() > capacity_) {
                index_.erase(lru_.back().key);
                lru_.pop_back();
                ++stats_.evictions;
            }
        }
    }
    if (persist_hit)
        c_persist_hits.increment();
    else
        c_misses.increment();
    if (!persist_hit && inserted)
        storePersistent(key, *result);
    if (from_cache != nullptr)
        *from_cache = persist_hit;
    return *result;
}

Status
CompileCache::flush()
{
    if (store_ == nullptr)
        return Status::okStatus();
    pendingPuts_.store(0, std::memory_order_release);
    return store_->flush();
}

void
CompileCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
}

std::size_t
CompileCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

CompileCacheStats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace qpulse
