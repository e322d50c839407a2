#include "store/persistent_propagator_cache.h"

#include "common/logging.h"
#include "store/serde.h"
#include "telemetry/metrics.h"

namespace qpulse {
namespace store {

namespace {

telemetry::Counter &
persistCounter(const char *name)
{
    return telemetry::MetricsRegistry::global().counter(name);
}

} // namespace

PersistentPropagatorCache::PersistentPropagatorCache(
    std::shared_ptr<ArtifactStore> store, std::uint64_t generation,
    std::uint64_t config_fingerprint, std::size_t capacity)
    : PropagatorCache(capacity), store_(std::move(store)),
      configFingerprint_(config_fingerprint), generation_(generation)
{
    qpulseRequire(store_ != nullptr,
                  "PersistentPropagatorCache needs a store; use a "
                  "plain PropagatorCache when persistence is off");
}

PersistentPropagatorCache::~PersistentPropagatorCache()
{
    try {
        flush();
    } catch (...) {
        // Destructors never throw; a failed final flush only costs
        // re-derivation next time.
    }
}

ArtifactKey
PersistentPropagatorCache::diskKey(const PropagatorKey &key) const
{
    // Caller holds persistMutex_ (generation_).
    ArtifactKey disk;
    disk.contentHash = hashBytes(
        key.words.data(), key.words.size() * sizeof(std::int64_t));
    disk.generation = generation_;
    disk.configFingerprint = configFingerprint_;
    disk.kind =
        static_cast<std::uint32_t>(ArtifactKind::PropagatorBlock);
    return disk;
}

bool
PersistentPropagatorCache::loadFromDisk(const PropagatorKey &key,
                                        Matrix &out)
{
    static telemetry::Counter &c_diskHits =
        persistCounter("cache.persist.disk_hits");
    static telemetry::Counter &c_diskMisses =
        persistCounter("cache.persist.disk_misses");
    static telemetry::Counter &c_fallbacks =
        persistCounter("cache.persist.fallbacks");

    ArtifactKey disk;
    {
        std::lock_guard<std::mutex> lock(persistMutex_);
        disk = diskKey(key);
    }
    // The view pins its segment mapping, so deserializing below — with
    // no store lock held — is safe against a concurrent flush whose
    // size budget drops (and would otherwise munmap) the segment.
    ArtifactView view;
    const Status status = store_->get(disk, view);
    if (!status.ok()) {
        std::lock_guard<std::mutex> lock(persistMutex_);
        if (status.code() == ErrorCode::StoreCorrupt ||
            status.code() == ErrorCode::StoreVersionMismatch) {
            // Fail closed: the record exists but cannot be trusted.
            ++persistStats_.fallbacks;
            c_fallbacks.increment();
        }
        ++persistStats_.diskMisses;
        c_diskMisses.increment();
        return false;
    }

    // Payload: full key words echo + matrix. The word-for-word key
    // comparison guards 64-bit content-hash collisions — a propagator
    // derived from *different* drive values must never be served.
    ByteReader r(view.data, view.size);
    PropagatorKey stored;
    Matrix value;
    if (!deserializePropagatorKey(r, stored).ok() ||
        !deserializeMatrix(r, value).ok()) {
        std::lock_guard<std::mutex> lock(persistMutex_);
        ++persistStats_.fallbacks;
        c_fallbacks.increment();
        ++persistStats_.diskMisses;
        c_diskMisses.increment();
        return false;
    }
    if (!(stored == key)) {
        std::lock_guard<std::mutex> lock(persistMutex_);
        ++persistStats_.collisions;
        ++persistStats_.diskMisses;
        c_diskMisses.increment();
        return false;
    }
    out = std::move(value);
    {
        std::lock_guard<std::mutex> lock(persistMutex_);
        ++persistStats_.diskHits;
    }
    c_diskHits.increment();
    return true;
}

void
PersistentPropagatorCache::queueWriteBack(const PropagatorKey &key,
                                          const Matrix &value)
{
    static telemetry::Counter &c_writeBacks =
        persistCounter("cache.persist.write_backs");

    ByteWriter w;
    serializePropagatorKey(key, w);
    serializeMatrix(value, w);
    ArtifactKey disk;
    bool flushDue = false;
    {
        std::lock_guard<std::mutex> lock(persistMutex_);
        disk = diskKey(key);
        ++persistStats_.writeBacks;
        flushDue = ++putsSinceFlush_ >= kAutoFlushEntries;
    }
    c_writeBacks.increment();
    // Straight into the store's pending buffer, with no cache lock
    // held (the store's mutex is a leaf lock of its own).
    if (store_->put(disk, w.bytes()).ok() && flushDue)
        (void)flush();
}

void
PersistentPropagatorCache::getOrComputeInto(
    const PropagatorKey &key, const std::function<Matrix()> &compute,
    Matrix &out)
{
    // The base class handles the memory tier and runs this factory
    // with its LRU mutex released (the lock-order contract).
    PropagatorCache::getOrComputeInto(
        key,
        [&]() -> Matrix {
            Matrix value;
            if (loadFromDisk(key, value))
                return value;
            value = compute();
            queueWriteBack(key, value);
            return value;
        },
        out);
}

Status
PersistentPropagatorCache::flush()
{
    {
        std::lock_guard<std::mutex> lock(persistMutex_);
        putsSinceFlush_ = 0;
    }
    return store_->flush();
}

void
PersistentPropagatorCache::setGeneration(std::uint64_t generation)
{
    {
        std::lock_guard<std::mutex> lock(persistMutex_);
        if (generation_ == generation)
            return;
        generation_ = generation;
    }
    // Memory tier holds old-basis values; drop them (base leaf lock,
    // taken after persistMutex_ is released — never nested).
    clear();
}

std::uint64_t
PersistentPropagatorCache::generation() const
{
    std::lock_guard<std::mutex> lock(persistMutex_);
    return generation_;
}

PersistStats
PersistentPropagatorCache::persistStats() const
{
    std::lock_guard<std::mutex> lock(persistMutex_);
    return persistStats_;
}

} // namespace store
} // namespace qpulse
