/**
 * @file
 * PersistentPropagatorCache: the disk tier under the in-memory
 * PropagatorCache (docs/PERSISTENCE.md).
 *
 * Lookup order per key: memory hit (base LRU) -> disk hit (validated
 * record in the ArtifactStore, deserialized straight out of the mmap)
 * -> derive via the caller's factory and enqueue the result for
 * write-back. flush() drains the write-back queue into the store; the
 * queue also auto-flushes once it crosses kAutoFlushEntries so a
 * long-running service persists progress without being asked.
 *
 * Every disk read is defended: the record checksum and key echo are
 * verified by the store, and the deserialized key words are compared
 * against the requested key here, so a 64-bit content-hash collision
 * (or any corruption that slips framing) falls back to derivation
 * rather than serving a wrong propagator. Corrupt and
 * version-mismatched records fail closed with their structured Status
 * and are quarantined by the store.
 *
 * Invalidation: setGeneration(g) — called on recalibration (single
 * backend) and fleet drain/readmit — clears the memory tier, drops
 * queued write-backs (they belong to the dying generation) and
 * reroutes every subsequent disk key, making all old-generation
 * artifacts unreachable without deleting a byte in place.
 *
 * Lock order (the contract documented in propagator_cache.h): the
 * base LRU mutex and `persistMutex_` are both leaf locks. The factory
 * passed to the base class runs with the LRU mutex *released* and may
 * take `persistMutex_` to enqueue; flush() swaps the queue out under
 * `persistMutex_` and talks to the store (its own leaf mutex) with no
 * cache lock held. Combined snapshots acquire the two locks strictly
 * sequentially — LRU first, then persist — never nested.
 */
#ifndef QPULSE_STORE_PERSISTENT_PROPAGATOR_CACHE_H
#define QPULSE_STORE_PERSISTENT_PROPAGATOR_CACHE_H

#include <memory>
#include <mutex>

#include "pulsesim/propagator_cache.h"
#include "store/artifact_store.h"

namespace qpulse {
namespace store {

/** Monotonic counters of the disk tier (mirrored to cache.persist.*). */
struct PersistStats
{
    std::uint64_t diskHits = 0;   ///< Served from a validated record.
    std::uint64_t diskMisses = 0; ///< Absent key: derived fresh.
    std::uint64_t writeBacks = 0; ///< Derivations queued for persist.
    std::uint64_t fallbacks = 0;  ///< Quarantined/corrupt record:
                                  ///< derived fresh (fail closed).
    std::uint64_t collisions = 0; ///< Key-word mismatch on a record
                                  ///< whose address matched.
};

class PersistentPropagatorCache : public PropagatorCache
{
  public:
    /**
     * @param store       Shared artifact store (non-null).
     * @param generation  Calibration/basis generation key component.
     * @param config_fingerprint  simConfigFingerprint of the model
     *        the propagators are derived under.
     */
    PersistentPropagatorCache(std::shared_ptr<ArtifactStore> store,
                              std::uint64_t generation,
                              std::uint64_t config_fingerprint,
                              std::size_t capacity = kDefaultCapacity);

    /** Flushes pending write-backs (best effort, never throws). */
    ~PersistentPropagatorCache() override;

    /** Queue length at which derive paths trigger an inline flush. */
    static constexpr std::size_t kAutoFlushEntries = 256;

    void getOrComputeInto(const PropagatorKey &key,
                          const std::function<Matrix()> &compute,
                          Matrix &out) override;

    /** Drain the write-back queue into the store and flush it. */
    Status flush();

    /**
     * Recalibration invalidation: clear the memory tier, drop queued
     * write-backs, and address all subsequent disk traffic under the
     * new generation. Old-generation records stay on disk, unreachable.
     */
    void setGeneration(std::uint64_t generation);

    std::uint64_t generation() const;

    /** Snapshot of the disk-tier counters. */
    PersistStats persistStats() const;

    /**
     * Combined read-and-clear of base + disk-tier counters under the
     * documented lock order (LRU mutex, then persist mutex, strictly
     * sequential).
     */
    std::pair<PropagatorCacheStats, PersistStats>
    snapshotAndResetAll();

    const std::shared_ptr<ArtifactStore> &artifactStore() const
    {
        return store_;
    }

  private:
    /** Disk probe; returns true and fills `out` on a validated hit. */
    bool loadFromDisk(const PropagatorKey &key, Matrix &out);
    /** Enqueue a derived value; may trigger an inline auto-flush. */
    void queueWriteBack(const PropagatorKey &key, const Matrix &value);
    ArtifactKey diskKey(const PropagatorKey &key) const;

    std::shared_ptr<ArtifactStore> store_;
    std::uint64_t configFingerprint_ = 0;

    // persistMutex_ guards everything below (leaf lock; see file
    // comment for the order contract).
    mutable std::mutex persistMutex_;
    std::uint64_t generation_ = 0;
    struct QueuedRecord
    {
        ArtifactKey key;
        std::vector<std::uint8_t> payload;
    };
    std::vector<QueuedRecord> queue_;
    PersistStats persistStats_;
};

} // namespace store
} // namespace qpulse

#endif // QPULSE_STORE_PERSISTENT_PROPAGATOR_CACHE_H
