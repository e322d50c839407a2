/**
 * @file
 * PersistentPropagatorCache: the disk tier under the in-memory
 * PropagatorCache (docs/PERSISTENCE.md).
 *
 * Lookup order per key: memory hit (base LRU) -> disk hit (validated
 * record in the ArtifactStore, deserialized straight out of the mmap)
 * -> derive via the caller's factory and put the result into the
 * store's pending buffer (the one write-back buffer, shared with every
 * other writer of the store). flush() flushes the store; every
 * kAutoFlushEntries puts also flush it, so a long-running service
 * persists progress without being asked.
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
 * backend) and fleet drain/readmit — clears the memory tier and
 * reroutes every subsequent disk key, making all old-generation
 * artifacts unreachable without deleting a byte in place. Records of
 * the old generation still pending in the store land on disk at the
 * next flush, equally unreachable.
 *
 * Lock order (the contract documented in propagator_cache.h): the
 * base LRU mutex and `persistMutex_` are both leaf locks. The factory
 * passed to the base class runs with the LRU mutex *released* and
 * takes `persistMutex_` only for the disk key and the counters; every
 * store call (its own leaf mutex) happens with no cache lock held.
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
    std::uint64_t writeBacks = 0; ///< Derivations put to the store.
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

    /** Flushes the store (best effort, never throws). */
    ~PersistentPropagatorCache() override;

    /** Puts after which a derive path flushes the store inline. */
    static constexpr std::size_t kAutoFlushEntries = 256;

    void getOrComputeInto(const PropagatorKey &key,
                          const std::function<Matrix()> &compute,
                          Matrix &out) override;

    /** Flush the store: every write-back so far reaches disk. */
    Status flush();

    /**
     * Recalibration invalidation: clear the memory tier and address
     * all subsequent disk traffic under the new generation.
     * Old-generation records stay on disk, unreachable.
     */
    void setGeneration(std::uint64_t generation);

    std::uint64_t generation() const;

    /** Snapshot of the disk-tier counters. */
    PersistStats persistStats() const;

    const std::shared_ptr<ArtifactStore> &artifactStore() const
    {
        return store_;
    }

  private:
    /** Disk probe; returns true and fills `out` on a validated hit. */
    bool loadFromDisk(const PropagatorKey &key, Matrix &out);
    /** Put a derived value to the store; may auto-flush inline. */
    void queueWriteBack(const PropagatorKey &key, const Matrix &value);
    ArtifactKey diskKey(const PropagatorKey &key) const;

    std::shared_ptr<ArtifactStore> store_;
    std::uint64_t configFingerprint_ = 0;

    // persistMutex_ guards everything below (leaf lock; see file
    // comment for the order contract).
    mutable std::mutex persistMutex_;
    std::uint64_t generation_ = 0;
    std::size_t putsSinceFlush_ = 0;
    PersistStats persistStats_;
};

} // namespace store
} // namespace qpulse

#endif // QPULSE_STORE_PERSISTENT_PROPAGATOR_CACHE_H
