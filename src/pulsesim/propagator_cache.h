/**
 * @file
 * Memoization of per-sample propagators exp(-i H dt) for the pulse
 * simulator hot path.
 *
 * The AWG emits piecewise-constant complex samples, so the per-sample
 * Hamiltonian — and therefore the per-sample propagator — is fully
 * determined by (a) the complex drive value landing on each transmon
 * and (b) the coupling-frame phase e^{i Delta t} when the model has an
 * exchange coupling. Long runs of identical samples (GaussianSquare
 * flat-tops, constant CR tones, idle stretches) and schedules repeated
 * across shots / RB sequences / ZNE stretch factors therefore recompute
 * the exact same matrix exponential over and over. This cache
 * quantizes those inputs into an integer key and memoizes the computed
 * propagator in a bounded, LRU-evicting hash map.
 *
 * Quantization uses an absolute quantum of kDriveQuantum (1e-13) per
 * real component, rounded with llround. Two samples that share a key
 * lie in one rounding bin, so they differ by less than one full
 * quantum per component, and a hit is served the propagator of
 * whichever sample missed first. A collided sample, one served a
 * propagator derived for a different drive, is therefore off by at
 * most ||dH|| * dt per step: about 7e-14 for a d = 3 transmon driven
 * at 0.25 GHz (docs/PERFORMANCE.md derives the bound). The errors add
 * once per collided sample, so a whole evolution is within
 * (collided samples) x (per-step bound). Samples that are
 * bit-identical (the common case) hit the cache with zero error.
 *
 * Thread safety: all methods are mutex-protected, so one cache can be
 * shared by concurrent shots drawing from the same schedule. The LRU
 * mutex is a leaf lock: getOrComputeInto releases it before invoking
 * the compute factory and re-acquires it only after the factory
 * returns, so a factory must never call back into the cache.
 */
#ifndef QPULSE_PULSESIM_PROPAGATOR_CACHE_H
#define QPULSE_PULSESIM_PROPAGATOR_CACHE_H

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "linalg/matrix.h"

namespace qpulse {

/** Absolute quantization step for one real drive component. */
inline constexpr double kDriveQuantum = 1e-13;

/**
 * Quantized identity of one per-sample Hamiltonian: two integers per
 * transmon (Re/Im of the summed drive) plus, for coupled models, two
 * for the coupling phase.
 */
struct PropagatorKey
{
    std::vector<std::int64_t> words;

    bool operator==(const PropagatorKey &other) const
    {
        return words == other.words;
    }
};

/** FNV-1a style hash over the key words. */
struct PropagatorKeyHash
{
    std::size_t operator()(const PropagatorKey &key) const
    {
        std::uint64_t h = 0xCBF29CE484222325ull;
        for (const std::int64_t word : key.words) {
            h ^= static_cast<std::uint64_t>(word);
            h *= 0x100000001B3ull;
        }
        return static_cast<std::size_t>(h);
    }
};

/** Aggregate hit/miss/eviction counters (monotonic). */
struct PropagatorCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    double hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/**
 * Bounded LRU map from PropagatorKey to the cached propagator matrix.
 *
 * Owned either internally by one evolve call (per-call memoization of
 * flat-tops) or by the caller and attached to a PulseSimulator, in
 * which case repeated execution of the same schedule — shots, stretch
 * sweeps, Clifford sequences — reuses every propagator after the first
 * pass.
 */
class PropagatorCache
{
  public:
    /** @param capacity Maximum resident entries before LRU eviction. */
    explicit PropagatorCache(std::size_t capacity = kDefaultCapacity);

    /** Default entry bound: ~4k 9x9 matrices is a few MiB. */
    static constexpr std::size_t kDefaultCapacity = 4096;

    /**
     * Look up `key`, computing and inserting via `compute` on a miss.
     * The cached (or freshly computed) value is copy-assigned into
     * `out`, reusing `out`'s backing store when its capacity suffices,
     * so every hit inside a warm evolve loop is heap-silent. The
     * factory runs with the lock released; it must not reenter the
     * cache.
     */
    void getOrComputeInto(const PropagatorKey &key,
                          const std::function<Matrix()> &compute,
                          Matrix &out);

    /** Drop every entry (counters are preserved). */
    void clear();

    /** Resident entry count. */
    std::size_t size() const;

    std::size_t capacity() const { return capacity_; }

    /** Snapshot of the hit/miss/eviction counters. */
    PropagatorCacheStats stats() const;

  private:
    struct Entry
    {
        PropagatorKey key;
        Matrix value;
    };
    using LruList = std::list<Entry>;

    std::size_t capacity_;
    LruList lru_; // Front = most recently used.
    std::unordered_map<PropagatorKey, LruList::iterator,
                       PropagatorKeyHash>
        index_;
    PropagatorCacheStats stats_;
    mutable std::mutex mutex_;
};

} // namespace qpulse

#endif // QPULSE_PULSESIM_PROPAGATOR_CACHE_H
