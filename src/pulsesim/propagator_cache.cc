#include "pulsesim/propagator_cache.h"

#include "common/logging.h"
#include "telemetry/metrics.h"

namespace qpulse {

namespace {

/**
 * Every cache instance — per-call locals, caller-owned cross-shot
 * caches, the RB batch cache — also reports into the one global
 * metrics sink, so the registry view of hit traffic is complete
 * without consumers having to absorb per-instance stats themselves.
 */
telemetry::Counter &
cacheCounter(const char *name)
{
    return telemetry::MetricsRegistry::global().counter(name);
}

} // namespace

PropagatorCache::PropagatorCache(std::size_t capacity)
    : capacity_(capacity)
{
    qpulseRequire(capacity_ >= 1,
                  "PropagatorCache capacity must be >= 1");
}

void
PropagatorCache::getOrComputeInto(const PropagatorKey &key,
                                  const std::function<Matrix()> &compute,
                                  Matrix &out)
{
    static telemetry::Counter &c_hits =
        cacheCounter("pulsesim.cache.hits");
    static telemetry::Counter &c_misses =
        cacheCounter("pulsesim.cache.misses");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(key);
        if (it != index_.end()) {
            ++stats_.hits;
            c_hits.increment();
            lru_.splice(lru_.begin(), lru_, it->second);
            out = it->second->value;
            return;
        }
        ++stats_.misses;
        c_misses.increment();
    }

    // Compute outside the lock so concurrent shots never serialize on
    // the derivation. Two threads may race to compute the same
    // key; both results are identical and the second insert is a no-op.
    out = compute();

    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.find(key) == index_.end()) {
        lru_.push_front(Entry{key, out});
        index_[key] = lru_.begin();
        if (index_.size() > capacity_) {
            ++stats_.evictions;
            static telemetry::Counter &c_evictions =
                cacheCounter("pulsesim.cache.evictions");
            c_evictions.increment();
            index_.erase(lru_.back().key);
            lru_.pop_back();
        }
    }
}

void
PropagatorCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
}

std::size_t
PropagatorCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
}

PropagatorCacheStats
PropagatorCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace qpulse
