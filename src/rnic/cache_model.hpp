/**
 * @file
 * On-chip SRAM cache models for the RNIC: a random-replacement cache (used
 * for the WQE cache, whose realistic access pattern is cyclic) and an LRU
 * cache (used for the MTT/MPT and QP-context caches). Both count hits and
 * misses for Neo-Host-style reporting.
 */

#ifndef SMART_RNIC_CACHE_MODEL_HPP
#define SMART_RNIC_CACHE_MODEL_HPP

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace smart::rnic {

/**
 * Fixed-capacity cache with random replacement, keyed by 64-bit ids.
 *
 * Random replacement matters here: the WQE cache sees a roughly cyclic
 * reference stream (post .. post .. complete in order), for which LRU
 * degrades to 0% hits the moment the working set exceeds capacity, while
 * real RNICs degrade smoothly (paper Fig. 4). Random replacement yields the
 * observed ~capacity/working-set hit ratio.
 */
class RandomReplaceCache
{
  public:
    RandomReplaceCache(std::uint32_t capacity, std::uint64_t seed = 7)
        : capacity_(capacity), rng_(seed)
    {
        slots_.reserve(capacity);
    }

    /** Insert @p key, evicting a random victim if full. */
    void
    insert(std::uint64_t key)
    {
        if (index_.count(key))
            return;
        if (slots_.size() < capacity_) {
            index_[key] = slots_.size();
            slots_.push_back(key);
            return;
        }
        std::uint32_t victim =
            static_cast<std::uint32_t>(rng_.uniform(slots_.size()));
        index_.erase(slots_[victim]);
        slots_[victim] = key;
        index_[key] = victim;
    }

    /**
     * Look up and remove @p key (a completed WR leaves the cache).
     * @return true on hit.
     */
    bool
    lookupRemove(std::uint64_t key)
    {
        auto it = index_.find(key);
        if (it == index_.end()) {
            misses_.add();
            return false;
        }
        hits_.add();
        std::uint32_t pos = it->second;
        std::uint64_t last = slots_.back();
        slots_[pos] = last;
        index_[last] = pos;
        slots_.pop_back();
        index_.erase(it);
        return true;
    }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint32_t capacity() const { return capacity_; }
    std::size_t size() const { return slots_.size(); }

    /** @return hit ratio over the cache's lifetime (1.0 when untouched). */
    double
    hitRatio() const
    {
        std::uint64_t total = hits() + misses();
        return total ? static_cast<double>(hits()) / total : 1.0;
    }

  private:
    std::uint32_t capacity_;
    smart::sim::Rng rng_;
    std::vector<std::uint64_t> slots_;
    std::unordered_map<std::uint64_t, std::uint32_t> index_;
    smart::sim::Counter hits_;
    smart::sim::Counter misses_;
};

/** Fixed-capacity LRU cache keyed by 64-bit ids (MTT/MPT, QPC). */
class LruCache
{
  public:
    explicit LruCache(std::uint32_t capacity) : capacity_(capacity) {}

    /**
     * Touch @p key: hit moves it to the front, miss inserts it (evicting
     * the least recently used entry if needed).
     * @return true on hit.
     */
    bool
    access(std::uint64_t key)
    {
        auto it = index_.find(key);
        if (it != index_.end()) {
            hits_.add();
            order_.splice(order_.begin(), order_, it->second);
            return true;
        }
        misses_.add();
        if (order_.size() >= capacity_) {
            index_.erase(order_.back());
            order_.pop_back();
        }
        order_.push_front(key);
        index_[key] = order_.begin();
        return false;
    }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint32_t capacity() const { return capacity_; }
    std::size_t size() const { return order_.size(); }

    /** @return hit ratio over the cache's lifetime (1.0 when untouched). */
    double
    hitRatio() const
    {
        std::uint64_t total = hits() + misses();
        return total ? static_cast<double>(hits()) / total : 1.0;
    }

  private:
    std::uint32_t capacity_;
    std::list<std::uint64_t> order_;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        index_;
    smart::sim::Counter hits_;
    smart::sim::Counter misses_;
};

} // namespace smart::rnic

#endif // SMART_RNIC_CACHE_MODEL_HPP
