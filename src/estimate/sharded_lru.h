#ifndef XCLUSTER_ESTIMATE_SHARDED_LRU_H_
#define XCLUSTER_ESTIMATE_SHARDED_LRU_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/telemetry/telemetry.h"

namespace xcluster {

/// A sharded, bounded LRU map from `K` to immutable shared values: the one
/// cache implementation behind PlanCache and ReachCache.
///
/// - Capacity is a hard entry bound. Each shard holds at most
///   ceil(capacity / shards) entries (at least one) and evicts its
///   least-recently-used entry when over. Capacity 0 disables the cache:
///   every Lookup misses and Insert stores nothing.
/// - First writer wins: Insert keeps an incumbent and returns it, so
///   racing writers of a pure value all go on with one shared object.
/// - Values are handed out as shared_ptr<const V>, so a reader keeps its
///   value alive even if the entry is evicted while in use.
/// - Hits, misses and evictions are plain atomics (readable with telemetry
///   compiled out), mirrored to the `<metric_prefix>.{hits,misses,
///   evictions}` counters.
///
/// Thread safety: all methods may be called from any thread; each shard's
/// mutex is held only for its own map and list operation.
template <typename K, typename V, typename Hash>
class ShardedLru {
 public:
  ShardedLru(size_t capacity, size_t shards, const std::string& metric_prefix)
      : capacity_(capacity),
        shards_(std::max<size_t>(shards, 1)),
        hits_(metric_prefix + ".hits"),
        misses_(metric_prefix + ".misses"),
        evictions_(metric_prefix + ".evictions") {
    // Ceil-divide so shards * shard_capacity >= capacity.
    shard_capacity_ =
        capacity_ == 0 ? 0
                       : std::max<size_t>(
                             (capacity_ + shards_.size() - 1) / shards_.size(),
                             1);
  }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// The value cached under `key`, refreshed to most recently used; null
  /// on a miss.
  std::shared_ptr<const V> Lookup(const K& key) const {
    if (capacity_ != 0) {
      Shard& shard = ShardFor(key);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        hits_.Inc();
        return it->second->second;
      }
    }
    misses_.Inc();
    return nullptr;
  }

  /// Caches `value` under `key` unless an entry is already there, and
  /// returns the cached value: the incumbent when one exists, else
  /// `value` (also when the cache is disabled).
  std::shared_ptr<const V> Insert(K key, std::shared_ptr<const V> value) const {
    if (capacity_ == 0) return value;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->second;
    }
    shard.lru.emplace_front(std::move(key), std::move(value));
    shard.index.emplace(shard.lru.front().first, shard.lru.begin());
    if (shard.lru.size() > shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evictions_.Inc();
    }
    return shard.lru.front().second;
  }

  size_t size() const {
    size_t total = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.lru.size();
    }
    return total;
  }
  size_t capacity() const { return capacity_; }

  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t evictions() const { return evictions_.value(); }

 private:
  using Entry = std::pair<K, std::shared_ptr<const V>>;
  /// Cache-line aligned so threads working different shards never write
  /// the same line.
  struct alignas(64) Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<K, typename std::list<Entry>::iterator, Hash> index;
  };

  /// One event count, mirrored to its registry counter.
  class EventCounter {
   public:
    explicit EventCounter(const std::string& metric)
#if XCLUSTER_TELEMETRY_ENABLED
        : metric_(telemetry::MetricsRegistry::Global().GetCounter(metric))
#endif
    {
      (void)metric;
    }
    void Inc() {
      count_.fetch_add(1, std::memory_order_relaxed);
#if XCLUSTER_TELEMETRY_ENABLED
      metric_->Add(1);
#endif
    }
    uint64_t value() const { return count_.load(std::memory_order_relaxed); }

   private:
    std::atomic<uint64_t> count_{0};
#if XCLUSTER_TELEMETRY_ENABLED
    telemetry::Counter* metric_;
#endif
  };

  Shard& ShardFor(const K& key) const {
    return shards_[Hash()(key) % shards_.size()];
  }

  size_t capacity_ = 0;
  size_t shard_capacity_ = 0;
  mutable std::vector<Shard> shards_;
  mutable EventCounter hits_;
  mutable EventCounter misses_;
  mutable EventCounter evictions_;
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_SHARDED_LRU_H_
