#ifndef XCLUSTER_ESTIMATE_PLAN_CACHE_H_
#define XCLUSTER_ESTIMATE_PLAN_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "estimate/compiled_twig.h"

namespace xcluster {

/// A sharded, bounded LRU cache of CompiledTwig plans, keyed by
/// (snapshot id, normalized query text).
///
/// The snapshot id in the key is what makes hot swap safe: every installed
/// snapshot gets a process-unique id (StoredSynopsis::snapshot_id), so a
/// plan compiled against one synopsis is never handed to another — not
/// after a hot swap, and not between snapshots that share a wire
/// generation — with no explicit invalidation and no epoch scan. Plans of
/// replaced snapshots age out of the LRU as the new snapshot's displace
/// them.
///
/// Plans are handed out as shared_ptr<const CompiledTwig>: an in-flight
/// estimate keeps its plan alive even if the entry is evicted mid-query.
///
/// Thread safety: all methods may be called from any thread; shards are
/// guarded by independent mutexes held only for the map/list operation.
class PlanCache {
 public:
  struct Options {
    /// Maximum cached plans across all shards. 0 disables caching.
    size_t capacity = 4096;
    size_t shards = 8;
  };

  PlanCache();  // default Options
  explicit PlanCache(Options options);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Canonical cache-key form of a raw query line: leading/trailing ASCII
  /// whitespace stripped (the parser's own grammar defines everything
  /// interior). Both Get and the parse that follows a miss must use the
  /// normalized text so the cache never aliases two spellings to
  /// different plans.
  static std::string NormalizeQuery(std::string_view raw);

  /// Allocation-free variant for the hot path: returns `raw` itself when
  /// it is already trimmed (the common case for protocol input), otherwise
  /// fills `*storage` with the trimmed copy and returns it.
  static const std::string& NormalizeQuery(const std::string& raw,
                                           std::string* storage);

  /// Cached plan for (snapshot_id, normalized), or nullptr on miss.
  std::shared_ptr<const CompiledTwig> Get(uint64_t snapshot_id,
                                          const std::string& normalized) const;

  /// Inserts `plan` (first writer wins), evicting the shard's LRU entry
  /// when over capacity.
  void Put(uint64_t snapshot_id, const std::string& normalized,
           std::shared_ptr<const CompiledTwig> plan) const;

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Plain counters mirroring the `estimator.plan_cache.{hits,misses,
  /// evictions}` metrics (observable with telemetry compiled out).
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct CacheKey {
    uint64_t snapshot_id = 0;
    std::string text;
    bool operator==(const CacheKey& other) const {
      return snapshot_id == other.snapshot_id && text == other.text;
    }
  };
  struct KeyHash {
    size_t operator()(const CacheKey& key) const;
  };
  struct Entry {
    CacheKey key;
    std::shared_ptr<const CompiledTwig> plan;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> index;
  };

  Shard& ShardFor(const CacheKey& key) const;

  size_t capacity_ = 0;
  size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> evictions_{0};
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_PLAN_CACHE_H_
