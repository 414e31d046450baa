#ifndef XCLUSTER_ESTIMATE_PLAN_CACHE_H_
#define XCLUSTER_ESTIMATE_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "estimate/compiled_twig.h"
#include "estimate/sharded_lru.h"

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
/// Thread safety: all methods may be called from any thread (ShardedLru).
class PlanCache {
 public:
  struct Options {
    /// Maximum cached plans across all shards. 0 disables caching.
    size_t capacity = 4096;
    size_t shards = 8;
  };

  PlanCache() : PlanCache(Options()) {}
  explicit PlanCache(Options options);

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
                                          const std::string& normalized) const {
    return plans_.Lookup(Key{snapshot_id, normalized});
  }

  /// Caches `plan` unless a plan is already cached under the key (first
  /// writer wins: racing compiles of the same text against the same
  /// snapshot produce equivalent plans), and returns the cached plan.
  std::shared_ptr<const CompiledTwig> Put(
      uint64_t snapshot_id, const std::string& normalized,
      std::shared_ptr<const CompiledTwig> plan) const {
    return plans_.Insert(Key{snapshot_id, normalized}, std::move(plan));
  }

  size_t size() const { return plans_.size(); }
  size_t capacity() const { return plans_.capacity(); }

  /// Plain counters mirroring the `estimator.plan_cache.{hits,misses,
  /// evictions}` metrics (observable with telemetry compiled out).
  uint64_t hits() const { return plans_.hits(); }
  uint64_t misses() const { return plans_.misses(); }
  uint64_t evictions() const { return plans_.evictions(); }

 private:
  struct Key {
    uint64_t snapshot_id = 0;
    std::string text;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  ShardedLru<Key, CompiledTwig, KeyHash> plans_;
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_PLAN_CACHE_H_
