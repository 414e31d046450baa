#ifndef XCLUSTER_ESTIMATE_REACH_CACHE_H_
#define XCLUSTER_ESTIMATE_REACH_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "estimate/sharded_lru.h"

namespace xcluster {

/// ReachCache's key hash: ReachCache::Mix.
struct ReachKeyHash {
  size_t operator()(uint64_t key) const;
};

/// A sharded, bounded LRU of descendant-axis reach vectors.
///
/// Keys pack a (source node id, label symbol) pair into one uint64; values
/// are the (target, expected count) vectors produced by the bounded-hop
/// reachability DP, shared read-only with every caller. Each FlatEstimator
/// owns one (so one per served snapshot), and all of a batch's lane groups
/// read it directly. Capacity is a hard entry bound enforced by per-shard
/// LRU eviction, so serving a very large synopsis cannot grow the memo
/// without limit.
///
/// Determinism: a reach vector is a pure function of its key (for a fixed
/// synopsis and options), so eviction and recomputation always restore the
/// identical value, and a racing insert keeps whichever writer landed
/// first. Estimates therefore stay bit-identical regardless of eviction
/// timing or thread interleaving.
///
/// Counters and thread safety are ShardedLru's; the counters are exported
/// as `estimator.reach_cache.{hits,misses,evictions}`.
class ReachCache
    : public ShardedLru<uint64_t, std::vector<std::pair<uint32_t, double>>,
                        ReachKeyHash> {
 public:
  using Value = std::vector<std::pair<uint32_t, double>>;

  struct Options {
    /// Maximum cached entries across all shards. 0 disables caching
    /// entirely (every Lookup misses, Insert stores nothing) — useful for
    /// cold-path benchmarking.
    size_t capacity = 1 << 16;
    size_t shards = 8;
  };

  ReachCache() : ReachCache(Options()) {}
  explicit ReachCache(Options options)
      : ShardedLru(options.capacity, options.shards,
                   "estimator.reach_cache") {}

  /// Packs (source, label) into a cache key. The label slot carries
  /// kInvalidSymbol for wildcard steps; callers must not cache
  /// unknown-label probes under that same encoding (they short-circuit
  /// before reaching the cache).
  static uint64_t Key(uint32_t source, uint32_t label) {
    return (static_cast<uint64_t>(source) << 32) | label;
  }

  /// SplitMix64 finalizer. Both key halves are small dense ids, so a
  /// plain xor-fold such as `(source << 32) ^ label` into std::hash would
  /// leave the low 32 bits equal to `source ^ label`, and every (s, l)
  /// with equal xor would share a bucket. The multiply-xorshift cascade
  /// spreads both halves across all 64 bits.
  static uint64_t Mix(uint64_t key) {
    key += 0x9e3779b97f4a7c15ull;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
    return key ^ (key >> 31);
  }
};

inline size_t ReachKeyHash::operator()(uint64_t key) const {
  return static_cast<size_t>(ReachCache::Mix(key));
}

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_REACH_CACHE_H_
