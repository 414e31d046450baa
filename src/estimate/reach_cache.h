#ifndef XCLUSTER_ESTIMATE_REACH_CACHE_H_
#define XCLUSTER_ESTIMATE_REACH_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace xcluster {

/// A sharded, bounded LRU cache for descendant-axis reach vectors.
///
/// Keys pack a (source node id, label symbol) pair into one uint64; values
/// are the (target, expected count) vectors produced by the bounded-hop
/// reachability DP. Each FlatEstimator owns one (so one per served
/// snapshot); BatchEstimator lane groups reach it through a batch-scoped
/// BatchReachTier. Capacity is a hard entry bound enforced by per-shard
/// LRU eviction, so serving a very large synopsis cannot grow the memo
/// without limit.
///
/// Determinism: a reach vector is a pure function of its key (for a fixed
/// synopsis and options), so eviction and recomputation always restore the
/// identical value, and a racing insert keeps whichever writer landed
/// first (first-writer-wins). Estimates therefore stay bit-identical
/// regardless of eviction timing or thread interleaving.
///
/// Thread safety: shards are guarded by independent mutexes held only for
/// the map/list operation itself; the DP runs outside the cache entirely.
class ReachCache {
 public:
  using Value = std::vector<std::pair<uint32_t, double>>;

  struct Options {
    /// Maximum cached entries across all shards. 0 disables caching
    /// entirely (every Lookup misses, Insert is a no-op) — useful for
    /// cold-path benchmarking.
    size_t capacity = 1 << 16;
    size_t shards = 8;
  };

  ReachCache();  // default Options
  explicit ReachCache(Options options);

  ReachCache(const ReachCache&) = delete;
  ReachCache& operator=(const ReachCache&) = delete;

  /// Packs (source, label) into a cache key. The label slot carries
  /// kInvalidSymbol for wildcard steps; callers must not cache
  /// unknown-label probes under that same encoding (they short-circuit
  /// before reaching the cache).
  static uint64_t Key(uint32_t source, uint32_t label) {
    return (static_cast<uint64_t>(source) << 32) | label;
  }

  /// SplitMix64 finalizer. The previous ReachKeyHash xor-folded
  /// `(source << 32) ^ label` straight into std::hash, which left the low
  /// 32 bits equal to `source ^ label` — small dense ids collided
  /// pathologically (every (s, l) with equal xor shared a bucket). The
  /// multiply-xorshift cascade spreads both halves across all 64 bits.
  static uint64_t Mix(uint64_t key) {
    key += 0x9e3779b97f4a7c15ull;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
    return key ^ (key >> 31);
  }

  /// On hit, appends the cached vector to `out`, refreshes the entry's
  /// LRU position, and returns true.
  bool Lookup(uint64_t key, Value* out) const;

  /// Inserts `value` under `key` unless already present (first writer
  /// wins), evicting the shard's least-recently-used entry when over
  /// capacity.
  void Insert(uint64_t key, Value value) const;

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Plain (non-telemetry) counters so tests can observe cache behavior
  /// even when the library is built with XCLUSTER_TELEMETRY=OFF. The same
  /// events are also exported as `estimator.reach_cache.{hits,misses,
  /// evictions,batch_shared_hits}` through the metrics registry.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Reach lookups served by a BatchReachTier's batch-local map — sharing
  /// that happened entirely within one batch, above this cache.
  uint64_t batch_shared_hits() const {
    return batch_shared_hits_.load(std::memory_order_relaxed);
  }

  /// Called by BatchReachTier when its batch-local map serves a lookup.
  void NoteBatchSharedHit() const;

 private:
  struct Entry {
    uint64_t key = 0;
    Value value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
  };

  Shard& ShardFor(uint64_t key) const {
    return *shards_[Mix(key) % shards_.size()];
  }

  size_t capacity_ = 0;
  size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> batch_shared_hits_{0};
};

/// A batch-scoped sharing tier above a ReachCache: descendant-reach
/// vectors computed while evaluating one batch are published here once
/// and handed out as stable `const Value*` pointers, so every lane group
/// that needs the same (source, label) reach within the batch reads one
/// shared vector instead of copying it out of the LRU per probe — and
/// entries pinned here cannot be evicted mid-batch by unrelated traffic.
///
/// Unlike the ReachCache (bounded, copies on Lookup), the tier is
/// unbounded but batch-lived: it holds at most the distinct reach keys
/// one batch touches and is destroyed when the batch returns.
///
/// Determinism: values are pure functions of their key; Insert keeps the
/// first writer, so concurrent lane groups racing on a key all read the
/// same (identical) vector.
///
/// Thread safety: all methods may be called from any thread. Returned
/// pointers stay valid until the tier is destroyed — the map is
/// node-based and entries are never erased.
class BatchReachTier {
 public:
  /// `cache` receives the batch_shared_hits accounting (and is where the
  /// owning estimator keeps its cross-batch tier); it must outlive the
  /// tier. May be null in tests.
  explicit BatchReachTier(const ReachCache* cache) : cache_(cache) {}

  BatchReachTier(const BatchReachTier&) = delete;
  BatchReachTier& operator=(const BatchReachTier&) = delete;

  /// The shared vector for `key`, or nullptr when this batch has not
  /// published it yet. A hit is counted on the backing cache's
  /// batch_shared_hits counter.
  const ReachCache::Value* Lookup(uint64_t key);

  /// Publishes `value` under `key` (first writer wins) and returns the
  /// canonical shared vector — the incumbent's when one already landed.
  const ReachCache::Value* Insert(uint64_t key, ReachCache::Value value);

  size_t size() const;

 private:
  const ReachCache* cache_ = nullptr;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, ReachCache::Value> map_;
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_REACH_CACHE_H_
