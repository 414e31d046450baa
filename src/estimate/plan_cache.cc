#include "estimate/plan_cache.h"

#include <algorithm>
#include <cctype>
#include <functional>

#include "common/telemetry/telemetry.h"
#include "estimate/reach_cache.h"

namespace xcluster {

size_t PlanCache::KeyHash::operator()(const CacheKey& key) const {
  return static_cast<size_t>(ReachCache::Mix(key.snapshot_id)) ^
         std::hash<std::string>()(key.text);
}

PlanCache::PlanCache() : PlanCache(Options()) {}

PlanCache::PlanCache(Options options) : capacity_(options.capacity) {
  const size_t shards = std::max<size_t>(options.shards, 1);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_ = capacity_ == 0 ? 0 : std::max<size_t>(
      (capacity_ + shards - 1) / shards, 1);
}

PlanCache::Shard& PlanCache::ShardFor(const CacheKey& key) const {
  return *shards_[KeyHash()(key) % shards_.size()];
}

namespace {

void TrimBounds(std::string_view raw, size_t* begin, size_t* end) {
  *begin = 0;
  *end = raw.size();
  while (*begin < *end &&
         std::isspace(static_cast<unsigned char>(raw[*begin]))) {
    ++*begin;
  }
  while (*end > *begin &&
         std::isspace(static_cast<unsigned char>(raw[*end - 1]))) {
    --*end;
  }
}

}  // namespace

std::string PlanCache::NormalizeQuery(std::string_view raw) {
  size_t begin = 0, end = 0;
  TrimBounds(raw, &begin, &end);
  return std::string(raw.substr(begin, end - begin));
}

const std::string& PlanCache::NormalizeQuery(const std::string& raw,
                                             std::string* storage) {
  size_t begin = 0, end = 0;
  TrimBounds(raw, &begin, &end);
  if (begin == 0 && end == raw.size()) return raw;
  storage->assign(raw, begin, end - begin);
  return *storage;
}

std::shared_ptr<const CompiledTwig> PlanCache::Get(
    uint64_t snapshot_id, const std::string& normalized) const {
  if (capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    XCLUSTER_COUNTER_INC("estimator.plan_cache.misses");
    return nullptr;
  }
  const CacheKey key{snapshot_id, normalized};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    XCLUSTER_COUNTER_INC("estimator.plan_cache.misses");
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  XCLUSTER_COUNTER_INC("estimator.plan_cache.hits");
  return it->second->plan;
}

void PlanCache::Put(uint64_t snapshot_id, const std::string& normalized,
                    std::shared_ptr<const CompiledTwig> plan) const {
  if (capacity_ == 0) return;
  CacheKey key{snapshot_id, normalized};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // First writer wins: racing compiles of the same text against the
    // same snapshot produce equivalent plans; keep the incumbent.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{std::move(key), std::move(plan)});
  shard.index[shard.lru.front().key] = shard.lru.begin();
  if (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    XCLUSTER_COUNTER_INC("estimator.plan_cache.evictions");
  }
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace xcluster
