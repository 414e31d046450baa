#include "estimate/plan_cache.h"

#include <cctype>
#include <functional>

#include "estimate/reach_cache.h"

namespace xcluster {

size_t PlanCache::KeyHash::operator()(const Key& key) const {
  return static_cast<size_t>(ReachCache::Mix(key.snapshot_id)) ^
         std::hash<std::string>()(key.text);
}

PlanCache::PlanCache(Options options)
    : plans_(options.capacity, options.shards, "estimator.plan_cache") {}

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

}  // namespace xcluster
