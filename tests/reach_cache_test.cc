// Tests for the bounded, sharded descendant-reach LRU (ReachCache) and for
// the FlatEstimator that sits on top of it: capacity is a hard bound,
// eviction follows LRU order, racing writers keep the first value, and —
// the property everything else depends on — estimates stay bit-identical
// to the oracle under concurrency even when the cache is small enough to
// thrash.
#include "estimate/reach_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "oracle/xcluster_estimator.h"
#include "query/parser.h"
#include "storage/xcsf_writer.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace {

std::shared_ptr<const ReachCache::Value> Vec(
    std::initializer_list<std::pair<uint32_t, double>> v) {
  return std::make_shared<const ReachCache::Value>(v);
}

TEST(ReachCacheTest, LookupSharesTheValueAndCountsHitsAndMisses) {
  ReachCache cache(ReachCache::Options{16, 1});
  EXPECT_EQ(cache.Lookup(ReachCache::Key(1, 2)), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  const auto value = Vec({{7, 3.5}});
  EXPECT_EQ(cache.Insert(ReachCache::Key(1, 2), value), value);
  const auto hit = cache.Lookup(ReachCache::Key(1, 2));
  EXPECT_EQ(hit, value);  // the one shared vector, not a copy
  EXPECT_EQ(cache.hits(), 1u);
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0].first, 7u);
  EXPECT_EQ((*hit)[0].second, 3.5);
}

TEST(ReachCacheTest, CapacityIsAHardBoundWithLruEviction) {
  // One shard so the global capacity is exact.
  ReachCache cache(ReachCache::Options{3, 1});
  cache.Insert(ReachCache::Key(1, 0), Vec({{1, 1.0}}));
  cache.Insert(ReachCache::Key(2, 0), Vec({{2, 1.0}}));
  cache.Insert(ReachCache::Key(3, 0), Vec({{3, 1.0}}));
  EXPECT_EQ(cache.size(), 3u);

  // Touch key 1 so key 2 is now the least recently used.
  ASSERT_NE(cache.Lookup(ReachCache::Key(1, 0)), nullptr);

  cache.Insert(ReachCache::Key(4, 0), Vec({{4, 1.0}}));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup(ReachCache::Key(2, 0)), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(ReachCache::Key(1, 0)), nullptr);  // survived
  EXPECT_NE(cache.Lookup(ReachCache::Key(4, 0)), nullptr);
}

TEST(ReachCacheTest, FirstWriterWins) {
  ReachCache cache(ReachCache::Options{8, 1});
  const auto winner = Vec({{1, 1.0}});
  cache.Insert(ReachCache::Key(5, 5), winner);
  // The second writer loses the race and gets the incumbent back.
  EXPECT_EQ(cache.Insert(ReachCache::Key(5, 5), Vec({{2, 2.0}})), winner);
  EXPECT_EQ(cache.Lookup(ReachCache::Key(5, 5)), winner);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReachCacheTest, ZeroCapacityDisablesCaching) {
  ReachCache cache(ReachCache::Options{0, 4});
  const auto value = Vec({{1, 1.0}});
  // Insert hands the value back without keeping it.
  EXPECT_EQ(cache.Insert(ReachCache::Key(1, 1), value), value);
  EXPECT_EQ(cache.Lookup(ReachCache::Key(1, 1)), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ReachCacheTest, EvictedValueOutlivesItsEntry) {
  // A reader holding a value keeps it alive after eviction.
  ReachCache cache(ReachCache::Options{1, 1});
  cache.Insert(ReachCache::Key(1, 0), Vec({{1, 1.5}}));
  const auto held = cache.Lookup(ReachCache::Key(1, 0));
  cache.Insert(ReachCache::Key(2, 0), Vec({{2, 2.5}}));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup(ReachCache::Key(1, 0)), nullptr);
  ASSERT_NE(held, nullptr);
  ASSERT_EQ(held->size(), 1u);
  EXPECT_EQ((*held)[0].second, 1.5);
}

TEST(ReachCacheTest, MixSeparatesXorCollidingKeys) {
  // The old ReachKeyHash reduced (source << 32) ^ label with std::hash,
  // so every (source, label) pair with the same source^label xor landed in
  // one bucket chain. The mixer must spread exactly those keys.
  std::set<uint64_t> mixed;
  const int kN = 512;
  for (uint32_t i = 0; i < kN; ++i) {
    // All of these have source ^ label == 0.
    mixed.insert(ReachCache::Mix(ReachCache::Key(i, i)));
  }
  EXPECT_EQ(mixed.size(), static_cast<size_t>(kN));
  // And their low bits (what a power-of-two table actually uses) must not
  // all agree either: expect many distinct values mod 64.
  std::set<uint64_t> low;
  for (uint64_t m : mixed) low.insert(m % 64);
  EXPECT_GT(low.size(), 32u);
}

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Deep chain with side branches (same shape as the estimator concurrency
/// suite) so descendant queries populate many distinct cache keys.
GraphSynopsis MakeDeepSynopsis() {
  GraphSynopsis synopsis;
  SynNodeId prev = synopsis.AddNode("R", ValueType::kNone, 1.0);
  double count = 4.0;
  for (const char* label : {"A", "B", "C", "D", "E"}) {
    SynNodeId node = synopsis.AddNode(label, ValueType::kNone, count);
    synopsis.AddEdge(prev, node, count);
    SynNodeId side =
        synopsis.AddNode(std::string(label) + "side", ValueType::kNone, 2.0);
    synopsis.AddEdge(node, side, 2.0);
    prev = node;
    count *= 2.0;
  }
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return synopsis;
}

const std::vector<std::string> kDescendantQueries = {
    "//E",        "//C//E", "//A//D",    "//B//Eside", "/A//E",
    "//A//Cside", "//D",    "//A//B//C", "//Bside",    "//C//Dside",
};

TEST(ReachCacheTest, EstimatorCacheStaysBoundedAndCounts) {
  GraphSynopsis synopsis = MakeDeepSynopsis();
  EstimateOptions options;
  options.reach_cache_capacity = 4;
  options.reach_cache_shards = 2;
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  const FlatEstimator estimator(flat, options);
  const XClusterEstimator oracle(synopsis);
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::string& query : kDescendantQueries) {
      const TwigQuery twig = MustParse(query);
      EXPECT_EQ(estimator.Estimate(CompiledTwig::Compile(twig, flat)),
                oracle.Estimate(twig))
          << query;
    }
  }
  const ReachCache& cache = estimator.reach_cache();
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(ReachCacheTest, ConcurrentEstimatesDeterministicUnderEviction) {
  // A capacity small enough that the working set cannot fit forces
  // continuous evict/recompute churn; estimates must still be
  // bit-identical to the oracle's cold serial answers from every thread.
  GraphSynopsis synopsis = MakeDeepSynopsis();

  std::vector<double> expected;
  {
    XClusterEstimator oracle(synopsis);
    for (const std::string& query : kDescendantQueries) {
      expected.push_back(oracle.Estimate(MustParse(query)));
    }
  }
  // //E: the product of the chain's edge counts.
  EXPECT_EQ(expected[0], 4.0 * 8 * 16 * 32 * 64);

  EstimateOptions options;
  options.reach_cache_capacity = 3;
  options.reach_cache_shards = 1;
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  const FlatEstimator shared(flat, options);
  constexpr int kThreads = 8;
  constexpr int kPasses = 20;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t i = 0; i < kDescendantQueries.size(); ++i) {
          const size_t index =
              (i + static_cast<size_t>(t)) % kDescendantQueries.size();
          const double estimate = shared.Estimate(CompiledTwig::Compile(
              MustParse(kDescendantQueries[index]), flat));
          if (estimate != expected[index]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_LE(shared.reach_cache().size(), 3u);
  EXPECT_GT(shared.reach_cache().evictions(), 0u);
}

}  // namespace
}  // namespace xcluster
