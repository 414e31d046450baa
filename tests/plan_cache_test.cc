// Tests for the compiled-plan cache: unit-level LRU behavior plus the
// serving-layer property it exists for — plans are keyed by snapshot id,
// so hot-swapping a collection invalidates its cached plans naturally and
// estimates immediately reflect the new synopsis.
#include "estimate/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "estimate/compiled_twig.h"
#include "service/service.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace {

std::shared_ptr<const CompiledTwig> EmptyPlan() {
  return std::make_shared<const CompiledTwig>();
}

TEST(PlanCacheTest, NormalizeQueryTrimsOuterWhitespace) {
  EXPECT_EQ(PlanCache::NormalizeQuery("  //a/b \t"), "//a/b");
  EXPECT_EQ(PlanCache::NormalizeQuery("//a/b"), "//a/b");
  EXPECT_EQ(PlanCache::NormalizeQuery(" \t "), "");
  // Interior whitespace is the parser's business, not the cache key's.
  EXPECT_EQ(PlanCache::NormalizeQuery(" //a[range(1, 2)] "),
            "//a[range(1, 2)]");
}

TEST(PlanCacheTest, GetPutHitMissCounters) {
  PlanCache cache(PlanCache::Options{16, 1});
  EXPECT_EQ(cache.Get(1, "//a"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  auto plan = EmptyPlan();
  EXPECT_EQ(cache.Put(1, "//a", plan), plan);
  EXPECT_EQ(cache.Get(1, "//a"), plan);
  EXPECT_EQ(cache.hits(), 1u);

  // Different snapshot, same text: distinct key.
  EXPECT_EQ(cache.Get(2, "//a"), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, FirstWriterWinsAndLruEvicts) {
  PlanCache cache(PlanCache::Options{2, 1});
  auto first = EmptyPlan();
  cache.Put(1, "//a", first);
  // A racing duplicate loses and gets the incumbent back.
  EXPECT_EQ(cache.Put(1, "//a", EmptyPlan()), first);
  EXPECT_EQ(cache.Get(1, "//a"), first);

  cache.Put(1, "//b", EmptyPlan());
  cache.Get(1, "//a");               // refresh: //b becomes LRU
  cache.Put(1, "//c", EmptyPlan());  // evicts //b
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get(1, "//b"), nullptr);
  EXPECT_NE(cache.Get(1, "//a"), nullptr);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(PlanCache::Options{0, 4});
  auto plan = EmptyPlan();
  EXPECT_EQ(cache.Put(1, "//a", plan), plan);  // handed back, not kept
  EXPECT_EQ(cache.Get(1, "//a"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

/// A one-path synopsis R -> A with a configurable A count, so two installs
/// under the same name are distinguishable through the estimate.
XCluster MakeFixture(double a_count) {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, a_count);
  synopsis.AddEdge(r, a, a_count);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

TEST(PlanCacheServiceTest, RepeatedQueriesHitThePlanCache) {
  ServiceOptions options;
  options.executor.num_threads = 0;
  EstimationService service(options);
  service.store().Install("col", MakeFixture(10.0));

  for (int i = 0; i < 5; ++i) {
    QueryResult result = service.EstimateOne("col", "/A");
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.estimate, 10.0);
  }
  EXPECT_EQ(service.plan_cache().misses(), 1u);
  EXPECT_EQ(service.plan_cache().hits(), 4u);
  EXPECT_EQ(service.plan_cache().size(), 1u);

  // Whitespace variants normalize onto the same plan.
  QueryResult padded = service.EstimateOne("col", "  /A ");
  ASSERT_TRUE(padded.status.ok());
  EXPECT_EQ(service.plan_cache().hits(), 5u);
}

TEST(PlanCacheServiceTest, SnapshotIdsAreUniqueWhereGenerationsRepeat) {
  // The plan-cache key: unique per snapshot even across stores, names and
  // pinned generations.
  SynopsisStore first;
  SynopsisStore second;
  auto a = first.Install("col", MakeFixture(1.0), /*generation=*/7);
  auto b = second.Install("col", MakeFixture(1.0), /*generation=*/7);
  auto c = first.Install("other", MakeFixture(1.0), /*generation=*/7);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(a->generation(), b->generation());
  EXPECT_EQ(a->generation(), c->generation());
  EXPECT_NE(a->snapshot_id(), b->snapshot_id());
  EXPECT_NE(a->snapshot_id(), c->snapshot_id());
  EXPECT_NE(b->snapshot_id(), c->snapshot_id());
}

TEST(PlanCacheServiceTest, HotSwapInvalidatesCachedPlans) {
  ServiceOptions options;
  options.executor.num_threads = 0;
  EstimationService service(options);
  service.store().Install("col", MakeFixture(10.0));

  QueryResult before = service.EstimateOne("col", "/A");
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.estimate, 10.0);
  EXPECT_EQ(service.plan_cache().misses(), 1u);

  // Hot swap: same name, new synopsis, new snapshot. The cached plan
  // must not be reused (its key carries the old snapshot id).
  service.store().Install("col", MakeFixture(25.0));
  QueryResult after = service.EstimateOne("col", "/A");
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.estimate, 25.0);
  EXPECT_EQ(service.plan_cache().misses(), 2u);

  // Both snapshots' plans coexist until the old one ages out.
  EXPECT_EQ(service.plan_cache().size(), 2u);
}

TEST(PlanCacheServiceTest, ParseErrorsAreNotCached) {
  ServiceOptions options;
  options.executor.num_threads = 0;
  EstimationService service(options);
  service.store().Install("col", MakeFixture(10.0));

  for (int i = 0; i < 3; ++i) {
    QueryResult result = service.EstimateOne("col", "][broken");
    EXPECT_EQ(result.status.code(), Status::Code::kInvalidArgument);
  }
  EXPECT_EQ(service.plan_cache().size(), 0u);
  EXPECT_EQ(service.plan_cache().hits(), 0u);
}

TEST(PlanCacheServiceTest, BatchSharesPlansAcrossWorkers) {
  ServiceOptions options;
  options.executor.num_threads = 4;
  EstimationService service(options);
  service.store().Install("col", MakeFixture(10.0));

  std::vector<std::string> queries(64, "/A");
  BatchResult batch = service.EstimateBatch("col", queries);
  EXPECT_EQ(batch.stats.ok, queries.size());
  for (const QueryResult& result : batch.results) {
    EXPECT_EQ(result.estimate, 10.0);
  }
  // Exactly one plan exists; racing compiles may each have missed, but
  // hits + misses account for every lookup and at most a handful missed.
  EXPECT_EQ(service.plan_cache().size(), 1u);
  EXPECT_EQ(service.plan_cache().hits() + service.plan_cache().misses(),
            queries.size());
  EXPECT_GE(service.plan_cache().hits(), queries.size() - 4);
}

}  // namespace
}  // namespace xcluster
