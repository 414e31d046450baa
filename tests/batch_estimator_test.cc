// Tests for the batch estimation engine: lane grouping (BatchPlan) and
// the structure-of-arrays lane kernel (FlatEstimator::EstimateLanes),
// plus the service-level EstimateBatch path built on them. The
// load-bearing property throughout is *bit identity*: every lane-evaluated
// estimate must EXPECT_EQ the graph-walking oracle's double and the
// one-lane FlatEstimator::Estimate (and so EstimateOne) for the same
// query — across shuffled batches, duplicate queries, parse errors
// interleaved, explain batches, and any worker count.
#include "estimate/batch_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/xcluster.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "oracle/xcluster_estimator.h"
#include "query/parser.h"
#include "service/service.h"
#include "storage/xcsf_writer.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace {

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Fig. 7-style synopsis (numeric summary on C, fanout, two branches).
GraphSynopsis MakeFig7() {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 10.0);
  SynNodeId b = synopsis.AddNode("B", ValueType::kNone, 100.0);
  SynNodeId c = synopsis.AddNode("C", ValueType::kNumeric, 500.0);
  SynNodeId d = synopsis.AddNode("D", ValueType::kNone, 50.0);
  SynNodeId e = synopsis.AddNode("E", ValueType::kNone, 100.0);
  synopsis.AddEdge(r, a, 10.0);
  synopsis.AddEdge(a, b, 10.0);
  synopsis.AddEdge(b, c, 5.0);
  synopsis.AddEdge(a, d, 5.0);
  synopsis.AddEdge(d, e, 2.0);
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 10; ++v) values.push_back(v);
  synopsis.node(c).vsumm = ValueSummary::FromNumeric(std::move(values), 16);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return synopsis;
}

/// Cyclic synopsis (XMark parlist shape): descendant reach runs the
/// bounded-hop DP, whose vectors the reach cache shares.
GraphSynopsis MakeCyclic() {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId parlist = synopsis.AddNode("parlist", ValueType::kNone, 20.0);
  SynNodeId text = synopsis.AddNode("text", ValueType::kNone, 40.0);
  synopsis.AddEdge(root, parlist, 10.0);
  synopsis.AddEdge(parlist, parlist, 0.5);
  synopsis.AddEdge(parlist, text, 1.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return synopsis;
}

// ---------------------------------------------------------------------------
// Lane grouping (BatchPlan)
// ---------------------------------------------------------------------------

TEST(BatchPlanTest, SameSkeletonDifferentPredicatesShareAGroup) {
  GraphSynopsis synopsis = MakeFig7();
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  // Identical structure, different range predicates: one group, two lanes.
  const CompiledTwig p1 =
      CompiledTwig::Compile(MustParse("/A/B/C[range(0,4)]"), flat);
  const CompiledTwig p2 =
      CompiledTwig::Compile(MustParse("/A/B/C[range(2,7)]"), flat);
  // Different structure: its own group.
  const CompiledTwig p3 = CompiledTwig::Compile(MustParse("//A//E"), flat);

  EXPECT_EQ(p1.group_key(), p2.group_key());
  EXPECT_TRUE(p1.SameStructure(p2));
  EXPECT_NE(p1.group_key(), p3.group_key());
  EXPECT_FALSE(p1.SameStructure(p3));

  BatchPlan plan = BatchPlan::Build({&p1, &p2, &p3});
  ASSERT_EQ(plan.num_groups(), 2u);
  EXPECT_EQ(plan.num_lanes(), 3u);
  EXPECT_EQ(plan.groups()[0].num_lanes(), 2u);
  EXPECT_EQ(plan.groups()[1].num_lanes(), 1u);
  EXPECT_EQ(plan.groups()[0].lane_slots[0], std::vector<uint32_t>{0});
  EXPECT_EQ(plan.groups()[0].lane_slots[1], std::vector<uint32_t>{1});
  EXPECT_EQ(plan.groups()[1].lane_slots[0], std::vector<uint32_t>{2});
}

TEST(BatchPlanTest, GroupKeysStableAcrossRecompiles) {
  // The same query compiled twice (as on a plan-cache hit or across
  // batches within a generation) must land in the same group.
  GraphSynopsis synopsis = MakeFig7();
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  for (const char* query :
       {"/A/B/C[range(0,4)]", "//A//E", "/A/*", "//*", "/Z"}) {
    const CompiledTwig first = CompiledTwig::Compile(MustParse(query), flat);
    const CompiledTwig second = CompiledTwig::Compile(MustParse(query), flat);
    EXPECT_EQ(first.group_key(), second.group_key()) << query;
    EXPECT_TRUE(first.SameStructure(second)) << query;
  }
}

TEST(BatchPlanTest, DuplicatePlansCollapseOntoOneLaneAndNullsAreSkipped) {
  GraphSynopsis synopsis = MakeFig7();
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  const CompiledTwig p1 = CompiledTwig::Compile(MustParse("/A/B"), flat);
  const CompiledTwig p2 = CompiledTwig::Compile(MustParse("//E"), flat);
  // Slots 0, 2, 4 repeat the same plan object (plan-cache hit semantics);
  // slot 3 has no plan (a parse failure).
  BatchPlan plan = BatchPlan::Build({&p1, &p2, &p1, nullptr, &p1});
  ASSERT_EQ(plan.num_groups(), 2u);
  EXPECT_EQ(plan.num_lanes(), 2u);
  const BatchPlan::Group& dup = plan.groups()[0];
  ASSERT_EQ(dup.num_lanes(), 1u);
  EXPECT_EQ(dup.lane_slots[0], (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(dup.num_slots(), 3u);
  EXPECT_EQ(plan.groups()[1].num_slots(), 1u);
}

// ---------------------------------------------------------------------------
// Lane kernel bit identity (direct FlatEstimator::EstimateLanes)
// ---------------------------------------------------------------------------

/// Runs `queries` as one BatchPlan and asserts each lane's estimate is
/// bit-identical to the oracle's and to the one-lane Estimate.
void ExpectLanesMatchOracle(const GraphSynopsis& synopsis,
                            const std::vector<std::string>& queries) {
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  FlatEstimator estimator(flat);
  const XClusterEstimator oracle(synopsis);
  std::vector<CompiledTwig> storage;
  storage.reserve(queries.size());
  std::vector<const CompiledTwig*> plans;
  for (const std::string& query : queries) {
    storage.push_back(CompiledTwig::Compile(MustParse(query), flat));
  }
  for (const CompiledTwig& plan : storage) plans.push_back(&plan);

  BatchPlan partition = BatchPlan::Build(plans);
  for (const BatchPlan::Group& group : partition.groups()) {
    std::vector<double> lanes(group.num_lanes());
    estimator.EstimateLanes(group.plans, lanes.data());
    for (size_t lane = 0; lane < group.num_lanes(); ++lane) {
      for (const uint32_t slot : group.lane_slots[lane]) {
        EXPECT_EQ(lanes[lane], oracle.Estimate(MustParse(queries[slot])))
            << queries[slot];
        EXPECT_EQ(lanes[lane], estimator.Estimate(*plans[slot]))
            << queries[slot];
      }
    }
  }
}

TEST(BatchEstimatorTest, Fig7LanesBitIdenticalToOracle) {
  ExpectLanesMatchOracle(
      MakeFig7(),
      {"//A[/B/C[range(0,0)]]//E", "/A", "/A/B", "/A/B/C", "//C", "//E",
       "/A/*", "//*", "/A/B/C[range(0,4)]", "/A/B/C[range(2,7)]", "/A[/B]/D",
       "/Z", "//A/Q", "/A/B[range(0,100)]", "/A/B/C[contains(x)]"});
}

TEST(BatchEstimatorTest, CyclicLanesBitIdenticalToOracle) {
  ExpectLanesMatchOracle(MakeCyclic(),
                         {"//text", "//parlist", "//parlist//text",
                          "/parlist/parlist", "//*", "//R//text"});
}

TEST(BatchEstimatorTest, UnknownTermLanesEstimateExactlyZero) {
  // contains() with a term absent from the dictionary estimates exactly
  // 0.0; lanes must reproduce that even when grouped with lanes that
  // estimate nonzero.
  ExpectLanesMatchOracle(MakeFig7(),
                         {"/A/B/C[contains(nosuchterm)]", "/A/B/C[range(0,4)]",
                          "/A/B/C[contains(alsomissing)]"});
}

TEST(BatchEstimatorTest, EmptySynopsisLanesAreZero) {
  GraphSynopsis empty;
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(empty);
  const FlatSynopsis& flat = *compiled;
  FlatEstimator estimator(flat);
  const CompiledTwig plan = CompiledTwig::Compile(MustParse("/A"), flat);
  BatchPlan partition = BatchPlan::Build({&plan});
  ASSERT_EQ(partition.num_groups(), 1u);
  double lane = -1.0;
  estimator.EstimateLanes(partition.groups()[0].plans, &lane);
  EXPECT_EQ(lane, 0.0);
  EXPECT_EQ(lane, estimator.Estimate(plan));
}

TEST(BatchEstimatorTest, DescendantReachSharedWithinBatch) {
  // Three skeletons, three groups. A group reads each descendant reach
  // once per (node, step): its structure pass records the walk and its
  // lane pass replays it without a second cache read. The first two
  // groups compute (root, text) and (root, parlist); the third reads
  // (root, parlist) back, its one hit, and computes (parlist, text).
  // Each distinct (source, label) is computed once across the batch.
  GraphSynopsis synopsis = MakeCyclic();
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  FlatEstimator estimator(flat);
  const CompiledTwig p1 = CompiledTwig::Compile(MustParse("//text"), flat);
  const CompiledTwig p2 = CompiledTwig::Compile(MustParse("//parlist"), flat);
  const CompiledTwig p3 =
      CompiledTwig::Compile(MustParse("//parlist//text"), flat);
  BatchPlan partition = BatchPlan::Build({&p1, &p2, &p3});
  ASSERT_EQ(partition.num_groups(), 3u);  // different labels → different keys
  for (const BatchPlan::Group& group : partition.groups()) {
    std::vector<double> lanes(group.num_lanes());
    estimator.EstimateLanes(group.plans, lanes.data());
  }
  // Distinct keys: (root, text), (root, parlist), (parlist, text).
  EXPECT_EQ(estimator.reach_cache().misses(), 3u);
  EXPECT_EQ(estimator.reach_cache().size(), 3u);
  EXPECT_EQ(estimator.reach_cache().hits(), 1u);
}

// ---------------------------------------------------------------------------
// Service-level randomized property test
// ---------------------------------------------------------------------------

XCluster MakeFixtureCluster(GraphSynopsis synopsis) {
  return XCluster(std::move(synopsis));
}

/// Query pool mixing skeleton repeats, distinct predicates, wildcards,
/// descendant axes, misses, unknown terms, and malformed inputs.
const std::vector<std::string> kFig7Pool = {
    "//A[/B/C[range(0,0)]]//E",
    "/A",
    "/A/B",
    "/A/B/C",
    "//C",
    "//E",
    "/A/*",
    "//*",
    "/A/B/C[range(0,4)]",
    "/A/B/C[range(2,7)]",
    "/A/B/C[range(1,3)]",
    "/A[/B]/D",
    "/Z",
    "//A/Q",
    "/A/B[range(0,100)]",
    "/A/B/C[contains(x)]",
    "][broken",
    "not a query",
};

const std::vector<std::string> kCyclicPool = {
    "//text",          "//parlist", "//parlist//text", "/parlist/parlist",
    "//*",             "//R//text", "](malformed",
};

void RunShuffledBatchSuite(size_t workers) {
  ServiceOptions options;
  options.executor.num_threads = workers;
  auto service = std::make_unique<EstimationService>(options);
  service->store().Install("fig7", MakeFixtureCluster(MakeFig7()));
  service->store().Install("cyclic", MakeFixtureCluster(MakeCyclic()));

  Rng rng(20260809 + workers);
  const struct {
    const char* collection;
    const std::vector<std::string>* pool;
  } collections[] = {{"fig7", &kFig7Pool}, {"cyclic", &kCyclicPool}};

  for (int round = 0; round < 6; ++round) {
    for (const auto& target : collections) {
      // Shuffled batch with duplicates: sample with replacement, then
      // append a guaranteed repeat of slot 0 so dedup always triggers.
      const size_t n = 16 + rng.Uniform(48);
      std::vector<std::string> queries;
      queries.reserve(n + 1);
      for (size_t i = 0; i < n; ++i) {
        queries.push_back((*target.pool)[rng.Uniform(target.pool->size())]);
      }
      queries.push_back(queries[0]);

      BatchResult batch = service->EstimateBatch(target.collection, queries);
      ASSERT_TRUE(batch.admission.ok());
      ASSERT_EQ(batch.results.size(), queries.size());
      EXPECT_GT(batch.stats.batch_groups, 0u);
      EXPECT_GE(batch.stats.vector_lanes, batch.stats.batch_groups);

      for (size_t i = 0; i < queries.size(); ++i) {
        // Slot-for-slot: same status code and bit-identical estimate as
        // the inline EstimateOne result.
        const QueryResult& v = batch.results[i];
        QueryResult one = service->EstimateOne(target.collection, queries[i]);
        EXPECT_EQ(v.status.code(), one.status.code())
            << target.collection << " '" << queries[i] << "'";
        EXPECT_EQ(v.estimate, one.estimate)
            << target.collection << " '" << queries[i] << "'";
      }
    }
  }
}

TEST(BatchEstimatorServiceTest, ShuffledBatchesBitIdenticalWorkers1) {
  RunShuffledBatchSuite(1);
}

TEST(BatchEstimatorServiceTest, ShuffledBatchesBitIdenticalWorkers8) {
  RunShuffledBatchSuite(8);
}

/// Explain batches run the same lane groups; each slot must match
/// EstimateOne(..., /*explain=*/true): status code, estimate bits, and
/// explanation text.
void RunExplainBatch(size_t workers) {
  ServiceOptions options;
  options.executor.num_threads = workers;
  auto service = std::make_unique<EstimationService>(options);
  service->store().Install("fig7", MakeFixtureCluster(MakeFig7()));
  // Duplicates (slots 0/4, 1/5) collapse onto one lane each; /A/B/C with
  // two predicates shares a group; slot 3 does not parse.
  const std::vector<std::string> queries = {
      "/A/B/C[range(0,4)]", "//E", "/A/B/C[range(2,7)]", "][broken",
      "/A/B/C[range(0,4)]", "//E", "/A[/B]/D",
  };
  BatchOptions explain;
  explain.explain = true;
  BatchResult batch = service->EstimateBatch("fig7", queries, explain);
  ASSERT_TRUE(batch.admission.ok());
  ASSERT_EQ(batch.results.size(), queries.size());
  EXPECT_EQ(batch.stats.ok, queries.size() - 1);
  EXPECT_EQ(batch.stats.batch_groups, 3u);
  EXPECT_EQ(batch.stats.vector_lanes, 4u);
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult one =
        service->EstimateOne("fig7", queries[i], /*explain=*/true);
    const QueryResult& slot = batch.results[i];
    EXPECT_EQ(slot.status.code(), one.status.code()) << queries[i];
    EXPECT_EQ(slot.estimate, one.estimate) << queries[i];
    EXPECT_EQ(slot.explanation, one.explanation) << queries[i];
  }
  EXPECT_EQ(batch.results[3].status.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(batch.results[0].explanation.find("q3 /C"), std::string::npos);
}

TEST(BatchEstimatorServiceTest, ExplainBatchMatchesEstimateOneInline) {
  RunExplainBatch(0);
}

TEST(BatchEstimatorServiceTest, ExplainBatchMatchesEstimateOneWorkers4) {
  RunExplainBatch(4);
}

}  // namespace
}  // namespace xcluster
