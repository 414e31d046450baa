// Bit-identity tests for the estimation engine: for every query,
// FlatEstimator::Estimate over the compiled plan, and every lane of the
// lane kernel (EstimateLanes over BatchPlan groups), must return the
// *same double* (EXPECT_EQ, not EXPECT_NEAR) as the graph-walking
// reference estimator (tests/oracle, XClusterEstimator) over the source
// synopsis. Exercised on hand-built fixtures, on merged (budget-built)
// synopses with dead arena nodes, and across the fig8-style generated
// workload suites for XMark, IMDB and Treebank.
#include "estimate/flat_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "build/builder.h"
#include "data/imdb.h"
#include "data/treebank.h"
#include "data/xmark.h"
#include "estimate/batch_estimator.h"
#include "estimate/compiled_twig.h"
#include "oracle/xcluster_estimator.h"
#include "estimate/flat_synopsis.h"
#include "flat_layout.h"
#include "query/parser.h"
#include "storage/xcsf_writer.h"
#include "synopsis/graph.h"
#include "synopsis/reference.h"
#include "workload/generator.h"

namespace xcluster {
namespace {

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Asserts flat == legacy, bit for bit, for one query.
void ExpectIdentical(const GraphSynopsis& synopsis,
                     const std::string& query) {
  XClusterEstimator legacy(synopsis);
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  FlatEstimator estimator(flat);
  const TwigQuery twig = MustParse(query);
  const CompiledTwig plan = CompiledTwig::Compile(twig, flat);
  EXPECT_EQ(estimator.Estimate(plan), legacy.Estimate(twig)) << query;
}

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

TEST(FlatSynopsisTest, PreservesNodesEdgesAndArenaOrder) {
  GraphSynopsis synopsis = MakeFig7();
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  EXPECT_EQ(compiled->num_nodes(), 6u);
  EXPECT_EQ(compiled->num_edges(), 5u);
  ExpectFlatLayoutMatchesGraph(synopsis, *compiled);
}

TEST(FlatSynopsisTest, SurvivesSourceGraphDestruction) {
  // Regression for the old lifetime hazard: value-summary pointers and the
  // label pool used to reference the source GraphSynopsis. A FlatSynopsis
  // owns its image, so estimating after the source graph is destroyed
  // must work — and stay bit-identical to estimating before.
  auto synopsis = std::make_unique<GraphSynopsis>(MakeFig7());
  XClusterEstimator legacy(*synopsis);
  const TwigQuery twig = MustParse("//A[/B/C[range(0,4)]]//E");
  const double expected = legacy.Estimate(twig);

  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(*synopsis);
  const FlatSynopsis& flat = *compiled;
  const CompiledTwig plan = CompiledTwig::Compile(twig, flat);
  synopsis.reset();  // the flat view must not reference the graph

  FlatEstimator estimator(flat);
  EXPECT_EQ(estimator.Estimate(plan), expected);
  EXPECT_NE(flat.LookupLabel("A"), kInvalidSymbol);
  size_t begin = 0, end = 0;
  flat.LabelRun(flat.root(), flat.LookupLabel("A"), &begin, &end);
  EXPECT_EQ(end - begin, 1u);
}

TEST(FlatSynopsisTest, LabelRunFindsExactlyTheLabeledChildren)
{
  GraphSynopsis synopsis = MakeFig7();
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  const FlatNodeId a = flat.flat_of(1);  // node "A": children B and D
  size_t begin = 0, end = 0;
  flat.LabelRun(a, flat.LookupLabel("B"), &begin, &end);
  ASSERT_EQ(end - begin, 1u);
  EXPECT_EQ(flat.label(flat.sorted_edge_target(begin)),
            flat.LookupLabel("B"));
  flat.LabelRun(a, flat.LookupLabel("E"), &begin, &end);
  EXPECT_EQ(begin, end);  // E is not a child of A
  EXPECT_EQ(flat.LookupLabel("nosuchtag"), kInvalidSymbol);
}

TEST(FlatEstimatorTest, Fig7QueriesBitIdentical) {
  GraphSynopsis synopsis = MakeFig7();
  for (const char* query :
       {"//A[/B/C[range(0,0)]]//E", "/A", "/A/B", "/A/B/C", "//C", "//E",
        "/A/*", "//*", "/A/B/C[range(0,4)]", "/A[/B]/D", "/Z", "//A/Q",
        "/A/B[range(0,100)]", "/A/B/C[contains(x)]"}) {
    ExpectIdentical(synopsis, query);
  }
}

TEST(FlatEstimatorTest, CyclicSynopsisBitIdentical) {
  GraphSynopsis synopsis = MakeCyclic();
  for (const char* query : {"//text", "//parlist", "//parlist//text",
                            "/parlist/parlist", "//*"}) {
    ExpectIdentical(synopsis, query);
  }
}

TEST(FlatEstimatorTest, EmptySynopsisAndEmptyPlan) {
  GraphSynopsis synopsis;
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  EXPECT_EQ(flat.num_nodes(), 0u);
  EXPECT_EQ(flat.root(), kNoFlatNode);
  FlatEstimator estimator(flat);
  EXPECT_EQ(estimator.Estimate(CompiledTwig()), 0.0);
}

/// Asserts the legacy and flat EXPLAIN breakdowns agree exactly — doubles
/// with EXPECT_EQ, not EXPECT_NEAR. Legacy Explain walks per-variable
/// masses in sorted node order precisely so this holds.
void ExpectExplainIdentical(const GraphSynopsis& synopsis,
                            const std::string& query) {
  XClusterEstimator legacy(synopsis);
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  FlatEstimator estimator(flat);
  const TwigQuery twig = MustParse(query);
  const EstimateExplanation from_legacy = legacy.Explain(twig);
  const EstimateExplanation from_flat =
      estimator.Explain(CompiledTwig::Compile(twig, flat));
  EXPECT_EQ(from_flat.selectivity, from_legacy.selectivity) << query;
  ASSERT_EQ(from_flat.vars.size(), from_legacy.vars.size()) << query;
  for (size_t v = 0; v < from_flat.vars.size(); ++v) {
    EXPECT_EQ(from_flat.vars[v].expected_bindings,
              from_legacy.vars[v].expected_bindings)
        << query << " var " << v;
    EXPECT_EQ(from_flat.vars[v].predicate_selectivity,
              from_legacy.vars[v].predicate_selectivity)
        << query << " var " << v;
    EXPECT_EQ(from_flat.vars[v].step, from_legacy.vars[v].step);
  }
  EXPECT_EQ(from_flat.ToString(), from_legacy.ToString()) << query;
}

TEST(FlatEstimatorTest, ExplainBitIdenticalToLegacy) {
  GraphSynopsis fig7 = MakeFig7();
  for (const char* query :
       {"//A[/B/C[range(0,0)]]//E", "/A/B/C[range(0,4)]", "//C", "/A/*",
        "//*", "/A[/B]/D", "/Z"}) {
    ExpectExplainIdentical(fig7, query);
  }

  GraphSynopsis cyclic = MakeCyclic();
  for (const char* query :
       {"//text", "//parlist//text", "/parlist/parlist", "//*"}) {
    ExpectExplainIdentical(cyclic, query);
  }
}

TEST(FlatEstimatorTest, ExplainSelectivityMatchesEstimate) {
  GraphSynopsis synopsis = MakeFig7();
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  FlatEstimator estimator(flat);
  XClusterEstimator legacy(synopsis);
  const TwigQuery twig = MustParse("/A/B/C[range(0,4)]");
  const CompiledTwig plan = CompiledTwig::Compile(twig, flat);
  EstimateExplanation explanation = estimator.Explain(plan);
  EXPECT_EQ(explanation.selectivity, legacy.Estimate(twig));
  ASSERT_EQ(explanation.vars.size(), 4u);
  EXPECT_NEAR(explanation.vars[3].expected_bindings, 250.0, 1e-9);
  EXPECT_EQ(explanation.vars[3].step, "/C");
}

/// Full pipeline comparison on a generated data set: reference synopsis
/// plus a budget-built (merged — i.e. containing dead arena nodes)
/// synopsis, across a generated fig8-style workload. Each query is
/// checked one lane at a time (Estimate, Explain) and as a lane of its
/// group when the whole workload is partitioned with BatchPlan::Build.
/// The engine reads the summaries decoded from the image and the oracle
/// the graph's, so this also holds the summary codec exact for `kind`.
void RunWorkloadSuite(const GeneratedDataset& dataset, size_t num_queries,
                      NumericSummaryKind kind) {
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  ref_options.numeric_summary = kind;
  GraphSynopsis reference = BuildReferenceSynopsis(dataset.doc, ref_options);
  WorkloadOptions wl_options;
  wl_options.num_queries = num_queries;
  Workload workload = GenerateWorkload(dataset.doc, reference, wl_options);
  ASSERT_GT(workload.queries.size(), 0u);

  BuildOptions build_options;
  build_options.structural_budget = 4 * 1024;
  build_options.value_budget = 16 * 1024;
  GraphSynopsis merged = XClusterBuild(reference, build_options, nullptr);

  for (const GraphSynopsis* synopsis : {&reference, &merged}) {
    XClusterEstimator legacy(*synopsis);
    const std::shared_ptr<const FlatSynopsis> compiled =
        storage::CompileXcsf(*synopsis);
    const FlatSynopsis& flat = *compiled;
    FlatEstimator estimator(flat);
    std::vector<CompiledTwig> plans;
    plans.reserve(workload.queries.size());
    std::vector<double> expected;
    for (const WorkloadQuery& query : workload.queries) {
      plans.push_back(CompiledTwig::Compile(query.query, flat));
      const CompiledTwig& plan = plans.back();
      expected.push_back(legacy.Estimate(query.query));
      EXPECT_EQ(estimator.Estimate(plan), expected.back());
      // EXPLAIN breakdowns must agree exactly too (legacy walks nodes in
      // sorted order specifically to make this comparison exact).
      const EstimateExplanation flat_explain = estimator.Explain(plan);
      const EstimateExplanation legacy_explain = legacy.Explain(query.query);
      EXPECT_EQ(flat_explain.selectivity, legacy_explain.selectivity);
      EXPECT_EQ(flat_explain.ToString(), legacy_explain.ToString());
    }

    // The whole workload as one batch: every lane of every group, on a
    // fresh estimator so the groups fill the reach cache themselves.
    FlatEstimator batch_estimator(flat);
    std::vector<const CompiledTwig*> slots;
    for (const CompiledTwig& plan : plans) slots.push_back(&plan);
    const BatchPlan partition = BatchPlan::Build(slots);
    EXPECT_LT(partition.num_groups(), workload.queries.size());
    for (const BatchPlan::Group& group : partition.groups()) {
      std::vector<double> lanes(group.num_lanes());
      batch_estimator.EstimateLanes(group.plans, lanes.data());
      for (size_t lane = 0; lane < group.num_lanes(); ++lane) {
        for (const uint32_t slot : group.lane_slots[lane]) {
          EXPECT_EQ(lanes[lane], expected[slot])
              << workload.queries[slot].query.ToString();
        }
      }
    }
  }
}

TEST(FlatEstimatorTest, XMarkWorkloadSuiteBitIdentical) {
  XMarkOptions options;
  options.scale = 0.05;
  RunWorkloadSuite(GenerateXMark(options), 150,
                   NumericSummaryKind::kHistogram);
}

TEST(FlatEstimatorTest, ImdbWorkloadSuiteBitIdentical) {
  ImdbOptions options;
  options.scale = 0.05;
  RunWorkloadSuite(GenerateImdb(options), 150, NumericSummaryKind::kHistogram);
}

TEST(FlatEstimatorTest, ImdbWaveletWorkloadSuiteBitIdentical) {
  ImdbOptions options;
  options.scale = 0.05;
  RunWorkloadSuite(GenerateImdb(options), 150, NumericSummaryKind::kWavelet);
}

TEST(FlatEstimatorTest, ImdbSampleWorkloadSuiteBitIdentical) {
  ImdbOptions options;
  options.scale = 0.05;
  RunWorkloadSuite(GenerateImdb(options), 150, NumericSummaryKind::kSample);
}

TEST(FlatEstimatorTest, TreebankWorkloadSuiteBitIdentical) {
  // Deep recursive trees: most steps go through descendant reach.
  TreebankOptions options;
  options.scale = 0.05;
  RunWorkloadSuite(GenerateTreebank(options), 150,
                   NumericSummaryKind::kHistogram);
}

/// One synopsis with its plans, their lane groups and the oracle's
/// estimate of each plan, estimated without a reach cache.
struct ScratchFixture {
  ScratchFixture(GraphSynopsis source, const std::vector<TwigQuery>& queries)
      : graph(std::move(source)), flat(storage::CompileXcsf(graph)) {
    EstimateOptions uncached;
    uncached.reach_cache_capacity = 0;
    estimator = std::make_unique<FlatEstimator>(*flat, uncached);
    XClusterEstimator oracle(graph);
    plans.reserve(queries.size());
    for (const TwigQuery& query : queries) {
      plans.push_back(CompiledTwig::Compile(query, *flat));
      expected.push_back(oracle.Estimate(query));
    }
    std::vector<const CompiledTwig*> slots;
    for (const CompiledTwig& plan : plans) slots.push_back(&plan);
    partition = BatchPlan::Build(slots);
  }

  /// Runs `lanes` lanes of group `g` (its plans repeated round robin from
  /// `offset`) and holds each to the oracle; returns the lanes run.
  size_t CheckGroup(size_t g, size_t lanes, size_t offset) const {
    const BatchPlan::Group& group = partition.groups()[g];
    std::vector<const CompiledTwig*> lane_plans;
    std::vector<uint32_t> lane_slots;
    for (size_t l = 0; l < lanes; ++l) {
      const size_t lane = (offset + l) % group.num_lanes();
      lane_plans.push_back(group.plans[lane]);
      lane_slots.push_back(group.lane_slots[lane].front());
    }
    std::vector<double> estimates(lanes, -1.0);
    estimator->EstimateLanes(lane_plans, estimates.data());
    for (size_t l = 0; l < lanes; ++l) {
      EXPECT_EQ(estimates[l], expected[lane_slots[l]])
          << "group " << g << " lane " << l << " of " << lanes;
    }
    return lanes;
  }

  GraphSynopsis graph;
  std::shared_ptr<const FlatSynopsis> flat;
  std::unique_ptr<FlatEstimator> estimator;
  std::vector<CompiledTwig> plans;
  std::vector<double> expected;
  BatchPlan partition;
};

std::vector<TwigQuery> ParseAll(const std::vector<std::string>& queries) {
  std::vector<TwigQuery> parsed;
  for (const std::string& query : queries) parsed.push_back(MustParse(query));
  return parsed;
}

TEST(FlatEstimatorTest, ScratchReuseAcrossSynopsesAndShapes) {
  // The kernel's and the reach DP's buffers are per thread and reused by
  // every call, whatever the synopsis: one thread alternates the XMark
  // workload synopsis with the small Fig. 7 and cyclic ones, with plans
  // whose variable counts grow and then shrink and 1 to 8 lanes per
  // call, and without a reach cache, so every descendant step recomputes
  // its reach on the reused arrays. Every lane must equal the oracle.
  XMarkOptions options;
  options.scale = 0.05;
  const GeneratedDataset dataset = GenerateXMark(options);
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  GraphSynopsis reference = BuildReferenceSynopsis(dataset.doc, ref_options);
  WorkloadOptions wl_options;
  wl_options.num_queries = 150;
  const Workload workload = GenerateWorkload(dataset.doc, reference,
                                             wl_options);
  std::vector<TwigQuery> xmark_queries;
  for (const WorkloadQuery& query : workload.queries) {
    xmark_queries.push_back(query.query);
  }
  const ScratchFixture xmark(std::move(reference), xmark_queries);
  const ScratchFixture fig7(
      MakeFig7(),
      ParseAll({"//A[/B/C[range(0,0)]]//E", "/A", "/A/B/C", "//C", "//E",
                "/A/*", "//*", "/A/B/C[range(0,4)]", "/A[/B]/D", "//A/Q",
                "/A/B[range(0,100)]", "//A[/B//C][/D]//E"}));
  const ScratchFixture cyclic(
      MakeCyclic(), ParseAll({"//text", "//parlist", "//parlist//text",
                              "/parlist/parlist", "//*", "//R//text",
                              "//parlist[/text]//parlist//text"}));
  ASSERT_GT(xmark.flat->num_nodes(), fig7.flat->num_nodes());

  // XMark's groups by variable count, growing, then the same shrinking.
  std::vector<size_t> order(xmark.partition.num_groups());
  for (size_t g = 0; g < order.size(); ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return xmark.partition.groups()[a].plans.front()->size() <
           xmark.partition.groups()[b].plans.front()->size();
  });
  std::vector<size_t> schedule = order;
  schedule.insert(schedule.end(), order.rbegin(), order.rend());
  ASSERT_LT(xmark.partition.groups()[order.front()].plans.front()->size(),
            xmark.partition.groups()[order.back()].plans.front()->size());

  size_t lanes_checked = 0;
  for (size_t step = 0; step < schedule.size(); ++step) {
    const size_t lanes = 1 + step % 8;
    lanes_checked += xmark.CheckGroup(schedule[step], lanes, step);
    const ScratchFixture& small = step % 2 == 0 ? fig7 : cyclic;
    const ScratchFixture& other = step % 2 == 0 ? cyclic : fig7;
    lanes_checked += small.CheckGroup(
        step % small.partition.num_groups(), 8 - step % 8, step);
    const size_t plan = step % other.plans.size();
    EXPECT_EQ(other.estimator->Estimate(other.plans[plan]),
              other.expected[plan]);
    const size_t xmark_plan = (7 * step) % xmark.plans.size();
    EXPECT_EQ(xmark.estimator->Estimate(xmark.plans[xmark_plan]),
              xmark.expected[xmark_plan]);
  }
  EXPECT_GT(lanes_checked, 2 * schedule.size());
  EXPECT_EQ(xmark.estimator->reach_cache().size(), 0u);
}

TEST(FlatEstimatorTest, BoundedCacheDoesNotChangeEstimates) {
  GraphSynopsis synopsis = MakeFig7();
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  EstimateOptions tiny;
  tiny.reach_cache_capacity = 1;
  tiny.reach_cache_shards = 1;
  FlatEstimator thrashing(flat, tiny);
  FlatEstimator roomy(flat);
  for (const char* query : {"//C", "//E", "//C", "//E", "//*"}) {
    const CompiledTwig plan = CompiledTwig::Compile(MustParse(query), flat);
    EXPECT_EQ(thrashing.Estimate(plan), roomy.Estimate(plan)) << query;
  }
  EXPECT_LE(thrashing.reach_cache().size(), 1u);
}

}  // namespace
}  // namespace xcluster
