// Randomized whole-system invariants: random small documents, random merge
// sequences, and random queries exercised against properties that must hold
// regardless of the draw.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "build/builder.h"
#include "build/delta.h"
#include "common/rng.h"
#include "core/xcluster.h"
#include "estimate/batch_estimator.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "eval/evaluator.h"
#include "oracle/merge_score.h"
#include "oracle/xcluster_estimator.h"
#include "random_twigs.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"
#include "xml/document.h"

namespace xcluster {
namespace {

class RandomizedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedTest, ReferenceEstimatesStructuralQueriesExactly) {
  Rng rng(GetParam());
  XmlDocument doc = RandomDocument(&rng, 150);
  GraphSynopsis reference = BuildReferenceSynopsis(doc, ReferenceOptions());
  ExactEvaluator evaluator(doc, reference.term_dictionary().get());
  XClusterEstimator estimator(reference);
  for (int i = 0; i < 40; ++i) {
    TwigQuery query = RandomStructuralQuery(&rng);
    double truth = evaluator.Selectivity(query);
    double estimate = estimator.Estimate(query);
    EXPECT_NEAR(estimate, truth, 1e-6 * (1.0 + truth)) << query.ToString();
  }
}

// The serving engine, not only the oracle, answers a reference synopsis
// exactly: FlatEstimator over the compiled image, one plan at a time and
// as the lanes of the batch partition a served batch runs.
TEST_P(RandomizedTest, ServingEngineEstimatesStructuralQueriesExactly) {
  Rng rng(GetParam());
  XmlDocument doc = RandomDocument(&rng, 150);
  GraphSynopsis reference = BuildReferenceSynopsis(doc, ReferenceOptions());
  ExactEvaluator evaluator(doc, reference.term_dictionary().get());
  const std::shared_ptr<const FlatSynopsis> flat =
      storage::CompileXcsf(reference);
  ASSERT_NE(flat, nullptr);
  const FlatEstimator estimator(*flat);
  std::vector<TwigQuery> queries;
  std::vector<CompiledTwig> plans;
  for (int i = 0; i < 40; ++i) {
    queries.push_back(RandomStructuralQuery(&rng));
    plans.push_back(CompiledTwig::Compile(queries.back(), *flat));
  }
  std::vector<double> truth;
  for (size_t i = 0; i < queries.size(); ++i) {
    truth.push_back(evaluator.Selectivity(queries[i]));
    EXPECT_NEAR(estimator.Estimate(plans[i]), truth[i],
                1e-6 * (1.0 + truth[i]))
        << queries[i].ToString();
  }

  std::vector<const CompiledTwig*> slots;
  for (const CompiledTwig& plan : plans) slots.push_back(&plan);
  const BatchPlan batch = BatchPlan::Build(slots);
  size_t answered = 0;
  for (const BatchPlan::Group& group : batch.groups()) {
    std::vector<double> lanes(group.num_lanes());
    estimator.EstimateLanes(group.plans, lanes.data());
    for (size_t lane = 0; lane < group.num_lanes(); ++lane) {
      for (const uint32_t slot : group.lane_slots[lane]) {
        EXPECT_NEAR(lanes[lane], truth[slot], 1e-6 * (1.0 + truth[slot]))
            << queries[slot].ToString();
        ++answered;
      }
    }
  }
  EXPECT_EQ(answered, queries.size());
}

TEST_P(RandomizedTest, MergeSequencePreservesInvariants) {
  Rng rng(GetParam());
  XmlDocument doc = RandomDocument(&rng, 200);
  GraphSynopsis synopsis = BuildReferenceSynopsis(doc, ReferenceOptions());
  const double doc_size = static_cast<double>(doc.size());

  // Merge random compatible pairs until none remain.
  for (int step = 0; step < 500; ++step) {
    std::vector<SynNodeId> alive = synopsis.AliveNodes();
    std::vector<std::pair<SynNodeId, SynNodeId>> compatible;
    for (size_t i = 0; i < alive.size(); ++i) {
      for (size_t j = i + 1; j < alive.size(); ++j) {
        const SynNode& u = synopsis.node(alive[i]);
        const SynNode& v = synopsis.node(alive[j]);
        if (u.label == v.label && u.type == v.type) {
          compatible.push_back({alive[i], alive[j]});
        }
      }
    }
    if (compatible.empty()) break;

    // Every compatible pair scores bit-identically to the map-based oracle.
    for (const auto& [a, b] : compatible) {
      EXPECT_EQ(MergeDelta(synopsis, a, b, DeltaOptions()),
                OracleMergeDelta(synopsis, a, b, DeltaOptions()))
          << "step " << step << " pair " << a << "," << b;
      EXPECT_EQ(MergeSavings(synopsis, a, b),
                OracleMergeSavings(synopsis, a, b))
          << "step " << step << " pair " << a << "," << b;
    }

    auto [u, v] = compatible[rng.Uniform(compatible.size())];

    // Invariant inputs before the merge.
    const double mass_uv = synopsis.node(u).count + synopsis.node(v).count;
    const size_t predicted_savings = MergeSavings(synopsis, u, v);
    const size_t bytes_before = synopsis.StructuralBytes();
    SynNodeId w = synopsis.MergeNodes(u, v);
    EXPECT_NEAR(synopsis.node(w).count, mass_uv, 1e-9);
    // The candidate evaluator's byte model matches reality.
    EXPECT_EQ(bytes_before - synopsis.StructuralBytes(), predicted_savings);

    // The live counters behind StructuralBytes() match a recount.
    size_t recounted_edges = 0;
    for (SynNodeId id : synopsis.AliveNodes()) {
      recounted_edges += synopsis.node(id).children.size();
    }
    EXPECT_EQ(synopsis.NodeCount(), synopsis.AliveNodes().size());
    EXPECT_EQ(synopsis.EdgeCount(), recounted_edges);

    // Total extent mass conserved.
    double total = 0.0;
    for (SynNodeId id : synopsis.AliveNodes()) {
      total += synopsis.node(id).count;
    }
    EXPECT_NEAR(total, doc_size, 1e-6);

    // Parent/child links consistent.
    for (SynNodeId id : synopsis.AliveNodes()) {
      for (const SynEdge& edge : synopsis.node(id).children) {
        EXPECT_TRUE(synopsis.node(edge.target).alive);
        const auto& parents = synopsis.node(edge.target).parents;
        EXPECT_NE(std::find(parents.begin(), parents.end(), id),
                  parents.end());
      }
      for (SynNodeId parent : synopsis.node(id).parents) {
        EXPECT_TRUE(synopsis.node(parent).alive);
        EXPECT_GT(synopsis.EdgeCount(parent, id), 0.0);
      }
    }
  }
}

TEST_P(RandomizedTest, SerializationRoundTripAfterRandomBuild) {
  Rng rng(GetParam());
  XmlDocument doc = RandomDocument(&rng, 150);
  XCluster::Options options;
  options.build.structural_budget = 64 + rng.Uniform(512);
  options.build.value_budget = 128 + rng.Uniform(1024);
  XCluster built = XCluster::Build(doc, options);
  std::string path = testing::TempDir() + "/randomized_" +
                     std::to_string(GetParam()) + ".xcsf";
  ASSERT_TRUE(built.Save(path).ok());
  Result<XCluster> loaded = XCluster::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().SizeBytes(), built.SizeBytes());
  for (int i = 0; i < 20; ++i) {
    TwigQuery query = RandomStructuralQuery(&rng);
    EXPECT_EQ(loaded.value().EstimateSelectivity(query),
              built.EstimateSelectivity(query))
        << query.ToString();
  }
}

TEST_P(RandomizedTest, BudgetsAlwaysMet) {
  Rng rng(GetParam());
  XmlDocument doc = RandomDocument(&rng, 250);
  GraphSynopsis reference = BuildReferenceSynopsis(doc, ReferenceOptions());
  BuildOptions options;
  options.structural_budget = rng.Uniform(reference.StructuralBytes() + 1);
  options.value_budget = rng.Uniform(reference.ValueBytes() + 1);
  GraphSynopsis synopsis = XClusterBuild(reference, options, nullptr);
  // Structural budget can be unreachable below the tag floor; value budget
  // below the incompressible floor likewise. Check against the floors.
  GraphSynopsis tag = BuildTagSynopsis(doc, ReferenceOptions());
  EXPECT_LE(synopsis.StructuralBytes(),
            std::max(options.structural_budget, tag.StructuralBytes()));
  EXPECT_GE(synopsis.NodeCount(), tag.NodeCount());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace xcluster
