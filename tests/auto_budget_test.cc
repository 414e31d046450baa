#include "build/auto_budget.h"

#include <gtest/gtest.h>

#include "data/imdb.h"
#include "oracle/xcluster_estimator.h"
#include "synopsis/reference.h"
#include "workload/metrics.h"

namespace xcluster {
namespace {

class AutoBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImdbOptions options;
    options.scale = 0.08;
    dataset_ = GenerateImdb(options);
    ReferenceOptions ref_options;
    ref_options.value_paths = dataset_.value_paths;
    reference_ = BuildReferenceSynopsis(dataset_.doc, ref_options);
  }

  AutoBudgetOptions DefaultOptions(size_t total) {
    AutoBudgetOptions options;
    options.total_budget = total;
    options.sample_workload.num_queries = 80;
    options.sample_workload.seed = 99;
    return options;
  }

  GeneratedDataset dataset_;
  GraphSynopsis reference_;
};

TEST_F(AutoBudgetTest, MeetsTotalBudget) {
  AutoBudgetResult result =
      AutoBudgetBuild(dataset_.doc, reference_, DefaultOptions(24 * 1024));
  EXPECT_EQ(result.structural_budget + result.value_budget, 24u * 1024u);
  EXPECT_LE(result.synopsis.StructuralBytes(), result.structural_budget);
  EXPECT_LE(result.synopsis.ValueBytes(), result.value_budget);
}

TEST_F(AutoBudgetTest, ProbesCoarseAndRefinePoints) {
  AutoBudgetOptions options = DefaultOptions(24 * 1024);
  options.coarse_points = 4;
  options.refine_points = 2;
  AutoBudgetResult result =
      AutoBudgetBuild(dataset_.doc, reference_, options);
  EXPECT_EQ(result.probes, 6u);
}

TEST_F(AutoBudgetTest, ChoosesCompetitiveSplit) {
  // The automatically chosen split should not be worse on a held-out
  // workload than the worst of a set of fixed splits.
  AutoBudgetResult result =
      AutoBudgetBuild(dataset_.doc, reference_, DefaultOptions(24 * 1024));

  WorkloadOptions held_out;
  held_out.num_queries = 120;
  held_out.seed = 12345;
  Workload workload = GenerateWorkload(dataset_.doc, reference_, held_out);

  auto error_of = [&](const GraphSynopsis& synopsis) {
    XClusterEstimator estimator(synopsis);
    std::vector<double> estimates;
    for (const WorkloadQuery& q : workload.queries) {
      estimates.push_back(estimator.Estimate(q.query));
    }
    return EvaluateErrors(workload, estimates).overall.avg_rel_error;
  };

  double auto_error = error_of(result.synopsis);
  double worst_fixed = 0.0;
  for (double fraction : {0.05, 0.5, 0.8}) {
    BuildOptions fixed;
    fixed.structural_budget =
        static_cast<size_t>(fraction * 24.0 * 1024.0);
    fixed.value_budget = 24 * 1024 - fixed.structural_budget;
    GraphSynopsis synopsis = XClusterBuild(reference_, fixed, nullptr);
    worst_fixed = std::max(worst_fixed, error_of(synopsis));
  }
  EXPECT_LE(auto_error, worst_fixed + 0.02);
}

TEST_F(AutoBudgetTest, DeterministicGivenSeeds) {
  AutoBudgetResult a =
      AutoBudgetBuild(dataset_.doc, reference_, DefaultOptions(20 * 1024));
  AutoBudgetResult b =
      AutoBudgetBuild(dataset_.doc, reference_, DefaultOptions(20 * 1024));
  EXPECT_EQ(a.structural_budget, b.structural_budget);
  EXPECT_EQ(a.sample_error, b.sample_error);
}

TEST_F(AutoBudgetTest, SampleErrorReported) {
  AutoBudgetResult result =
      AutoBudgetBuild(dataset_.doc, reference_, DefaultOptions(24 * 1024));
  EXPECT_GE(result.sample_error, 0.0);
  EXPECT_LT(result.sample_error, 1.0);
}

}  // namespace
}  // namespace xcluster
