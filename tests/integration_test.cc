#include <gtest/gtest.h>

#include "build/builder.h"
#include "data/imdb.h"
#include "data/xmark.h"
#include "oracle/xcluster_estimator.h"
#include "eval/evaluator.h"
#include "synopsis/reference.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace xcluster {
namespace {

/// End-to-end checks tying generation, reference construction, workload
/// sampling, XClusterBuild, estimation, and the error metric together.
class IntegrationTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      XMarkOptions options;
      options.scale = 0.1;
      dataset_ = GenerateXMark(options);
    } else {
      ImdbOptions options;
      options.scale = 0.1;
      dataset_ = GenerateImdb(options);
    }
    ReferenceOptions ref_options;
    ref_options.value_paths = dataset_.value_paths;
    reference_ = BuildReferenceSynopsis(dataset_.doc, ref_options);
    WorkloadOptions wl_options;
    wl_options.num_queries = 150;
    workload_ = GenerateWorkload(dataset_.doc, reference_, wl_options);
  }

  std::vector<double> Estimates(const GraphSynopsis& synopsis) {
    XClusterEstimator estimator(synopsis);
    std::vector<double> estimates;
    estimates.reserve(workload_.queries.size());
    for (const WorkloadQuery& q : workload_.queries) {
      estimates.push_back(estimator.Estimate(q.query));
    }
    return estimates;
  }

  GeneratedDataset dataset_;
  GraphSynopsis reference_;
  Workload workload_;
};

TEST_P(IntegrationTest, ReferenceEstimatesStructuralQueriesExactly) {
  // Count-stability + unique incoming paths make reference estimates of
  // purely structural twigs exact (up to floating-point noise).
  XClusterEstimator estimator(reference_);
  for (const WorkloadQuery& q : workload_.queries) {
    if (q.pred_class != ValueType::kNone) continue;
    double estimate = estimator.Estimate(q.query);
    EXPECT_NEAR(estimate, q.true_selectivity,
                1e-6 * (1.0 + q.true_selectivity))
        << q.query.ToString();
  }
}

TEST_P(IntegrationTest, ReferenceIsAccurateOverall) {
  ErrorReport report = EvaluateErrors(workload_, Estimates(reference_));
  EXPECT_LT(report.overall.avg_rel_error, 0.15) << dataset_.name;
}

TEST_P(IntegrationTest, CompressedSynopsisStaysReasonable) {
  BuildOptions options;
  options.structural_budget = reference_.StructuralBytes() / 3;
  options.value_budget = reference_.ValueBytes() / 3;
  GraphSynopsis synopsis = XClusterBuild(reference_, options, nullptr);
  ErrorReport report = EvaluateErrors(workload_, Estimates(synopsis));
  EXPECT_LT(report.overall.avg_rel_error, 0.5) << dataset_.name;
}

TEST_P(IntegrationTest, ErrorDecreasesWithStructuralBudget) {
  BuildOptions tiny;
  tiny.structural_budget = 0;
  tiny.value_budget = reference_.ValueBytes() / 4;
  GraphSynopsis coarse = XClusterBuild(reference_, tiny, nullptr);

  BuildOptions large;
  large.structural_budget = reference_.StructuralBytes();
  large.value_budget = reference_.ValueBytes() / 4;
  GraphSynopsis fine = XClusterBuild(reference_, large, nullptr);

  ErrorReport coarse_report = EvaluateErrors(workload_, Estimates(coarse));
  ErrorReport fine_report = EvaluateErrors(workload_, Estimates(fine));
  EXPECT_LE(fine_report.overall.avg_rel_error,
            coarse_report.overall.avg_rel_error + 0.02)
      << dataset_.name;
}

TEST_P(IntegrationTest, NegativeWorkloadEstimatesNearZero) {
  WorkloadOptions options;
  options.num_queries = 60;
  options.positive = false;
  Workload negative = GenerateWorkload(dataset_.doc, reference_, options);
  ASSERT_GT(negative.queries.size(), 10u);

  BuildOptions build;
  build.structural_budget = 4096;
  build.value_budget = 16384;
  GraphSynopsis synopsis = XClusterBuild(reference_, build, nullptr);
  XClusterEstimator estimator(synopsis);
  double total_estimate = 0.0;
  for (const WorkloadQuery& q : negative.queries) {
    total_estimate += estimator.Estimate(q.query);
  }
  EXPECT_LT(total_estimate / static_cast<double>(negative.queries.size()),
            1.0)
      << dataset_.name;
}

TEST_P(IntegrationTest, DeltaGuidedBeatsRandomMerging) {
  BuildOptions guided;
  guided.structural_budget = reference_.StructuralBytes() / 8;
  guided.value_budget = reference_.ValueBytes() / 4;
  GraphSynopsis guided_syn = XClusterBuild(reference_, guided, nullptr);

  BuildOptions random = guided;
  random.policy = MergePolicy::kRandom;
  // Average over a few seeds to avoid flakiness.
  double random_error = 0.0;
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    random.seed = seed;
    GraphSynopsis random_syn = XClusterBuild(reference_, random, nullptr);
    random_error +=
        EvaluateErrors(workload_, Estimates(random_syn)).overall.avg_rel_error;
  }
  random_error /= 3.0;
  double guided_error =
      EvaluateErrors(workload_, Estimates(guided_syn)).overall.avg_rel_error;
  EXPECT_LT(guided_error, random_error + 0.02) << dataset_.name;
}

INSTANTIATE_TEST_SUITE_P(Datasets, IntegrationTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "XMark" : "IMDB";
                         });

}  // namespace
}  // namespace xcluster
