#include "workload/io.h"

#include <gtest/gtest.h>

#include <fstream>

#include "data/xmark.h"
#include "oracle/xcluster_estimator.h"
#include "synopsis/reference.h"
#include "workload/metrics.h"

namespace xcluster {
namespace {

class WorkloadIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkOptions options;
    options.scale = 0.05;
    dataset_ = GenerateXMark(options);
    ReferenceOptions ref_options;
    ref_options.value_paths = dataset_.value_paths;
    reference_ = BuildReferenceSynopsis(dataset_.doc, ref_options);
    WorkloadOptions wl_options;
    wl_options.num_queries = 80;
    workload_ = GenerateWorkload(dataset_.doc, reference_, wl_options);
    path_ = testing::TempDir() + "/workload_io_test.tsv";
  }

  GeneratedDataset dataset_;
  GraphSynopsis reference_;
  Workload workload_;
  std::string path_;
};

TEST_F(WorkloadIoTest, RoundTripPreservesQueries) {
  ASSERT_TRUE(SaveWorkload(workload_, path_).ok());
  Result<Workload> loaded = LoadWorkload(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().queries.size(), workload_.queries.size());
  for (size_t i = 0; i < workload_.queries.size(); ++i) {
    const WorkloadQuery& original = workload_.queries[i];
    const WorkloadQuery& restored = loaded.value().queries[i];
    EXPECT_EQ(restored.pred_class, original.pred_class) << i;
    EXPECT_DOUBLE_EQ(restored.true_selectivity, original.true_selectivity);
    EXPECT_EQ(restored.query.ToString(), original.query.ToString()) << i;
  }
}

TEST_F(WorkloadIoTest, LoadedWorkloadEstimatesIdentically) {
  ASSERT_TRUE(SaveWorkload(workload_, path_).ok());
  Result<Workload> loaded = LoadWorkload(path_);
  ASSERT_TRUE(loaded.ok());
  XClusterEstimator estimator(reference_);
  for (size_t i = 0; i < workload_.queries.size(); ++i) {
    double a = estimator.Estimate(workload_.queries[i].query);
    double b = estimator.Estimate(loaded.value().queries[i].query);
    EXPECT_NEAR(a, b, 1e-9 * (1.0 + a))
        << workload_.queries[i].query.ToString();
  }
}

TEST_F(WorkloadIoTest, LoadMissingFileFails) {
  Result<Workload> loaded = LoadWorkload("/nonexistent/workload.tsv");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kIOError);
}

TEST_F(WorkloadIoTest, LoadGarbageFails) {
  std::ofstream out(path_);
  out << "not a workload line\n";
  out.close();
  Result<Workload> loaded = LoadWorkload(path_);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(WorkloadIoTest, LoadBadQueryFails) {
  std::ofstream out(path_);
  out << "Struct\t10\t//a[[\n";
  out.close();
  Result<Workload> loaded = LoadWorkload(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
}

TEST_F(WorkloadIoTest, EmptyWorkloadRoundTrips) {
  ASSERT_TRUE(SaveWorkload(Workload{}, path_).ok());
  Result<Workload> loaded = LoadWorkload(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().queries.empty());
}

}  // namespace
}  // namespace xcluster
