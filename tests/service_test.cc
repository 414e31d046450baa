#include "service/service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "data/xmark.h"
#include "synopsis/reference.h"
#include "workload/generator.h"

namespace xcluster {
namespace {

/// Fig. 7-style synopsis with a numeric summary and a cycle-free fanout
/// large enough that batches do real work.
XCluster MakeFixture() {
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
  return XCluster(std::move(synopsis));
}

std::unique_ptr<EstimationService> MakeService(size_t workers,
                                               size_t queue_capacity = 1024) {
  ServiceOptions options;
  options.executor.num_threads = workers;
  options.executor.queue_capacity = queue_capacity;
  auto service = std::make_unique<EstimationService>(options);
  service->store().Install("fig7", MakeFixture());
  return service;
}

const std::vector<std::string> kQueries = {
    "//A[/B/C[range(0,0)]]//E", "/A", "/A/B", "/A/B/C", "//C",
    "//E", "/A/*", "/A/B/C[range(0,4)]", "//A/Q", "/Z",
};

TEST(EstimationServiceTest, EstimateOneMatchesDirectEstimator) {
  auto service = MakeService(0);
  QueryResult result = service->EstimateOne("fig7", "/A/B/C[range(0,4)]");
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_NEAR(result.estimate, 250.0, 1e-9);

  QueryResult missing = service->EstimateOne("nope", "/A");
  EXPECT_EQ(missing.status.code(), Status::Code::kNotFound);

  QueryResult malformed = service->EstimateOne("fig7", "not a query");
  EXPECT_EQ(malformed.status.code(), Status::Code::kInvalidArgument);
}

TEST(EstimationServiceTest, BatchReportsPerQueryOutcomes) {
  auto service = MakeService(2);
  std::vector<std::string> queries = kQueries;
  queries.push_back("][broken");
  BatchResult batch = service->EstimateBatch("fig7", queries);
  ASSERT_EQ(batch.results.size(), queries.size());

  EXPECT_TRUE(batch.results[0].status.ok());
  EXPECT_NEAR(batch.results[0].estimate, 500.0, 1e-6);
  EXPECT_TRUE(batch.results[1].status.ok());
  EXPECT_NEAR(batch.results[1].estimate, 10.0, 1e-9);
  EXPECT_EQ(batch.results.back().status.code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(batch.stats.ok, queries.size() - 1);
  EXPECT_EQ(batch.stats.failed, 1u);
  EXPECT_GE(batch.stats.max_latency_ns, batch.stats.p50_latency_ns);
}

TEST(EstimationServiceTest, UnknownCollectionFailsEveryQuery) {
  auto service = MakeService(2);
  BatchResult batch = service->EstimateBatch("missing", kQueries);
  ASSERT_EQ(batch.results.size(), kQueries.size());
  for (const QueryResult& result : batch.results) {
    EXPECT_EQ(result.status.code(), Status::Code::kNotFound);
  }
  EXPECT_EQ(batch.stats.failed, kQueries.size());
}

// The determinism contract: the same batch, estimated inline, with one
// worker, and with many workers, produces bit-identical estimates and
// identical explanation VarStats.
TEST(EstimationServiceTest, WorkerCountDoesNotChangeResults) {
  BatchOptions options;
  options.explain = true;

  BatchResult baseline;
  {
    auto service = MakeService(0);
    baseline = service->EstimateBatch("fig7", kQueries, options);
  }
  ASSERT_EQ(baseline.results.size(), kQueries.size());
  for (size_t workers : {1u, 4u, 8u}) {
    auto service = MakeService(workers);
    BatchResult batch = service->EstimateBatch("fig7", kQueries, options);
    ASSERT_EQ(batch.results.size(), baseline.results.size());
    for (size_t i = 0; i < batch.results.size(); ++i) {
      EXPECT_EQ(batch.results[i].status.code(),
                baseline.results[i].status.code())
          << "workers=" << workers << " query " << kQueries[i];
      // Bit-identical, not nearly-equal.
      EXPECT_EQ(batch.results[i].estimate, baseline.results[i].estimate)
          << "workers=" << workers << " query " << kQueries[i];
      // The rendered explanation embeds every VarStats field.
      EXPECT_EQ(batch.results[i].explanation, baseline.results[i].explanation)
          << "workers=" << workers << " query " << kQueries[i];
    }
  }
}

// Same contract over a real dataset with descendant-heavy queries, where
// worker interleavings exercise the shared reach cache.
TEST(EstimationServiceTest, WorkerCountDeterminismOnXMark) {
  XMarkOptions xmark_options;
  xmark_options.scale = 0.05;
  GeneratedDataset dataset = GenerateXMark(xmark_options);
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  GraphSynopsis reference =
      BuildReferenceSynopsis(dataset.doc, ref_options);
  WorkloadOptions wl_options;
  wl_options.num_queries = 60;
  Workload workload = GenerateWorkload(dataset.doc, reference, wl_options);

  std::vector<std::string> queries;
  queries.reserve(workload.queries.size());
  for (const WorkloadQuery& query : workload.queries) {
    queries.push_back(query.query.ToString());
  }

  std::vector<double> baseline;
  for (size_t workers : {1u, 8u}) {
    ServiceOptions options;
    options.executor.num_threads = workers;
    EstimationService service(options);
    service.store().Install("xmark", XCluster(reference));
    BatchResult batch = service.EstimateBatch("xmark", queries);
    if (workers == 1u) {
      for (const QueryResult& result : batch.results) {
        EXPECT_TRUE(result.status.ok()) << result.status.ToString();
        baseline.push_back(result.estimate);
      }
    } else {
      ASSERT_EQ(batch.results.size(), baseline.size());
      for (size_t i = 0; i < batch.results.size(); ++i) {
        EXPECT_EQ(batch.results[i].estimate, baseline[i])
            << "query " << queries[i];
      }
    }
  }
}

// A batch with many more lane groups than queue slots exercises the
// flow-control path: 64 distinct skeletons (/A, /A/Q, /A/Q/Q, ...) make
// 64 groups for one worker and two queue slots, so submissions hit the
// cap and retry. Every query completes, none is lost to backpressure, and
// each equals EstimateOne bit for bit. Whether a submit finds the queue
// full depends on scheduling (a descheduled submitter lets the worker
// drain it), so batches repeat until one has met a full queue.
TEST(EstimationServiceTest, BatchLargerThanQueueCompletes) {
  auto service = MakeService(1, /*queue_capacity=*/2);
  std::vector<std::string> queries;
  std::vector<double> expected;
  std::string query = "/A";
  for (int k = 0; k < 64; ++k) {
    const QueryResult one = service->EstimateOne("fig7", query);
    ASSERT_TRUE(one.status.ok()) << one.status.ToString();
    queries.push_back(query);
    expected.push_back(one.estimate);
    query += "/Q";
  }
  for (int attempt = 0;
       attempt < 20 && service->executor().stats().rejected == 0;
       ++attempt) {
    BatchResult batch = service->EstimateBatch("fig7", queries);
    ASSERT_EQ(batch.results.size(), queries.size());
    EXPECT_EQ(batch.stats.batch_groups, queries.size());
    EXPECT_EQ(batch.stats.ok, queries.size());
    EXPECT_EQ(batch.stats.failed, 0u);
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(batch.results[i].status.ok())
          << batch.results[i].status.ToString();
      EXPECT_EQ(batch.results[i].estimate, expected[i]) << queries[i];
    }
  }
  EXPECT_GT(service->executor().stats().rejected, 0u)
      << "no batch reached flow control";
}

// An already-expired deadline fails queries with DeadlineExceeded instead
// of estimating them (some may still slip through on a fast machine if
// they were popped before the clock ticked — so assert on the aggregate).
TEST(EstimationServiceTest, ExpiredDeadlineShortCircuits) {
  auto service = MakeService(2);
  std::vector<std::string> queries;
  for (int i = 0; i < 50; ++i) queries.push_back("/A/B/C");
  BatchOptions options;
  options.deadline_ns = 1;  // expires effectively immediately
  BatchResult batch = service->EstimateBatch("fig7", queries, options);
  size_t deadline_exceeded = 0;
  for (const QueryResult& result : batch.results) {
    if (result.status.code() == Status::Code::kDeadlineExceeded) {
      ++deadline_exceeded;
    }
  }
  EXPECT_GT(deadline_exceeded, 0u);
  EXPECT_EQ(batch.stats.failed, deadline_exceeded);
}

// Hot-swapping the collection mid-stream never mixes generations within
// one batch: all results come from the snapshot resolved at submission.
TEST(EstimationServiceTest, BatchPinsItsSnapshot) {
  auto service = MakeService(2);
  std::vector<std::string> queries(50, "/A");
  BatchResult before = service->EstimateBatch("fig7", queries);
  service->store().Install("fig7", MakeFixture());  // new generation
  BatchResult after = service->EstimateBatch("fig7", queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(before.results[i].estimate, after.results[i].estimate);
  }
}

}  // namespace
}  // namespace xcluster
