// Estimator hot-path benchmark: measures the serving estimation path
// and writes BENCH_estimator.json ({benchmark, entries, metrics} — the
// shape scripts/check_metrics_schema.py validates).
//
//   1. Plan cache, cold vs warm: per-query service latency when every
//      query must be parsed + compiled (plan cache disabled) versus when
//      every query hits a compiled plan. Reach caches are pre-warmed in
//      both configurations so the delta isolates parse/compile cost.
//   2. Batch bit identity, then a batch-size sweep: one EstimateBatch over
//      the whole workload must equal per-slot EstimateOne bit for bit
//      (the bench aborts on any mismatch); then the workload runs through
//      EstimateBatch at several batch sizes.
//
//   bench_estimator [--queries N] [--scale S]
//
// Defaults: 5000 queries (the 250-query workload cycled), XMark scale
// 0.1.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/io/file_io.h"
#include "common/json.h"
#include "common/telemetry/metrics.h"
#include "data/xmark.h"
#include "service/service.h"
#include "synopsis/reference.h"
#include "workload/generator.h"

namespace xcluster {
namespace {

struct BenchConfig {
  size_t queries = 5000;
  double scale = 0.1;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint64_t Quantile(std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[index];
}

/// Drives every query through EstimateOne and returns the p50 of the
/// service-measured per-query latencies. `plan_capacity` 0 = the cold
/// configuration (every query re-parses and re-compiles).
struct ServiceRun {
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  double qps = 0.0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
};

ServiceRun RunService(const XCluster& synopsis,
                      const std::vector<std::string>& queries,
                      size_t plan_capacity) {
  ServiceOptions options;
  options.executor.num_threads = 0;
  options.plan_cache_capacity = plan_capacity;
  EstimationService service(options);
  service.store().Install("xmark", XCluster(synopsis));

  // Pre-warm the snapshot's reach caches (and, when enabled, the plan
  // cache) so the timed loop measures steady state.
  for (const std::string& query : queries) {
    service.EstimateOne("xmark", query);
  }

  std::vector<uint64_t> latencies;
  latencies.reserve(queries.size());
  size_t failed = 0;
  auto start = std::chrono::steady_clock::now();
  for (const std::string& query : queries) {
    const uint64_t call_start_ns = telemetry::MonotonicNowNs();
    QueryResult result = service.EstimateOne("xmark", query);
    const uint64_t call_ns = telemetry::MonotonicNowNs() - call_start_ns;
    if (result.status.ok()) {
      latencies.push_back(call_ns);
    } else {
      ++failed;
    }
  }
  const double seconds = SecondsSince(start);
  if (failed > 0) {
    std::fprintf(stderr, "bench_estimator: %zu queries failed\n", failed);
  }

  std::sort(latencies.begin(), latencies.end());
  ServiceRun run;
  run.p50_ns = Quantile(latencies, 0.50);
  run.p95_ns = Quantile(latencies, 0.95);
  run.qps = seconds > 0.0
                ? static_cast<double>(queries.size()) / seconds
                : 0.0;
  run.plan_hits = service.plan_cache().hits();
  run.plan_misses = service.plan_cache().misses();
  return run;
}

JsonValue ServiceEntry(const std::string& name, const ServiceRun& run) {
  JsonValue entry = JsonValue::Object();
  entry.members()["name"] = JsonValue::String(name);
  entry.members()["p50_latency_us"] =
      JsonValue::Number(static_cast<double>(run.p50_ns) / 1e3);
  entry.members()["p95_latency_us"] =
      JsonValue::Number(static_cast<double>(run.p95_ns) / 1e3);
  entry.members()["qps"] = JsonValue::Number(run.qps);
  entry.members()["plan_hits"] =
      JsonValue::Number(static_cast<double>(run.plan_hits));
  entry.members()["plan_misses"] =
      JsonValue::Number(static_cast<double>(run.plan_misses));
  return entry;
}

/// Batch-size sweep: drives the workload through EstimateBatch in batches
/// of `batch_size` (inline executor) and reports the
/// amortization curve — qps plus the average group/lane shape per batch.
/// `plan_capacity` 0 = cold plans (every batch re-parses, re-compiles,
/// re-groups); 4096 = warm (grouping runs over cached plan pointers).
struct SweepRun {
  double qps = 0.0;
  double avg_batch_groups = 0.0;
  double avg_lanes_per_group = 0.0;
};

SweepRun RunBatchSweep(const XCluster& synopsis,
                       const std::vector<std::string>& queries,
                       size_t batch_size, size_t plan_capacity) {
  ServiceOptions options;
  options.executor.num_threads = 0;
  options.plan_cache_capacity = plan_capacity;
  EstimationService service(options);
  service.store().Install("xmark", XCluster(synopsis));

  // Reach caches are pre-warmed in both configurations so the sweep
  // isolates per-batch compile + grouping + lane amortization, not
  // first-touch DP cost. With plan_capacity > 0 this also warms plans.
  for (const std::string& query : queries) {
    service.EstimateOne("xmark", query);
  }

  double total_groups = 0.0;
  double total_lanes = 0.0;
  size_t batches = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t begin = 0; begin < queries.size(); begin += batch_size) {
    const size_t end = std::min(queries.size(), begin + batch_size);
    const std::vector<std::string> slice(queries.begin() + begin,
                                         queries.begin() + end);
    BatchResult result = service.EstimateBatch("xmark", slice);
    total_groups += static_cast<double>(result.stats.batch_groups);
    total_lanes += static_cast<double>(result.stats.vector_lanes);
    ++batches;
  }
  const double seconds = SecondsSince(start);

  SweepRun run;
  run.qps = seconds > 0.0
                ? static_cast<double>(queries.size()) / seconds
                : 0.0;
  if (batches > 0) {
    run.avg_batch_groups = total_groups / static_cast<double>(batches);
  }
  if (total_groups > 0.0) {
    run.avg_lanes_per_group = total_lanes / total_groups;
  }
  return run;
}

int Main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      config.queries =
          static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      config.scale = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: bench_estimator [--queries N] [--scale S]\n");
      return 1;
    }
  }
  if (config.queries == 0) {
    std::fprintf(stderr, "bench_estimator: nothing to run\n");
    return 1;
  }

  std::fprintf(stderr, "bench_estimator: generating xmark scale=%g ...\n",
               config.scale);
  XMarkOptions xmark_options;
  xmark_options.scale = config.scale;
  GeneratedDataset dataset = GenerateXMark(xmark_options);
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  GraphSynopsis reference = BuildReferenceSynopsis(dataset.doc, ref_options);
  WorkloadOptions wl_options;
  wl_options.num_queries = 250;
  Workload workload = GenerateWorkload(dataset.doc, reference, wl_options);
  if (workload.queries.empty()) {
    std::fprintf(stderr, "bench_estimator: workload generation failed\n");
    return 1;
  }

  std::vector<std::string> query_strings;
  query_strings.reserve(config.queries);
  for (size_t i = 0; i < config.queries; ++i) {
    query_strings.push_back(
        workload.queries[i % workload.queries.size()].query.ToString());
  }

  JsonValue entries = JsonValue::Array();

  // --- 1. Plan cache: cold vs warm -------------------------------------
  const XCluster synopsis{GraphSynopsis(reference)};
  std::fprintf(stderr, "bench_estimator: %zu queries, cold plans ...\n",
               query_strings.size());
  ServiceRun cold = RunService(synopsis, query_strings, /*plan_capacity=*/0);
  std::fprintf(stderr, "bench_estimator: %zu queries, warm plans ...\n",
               query_strings.size());
  ServiceRun warm = RunService(synopsis, query_strings,
                               /*plan_capacity=*/4096);
  std::fprintf(stderr,
               "  cold p50=%.1fus qps=%.0f | warm p50=%.1fus qps=%.0f "
               "(hits=%llu misses=%llu)\n",
               static_cast<double>(cold.p50_ns) / 1e3, cold.qps,
               static_cast<double>(warm.p50_ns) / 1e3, warm.qps,
               static_cast<unsigned long long>(warm.plan_hits),
               static_cast<unsigned long long>(warm.plan_misses));
  entries.items().push_back(ServiceEntry("plan_cache/cold", cold));
  entries.items().push_back(ServiceEntry("plan_cache/warm", warm));

  // --- 2. Batch bit identity + batch-size sweep -----------------------
  // Hard gate first: one EstimateBatch over the whole query vector must
  // match per-slot EstimateOne, bit for bit.
  {
    ServiceOptions service_options;
    service_options.executor.num_threads = 0;
    EstimationService service(service_options);
    service.store().Install("xmark", XCluster(synopsis));
    BatchResult batched = service.EstimateBatch("xmark", query_strings);
    size_t batch_mismatches = 0;
    for (size_t i = 0; i < query_strings.size(); ++i) {
      const QueryResult one = service.EstimateOne("xmark", query_strings[i]);
      if (batched.results[i].estimate != one.estimate ||
          batched.results[i].status.ok() != one.status.ok()) {
        ++batch_mismatches;
      }
    }
    if (batch_mismatches > 0) {
      std::fprintf(stderr,
                   "bench_estimator: FAIL: %zu batch-vs-EstimateOne "
                   "mismatches\n",
                   batch_mismatches);
      return 1;
    }
    std::fprintf(stderr,
                 "bench_estimator: batch bit-identical to EstimateOne on "
                 "%zu slots (%zu groups, %zu lanes)\n",
                 query_strings.size(), batched.stats.batch_groups,
                 batched.stats.vector_lanes);
  }

  for (const size_t batch_size : {size_t{1}, size_t{8}, size_t{64},
                                  size_t{512}}) {
    for (const bool warm_plans : {false, true}) {
      SweepRun sweep = RunBatchSweep(synopsis, query_strings, batch_size,
                                     warm_plans ? 4096 : 0);
      std::fprintf(stderr,
                   "bench_estimator: batch_sweep size=%zu plans=%s "
                   "qps=%.0f groups/batch=%.1f lanes/group=%.1f\n",
                   batch_size, warm_plans ? "warm" : "cold", sweep.qps,
                   sweep.avg_batch_groups, sweep.avg_lanes_per_group);
      JsonValue entry = JsonValue::Object();
      entry.members()["name"] = JsonValue::String(
          "batch_sweep/size:" + std::to_string(batch_size) +
          (warm_plans ? "/plans:warm" : "/plans:cold"));
      entry.members()["batch_size"] =
          JsonValue::Number(static_cast<double>(batch_size));
      entry.members()["qps"] = JsonValue::Number(sweep.qps);
      entry.members()["batch_groups"] =
          JsonValue::Number(sweep.avg_batch_groups);
      entry.members()["lanes_per_group"] =
          JsonValue::Number(sweep.avg_lanes_per_group);
      entries.items().push_back(std::move(entry));
    }
  }

  JsonValue report = JsonValue::Object();
  report.members()["benchmark"] = JsonValue::String("estimator");
  report.members()["entries"] = std::move(entries);
  Result<JsonValue> metrics = ParseJson(
      telemetry::MetricsRegistry::Global().Snapshot().ToJson());
  if (metrics.ok()) {
    report.members()["metrics"] = std::move(metrics.value());
  }

  const std::string path = "BENCH_estimator.json";
  Status status = WriteFileAtomic(path, report.Dump(2) + "\n");
  if (!status.ok()) {
    std::fprintf(stderr, "bench_estimator: failed to write %s: %s\n",
                 path.c_str(), status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace xcluster

int main(int argc, char** argv) { return xcluster::Main(argc, argv); }
