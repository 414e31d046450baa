// Engineering micro-benchmarks (google-benchmark) for the system-level
// pipeline: reference-synopsis construction, XCLUSTERBUILD, exact
// evaluation, and synopsis estimation throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "bench_json.h"
#include "build/builder.h"
#include "common/telemetry/metrics.h"
#include "data/imdb.h"
#include "data/xmark.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "eval/evaluator.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"
#include "workload/generator.h"

namespace xcluster {
namespace {

const GeneratedDataset& Dataset() {
  static const auto& dataset = *new GeneratedDataset([] {
    ImdbOptions options;
    options.scale = 0.2;
    return GenerateImdb(options);
  }());
  return dataset;
}

const GraphSynopsis& Reference() {
  static const auto& reference = *new GraphSynopsis([] {
    ReferenceOptions options;
    options.value_paths = Dataset().value_paths;
    return BuildReferenceSynopsis(Dataset().doc, options);
  }());
  return reference;
}

const Workload& Queries() {
  static const auto& workload = *new Workload([] {
    WorkloadOptions options;
    options.num_queries = 200;
    return GenerateWorkload(Dataset().doc, Reference(), options);
  }());
  return workload;
}

void BM_ReferenceBuild(benchmark::State& state) {
  ReferenceOptions options;
  options.value_paths = Dataset().value_paths;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildReferenceSynopsis(Dataset().doc, options));
  }
  state.SetItemsProcessed(state.iterations() * Dataset().doc.size());
}
BENCHMARK(BM_ReferenceBuild)->Unit(benchmark::kMillisecond);

void BM_XClusterBuild(benchmark::State& state) {
  BuildOptions options;
  options.structural_budget = static_cast<size_t>(state.range(0));
  options.value_budget = Reference().ValueBytes() / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(XClusterBuild(Reference(), options, nullptr));
  }
}
BENCHMARK(BM_XClusterBuild)
    ->Arg(0)
    ->Arg(4 * 1024)
    ->Arg(16 * 1024)
    ->Unit(benchmark::kMillisecond);

/// perfbench's build: XMark scale 1.0, seed 7, Bstr 20 KB and Bval =
/// min(150 KB, 60% of the reference's value bytes). Besides the whole
/// XClusterBuild, reports each phase's mean seconds per build, read off the
/// build.phase1_ns and build.phase2_ns histograms (zero when telemetry is
/// compiled out).
const GraphSynopsis& PerfbenchReference() {
  static const auto& reference = *new GraphSynopsis([] {
    XMarkOptions xmark;
    xmark.scale = 1.0;
    xmark.seed = 7;
    const GeneratedDataset dataset = GenerateXMark(xmark);
    ReferenceOptions options;
    options.value_paths = dataset.value_paths;
    return BuildReferenceSynopsis(dataset.doc, options);
  }());
  return reference;
}

void BM_PerfbenchBuild(benchmark::State& state) {
  const GraphSynopsis& reference = PerfbenchReference();
  BuildOptions options;
  options.structural_budget = 20 * 1024;
  options.value_budget =
      std::min<size_t>(150 * 1024, reference.ValueBytes() * 6 / 10);
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  const telemetry::LatencyHistogram* phase1 =
      registry.GetHistogram("build.phase1_ns");
  const telemetry::LatencyHistogram* phase2 =
      registry.GetHistogram("build.phase2_ns");
  const uint64_t builds_before = phase1->count();
  const uint64_t phase1_before = phase1->sum_ns();
  const uint64_t phase2_before = phase2->sum_ns();
  BuildStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(XClusterBuild(reference, options, &stats));
  }
  const double builds = static_cast<double>(
      std::max<uint64_t>(phase1->count() - builds_before, 1));
  state.counters["phase1_s"] =
      static_cast<double>(phase1->sum_ns() - phase1_before) / 1e9 / builds;
  state.counters["phase2_s"] =
      static_cast<double>(phase2->sum_ns() - phase2_before) / 1e9 / builds;
  state.counters["merges"] = static_cast<double>(stats.merges_applied);
}
BENCHMARK(BM_PerfbenchBuild)->Unit(benchmark::kMillisecond);

void BM_ExactEvaluation(benchmark::State& state) {
  ExactEvaluator evaluator(Dataset().doc, Reference().term_dictionary().get());
  size_t i = 0;
  for (auto _ : state) {
    const WorkloadQuery& q = Queries().queries[i++ % Queries().queries.size()];
    benchmark::DoNotOptimize(evaluator.Selectivity(q.query));
  }
}
BENCHMARK(BM_ExactEvaluation)->Unit(benchmark::kMicrosecond);

void BM_SynopsisEstimation(benchmark::State& state) {
  BuildOptions options;
  options.structural_budget = 8 * 1024;
  options.value_budget = Reference().ValueBytes() / 2;
  GraphSynopsis synopsis = XClusterBuild(Reference(), options, nullptr);
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  const FlatEstimator estimator(flat);
  size_t i = 0;
  for (auto _ : state) {
    const WorkloadQuery& q = Queries().queries[i++ % Queries().queries.size()];
    benchmark::DoNotOptimize(
        estimator.Estimate(CompiledTwig::Compile(q.query, flat)));
  }
}
BENCHMARK(BM_SynopsisEstimation)->Unit(benchmark::kMicrosecond);

void BM_WorkloadGeneration(benchmark::State& state) {
  WorkloadOptions options;
  options.num_queries = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateWorkload(Dataset().doc, Reference(), options));
  }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xcluster

int main(int argc, char** argv) {
  return xcluster::bench::RunBenchmarksWithJson("micro_build", argc, argv);
}
