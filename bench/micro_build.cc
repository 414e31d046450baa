// Engineering micro-benchmarks (google-benchmark) for the system-level
// pipeline: reference-synopsis construction, XCLUSTERBUILD, exact
// evaluation, and synopsis estimation throughput.

#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "build/builder.h"
#include "data/imdb.h"
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
