#ifndef XCLUSTER_BENCH_BENCH_UTIL_H_
#define XCLUSTER_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "build/builder.h"
#include "data/imdb.h"
#include "data/treebank.h"
#include "data/xmark.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace xcluster {
namespace bench {

/// Everything the experiment binaries need for one data set: the document,
/// its reference synopsis, and a positive query workload with ground truth.
struct Experiment {
  GeneratedDataset dataset;
  GraphSynopsis reference;
  Workload workload;
};

inline GeneratedDataset MakeDataset(const std::string& name, double scale) {
  if (name == "XMark") {
    XMarkOptions options;
    options.scale = scale;
    return GenerateXMark(options);
  }
  if (name == "Treebank") {
    TreebankOptions options;
    options.scale = scale;
    return GenerateTreebank(options);
  }
  ImdbOptions options;
  options.scale = scale;
  return GenerateImdb(options);
}

/// Builds the full experimental context for `name` in {"IMDB", "XMark"}.
/// `scale` = 1.0 is the paper-comparable configuration (~50k elements).
inline Experiment Setup(const std::string& name, double scale = 1.0,
                        size_t num_queries = 1000) {
  Experiment experiment;
  experiment.dataset = MakeDataset(name, scale);
  ReferenceOptions ref_options;
  ref_options.value_paths = experiment.dataset.value_paths;
  experiment.reference =
      BuildReferenceSynopsis(experiment.dataset.doc, ref_options);
  WorkloadOptions wl_options;
  wl_options.num_queries = num_queries;
  experiment.workload = GenerateWorkload(experiment.dataset.doc,
                                         experiment.reference, wl_options);
  return experiment;
}

/// Estimates every workload query against `synopsis` (compiled once into
/// a FlatSynopsis, then one plan per query).
inline std::vector<double> EstimateAll(const GraphSynopsis& synopsis,
                                       const Workload& workload) {
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  const FlatEstimator estimator(flat);
  std::vector<double> estimates;
  estimates.reserve(workload.queries.size());
  for (const WorkloadQuery& q : workload.queries) {
    estimates.push_back(
        estimator.Estimate(CompiledTwig::Compile(q.query, flat)));
  }
  return estimates;
}

/// Default structural-budget sweep (bytes): 0 .. 50 KB as in Figure 8,
/// densified at the low end where the error curve moves.
inline std::vector<size_t> DefaultBudgets() {
  return {0,        1024,      2 * 1024,  3 * 1024,  4 * 1024, 6 * 1024,
          8 * 1024, 12 * 1024, 20 * 1024, 35 * 1024, 50 * 1024};
}

/// Value budget used for a data set: the paper fixes 150 KB; when the
/// (synthetic, smaller) reference already fits we use 60% of its value
/// bytes so the compression phase is exercised comparably.
inline size_t ValueBudgetFor(const Experiment& experiment) {
  size_t paper_budget = 150 * 1024;
  size_t ref_bytes = experiment.reference.ValueBytes();
  return std::min(paper_budget, ref_bytes * 6 / 10);
}

inline double Pct(double x) { return 100.0 * x; }

/// Reads a class error (percent) or -1 if the class is absent.
inline double ClassPct(const ErrorReport& report, const char* name) {
  auto it = report.by_class.find(name);
  if (it == report.by_class.end()) return -1.0;
  return Pct(it->second.avg_rel_error);
}

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace bench
}  // namespace xcluster

#endif  // XCLUSTER_BENCH_BENCH_UTIL_H_
