// Scenario example: capacity planning — how many bytes of synopsis does a
// target accuracy cost? Sweeps total budgets with automatic Bstr/Bval
// allocation (AutoBudgetBuild, the paper's Sec. 4.3 future-work feature)
// and reports the error achieved per budget, then picks the smallest
// budget meeting a 10% error target.

#include <cstdio>
#include <memory>
#include <vector>

#include "build/auto_budget.h"
#include "data/xmark.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"
#include "workload/generator.h"
#include "workload/metrics.h"

int main() {
  using namespace xcluster;

  XMarkOptions data_options;
  data_options.scale = 0.5;
  GeneratedDataset dataset = GenerateXMark(data_options);
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  GraphSynopsis reference = BuildReferenceSynopsis(dataset.doc, ref_options);
  std::printf("document: %zu elements; reference: %zu KB\n",
              dataset.doc.size(),
              (reference.StructuralBytes() + reference.ValueBytes()) / 1024);

  // Held-out workload for honest reporting (the auto-splitter trains on
  // its own sample workload with a different seed).
  WorkloadOptions wl_options;
  wl_options.num_queries = 400;
  wl_options.seed = 2024;
  Workload workload = GenerateWorkload(dataset.doc, reference, wl_options);

  const double target_error = 0.10;
  std::printf("\n%10s | %15s | %8s\n", "budget", "auto split", "error");
  size_t chosen = 0;
  for (size_t budget_kb : {8, 16, 24, 32, 48, 64}) {
    AutoBudgetOptions options;
    options.total_budget = budget_kb * 1024;
    options.sample_workload.num_queries = 120;
    options.sample_workload.seed = 7;
    AutoBudgetResult result =
        AutoBudgetBuild(dataset.doc, reference, options);

    const std::shared_ptr<const FlatSynopsis> compiled =
        storage::CompileXcsf(result.synopsis);
    const FlatSynopsis& flat = *compiled;
    const FlatEstimator estimator(flat);
    std::vector<double> estimates;
    for (const WorkloadQuery& q : workload.queries) {
      estimates.push_back(
          estimator.Estimate(CompiledTwig::Compile(q.query, flat)));
    }
    double error =
        EvaluateErrors(workload, estimates).overall.avg_rel_error;
    std::printf("%8zuKB | %6zuKB/%5zuKB | %7.1f%%\n", budget_kb,
                result.structural_budget / 1024, result.value_budget / 1024,
                100.0 * error);
    if (chosen == 0 && error <= target_error) chosen = budget_kb;
  }
  if (chosen != 0) {
    std::printf("\nsmallest budget meeting the %.0f%% target: %zu KB "
                "(%.2f%% of the data)\n",
                100.0 * target_error, chosen,
                100.0 * static_cast<double>(chosen) * 1024.0 /
                    (static_cast<double>(dataset.doc.size()) * 40.0));
  } else {
    std::printf("\nno swept budget met the %.0f%% target\n",
                100.0 * target_error);
  }
  return 0;
}
