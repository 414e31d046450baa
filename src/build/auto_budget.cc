#include "build/auto_budget.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "storage/xcsf_writer.h"
#include "workload/metrics.h"

namespace xcluster {

namespace {

double ScoreSynopsis(const GraphSynopsis& synopsis, const Workload& workload) {
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  const FlatEstimator estimator(flat);
  std::vector<double> estimates;
  estimates.reserve(workload.queries.size());
  for (const WorkloadQuery& query : workload.queries) {
    estimates.push_back(
        estimator.Estimate(CompiledTwig::Compile(query.query, flat)));
  }
  return EvaluateErrors(workload, estimates).overall.avg_rel_error;
}

}  // namespace

AutoBudgetResult AutoBudgetBuild(const XmlDocument& doc,
                                 const GraphSynopsis& reference,
                                 const AutoBudgetOptions& options) {
  Workload sample = GenerateWorkload(doc, reference, options.sample_workload);

  AutoBudgetResult result;
  double best_error = -1.0;
  double best_fraction = 0.5;

  auto probe = [&](double fraction) {
    fraction = std::clamp(fraction, 0.0, 1.0);
    BuildOptions build = options.build;
    build.structural_budget = static_cast<size_t>(
        fraction * static_cast<double>(options.total_budget));
    build.value_budget = options.total_budget - build.structural_budget;
    GraphSynopsis synopsis = XClusterBuild(reference, build, nullptr);
    double error = ScoreSynopsis(synopsis, sample);
    ++result.probes;
    if (best_error < 0.0 || error < best_error) {
      best_error = error;
      best_fraction = fraction;
      result.synopsis = std::move(synopsis);
      result.structural_budget = build.structural_budget;
      result.value_budget = build.value_budget;
      result.sample_error = error;
    }
  };

  // Coarse sweep: evenly spaced interior fractions.
  const size_t coarse = std::max<size_t>(1, options.coarse_points);
  const double spacing = 1.0 / static_cast<double>(coarse + 1);
  for (size_t i = 1; i <= coarse; ++i) {
    probe(spacing * static_cast<double>(i));
  }

  // Refinement: alternate around the coarse winner at shrinking offsets
  // (never re-probing an already-probed point).
  const double center = best_fraction;
  for (size_t j = 0; j < options.refine_points; ++j) {
    const double offset =
        spacing / static_cast<double>(2 + j / 2) * (j % 2 == 0 ? 1.0 : -1.0);
    probe(center + offset);
  }

  return result;
}

}  // namespace xcluster
