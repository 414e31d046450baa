#include "core/xcluster.h"

#include "common/telemetry/telemetry.h"
#include "estimate/compiled_twig.h"
#include "query/parser.h"

namespace xcluster {

XCluster XCluster::Build(const XmlDocument& doc, const Options& options) {
  XCLUSTER_TRACE_SPAN("xcluster.build");
  BuildStats stats;
  GraphSynopsis synopsis =
      BuildXCluster(doc, options.reference, options.build, &stats);
  XCluster xc(std::move(synopsis), options.estimate);
  xc.stats_ = stats;
  return xc;
}

XCluster::XCluster(GraphSynopsis synopsis, EstimateOptions estimate)
    : synopsis_(std::move(synopsis)),
      flat_(std::make_shared<const FlatSynopsis>(synopsis_)),
      estimator_(std::make_shared<const FlatEstimator>(*flat_, estimate)) {}

double XCluster::EstimateSelectivity(const TwigQuery& query) const {
  return estimator_->Estimate(CompiledTwig::Compile(query, *flat_));
}

Result<double> XCluster::EstimateSelectivity(std::string_view twig) const {
  Result<TwigQuery> query = ParseTwig(twig);
  if (!query.ok()) return query.status();
  return EstimateSelectivity(query.value());
}

}  // namespace xcluster
