#include "core/xcluster.h"

#include "common/io/file_io.h"
#include "common/telemetry/telemetry.h"
#include "estimate/compiled_twig.h"
#include "query/parser.h"
#include "storage/xcsf_reader.h"
#include "storage/xcsf_writer.h"

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
      flat_(storage::CompileXcsf(synopsis_)),
      estimator_(std::make_shared<const FlatEstimator>(*flat_, estimate)) {}

XCluster::XCluster(GraphSynopsis synopsis,
                   std::shared_ptr<const FlatSynopsis> flat,
                   EstimateOptions estimate)
    : synopsis_(std::move(synopsis)),
      flat_(std::move(flat)),
      estimator_(std::make_shared<const FlatEstimator>(*flat_, estimate)) {}

double XCluster::EstimateSelectivity(const TwigQuery& query) const {
  return estimator_->Estimate(CompiledTwig::Compile(query, *flat_));
}

Result<double> XCluster::EstimateSelectivity(std::string_view twig) const {
  Result<TwigQuery> query = ParseTwig(twig);
  if (!query.ok()) return query.status();
  return EstimateSelectivity(query.value());
}

Status XCluster::Save(const std::string& path) const {
  XCLUSTER_RETURN_IF_ERROR(WriteFileAtomic(path, flat_->image()));
  XCLUSTER_COUNTER_INC("storage.xcsf.writes");
  return Status::OK();
}

Result<XCluster> XCluster::Load(const std::string& path) {
  XCLUSTER_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  XC_RETURN_IF_ERROR(
      Status::WithContext(storage::VerifyXcsfBytes(bytes, nullptr), path));
  XCLUSTER_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> flat,
                            storage::AdoptXcsf(std::move(bytes)));
  GraphSynopsis graph = ToGraph(*flat);
  return XCluster(std::move(graph), std::move(flat), EstimateOptions());
}

}  // namespace xcluster
