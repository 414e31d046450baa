#ifndef XCLUSTER_CORE_XCLUSTER_H_
#define XCLUSTER_CORE_XCLUSTER_H_

#include <memory>
#include <string>
#include <string_view>

#include "build/builder.h"
#include "common/status.h"
#include "estimate/estimator.h"
#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "query/twig.h"
#include "synopsis/graph.h"
#include "synopsis/reference.h"
#include "xml/document.h"

namespace xcluster {

/// High-level facade over the whole library: build an XCluster synopsis of
/// an XML document within a storage budget, then answer selectivity
/// estimates for twig queries.
///
///   XCluster::Options options;
///   options.build.structural_budget = 20 * 1024;
///   options.build.value_budget = 150 * 1024;
///   XCluster xc = XCluster::Build(doc, options);
///   Result<double> estimate = xc.EstimateSelectivity(
///       "//open_auction[/initial[range(100,500)]]/bidder");
class XCluster {
 public:
  struct Options {
    ReferenceOptions reference;
    BuildOptions build;
    EstimateOptions estimate;
  };

  /// Builds the synopsis for `doc` (reference construction + XCLUSTERBUILD).
  static XCluster Build(const XmlDocument& doc, const Options& options);

  /// Wraps an already-constructed synopsis and compiles its FlatSynopsis
  /// (storage::CompileXcsf).
  explicit XCluster(GraphSynopsis synopsis,
                    EstimateOptions estimate = EstimateOptions());

  /// Estimated selectivity of a parsed query (compiled against flat() and
  /// estimated by FlatEstimator).
  double EstimateSelectivity(const TwigQuery& query) const;

  /// Parses `twig` (see query/parser.h for the syntax) and estimates it.
  Result<double> EstimateSelectivity(std::string_view twig) const;

  const GraphSynopsis& synopsis() const { return synopsis_; }
  const BuildStats& build_stats() const { return stats_; }

  /// The serving form of synopsis(): its validated XCSF image. Shared, not
  /// copied, by copies of this XCluster and by the snapshots a
  /// SynopsisStore installs from it.
  const std::shared_ptr<const FlatSynopsis>& flat() const { return flat_; }

  /// Total size (structural + value bytes) under the synopsis size model.
  size_t SizeBytes() const {
    return synopsis_.StructuralBytes() + synopsis_.ValueBytes();
  }

  /// Persists flat()'s image to `path` (see docs/FORMAT.md), the file a
  /// SynopsisStore maps and serves. The write is atomic: temp file +
  /// fsync + rename.
  Status Save(const std::string& path) const;

  /// Loads an XCSF image (written by Save() or storage::XcsfWriter),
  /// keeps it as flat() and rebuilds its graph with ToGraph. Strict,
  /// unlike serving: the whole image is verified first, every summary
  /// record included, so a malformed record fails with kCorruption
  /// instead of loading as an empty summary.
  static Result<XCluster> Load(const std::string& path);

 private:
  XCluster(GraphSynopsis synopsis, std::shared_ptr<const FlatSynopsis> flat,
           EstimateOptions estimate);

  GraphSynopsis synopsis_;
  BuildStats stats_;
  std::shared_ptr<const FlatSynopsis> flat_;
  std::shared_ptr<const FlatEstimator> estimator_;  // over *flat_
};

}  // namespace xcluster

#endif  // XCLUSTER_CORE_XCLUSTER_H_
