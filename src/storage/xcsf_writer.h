#ifndef XCLUSTER_STORAGE_XCSF_WRITER_H_
#define XCLUSTER_STORAGE_XCSF_WRITER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "estimate/flat_synopsis.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace storage {

/// Lays a synopsis out as an XCSF flat image (see xcsf_format.h): alive
/// nodes numbered in arena order, CSR edges in child order, per-label
/// stable-sorted edge runs, the string pools with their sort indexes, and
/// the encoded value-summary pool. The image is the FlatSynopsis the
/// estimator walks, so there is no separate in-RAM compile. Deterministic:
/// equal synopses produce byte-identical images.
class XcsfWriter {
 public:
  /// Encodes `graph` as a complete XCSF image into `*out` (replaced).
  static Status Encode(const GraphSynopsis& graph, std::string* out);

  /// Encode + atomic persist: the image is written to a sibling temp
  /// file, fsync'd, and renamed over `path` (common/io WriteFileAtomic),
  /// so a crash mid-write never leaves a torn image. When `sync` is
  /// false the fsyncs are skipped (tests). ToGraph in
  /// estimate/flat_synopsis.h is the inverse.
  static Status WriteGraph(const GraphSynopsis& graph,
                           const std::string& path, bool sync = true);
};

/// Compiles `graph` into its FlatSynopsis: Encode, then AdoptXcsf — the
/// validating attach that file loads and wire installs run. The result
/// owns its image, so `graph` may be destroyed as soon as this returns.
/// Every graph encodes to an image the validator accepts; a rejection is a
/// writer/reader bug and aborts rather than serve a different synopsis.
std::shared_ptr<const FlatSynopsis> CompileXcsf(const GraphSynopsis& graph);

}  // namespace storage
}  // namespace xcluster

#endif  // XCLUSTER_STORAGE_XCSF_WRITER_H_
