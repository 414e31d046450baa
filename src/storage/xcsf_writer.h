#ifndef XCLUSTER_STORAGE_XCSF_WRITER_H_
#define XCLUSTER_STORAGE_XCSF_WRITER_H_

#include <string>

#include "common/status.h"
#include "estimate/flat_synopsis.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace storage {

/// Compiles a synopsis into the XCSF flat image (see xcsf_format.h).
///
/// The writer serializes a FlatSynopsis's columns verbatim — the same
/// arrays the in-RAM estimator walks — so an image mapped back through
/// XcsfMmapView yields bit-identical estimates to the compiled form by
/// construction. Deterministic: equal synopses produce byte-identical
/// images.
class XcsfWriter {
 public:
  /// Encodes `flat` as a complete XCSF image into `*out` (replaced).
  static Status Encode(const FlatSynopsis& flat, std::string* out);

  /// Encode + atomic persist: the image is written to a sibling temp
  /// file, fsync'd, and renamed over `path` (common/io WriteFileAtomic),
  /// so a crash mid-write never leaves a torn image. When `sync` is
  /// false the fsyncs are skipped (tests).
  static Status Write(const FlatSynopsis& flat, const std::string& path,
                      bool sync = true);

  /// Compiles `graph` to a FlatSynopsis and writes it: the
  /// `GraphSynopsis -> XCSF` path (ToGraph in estimate/flat_synopsis.h
  /// is the inverse).
  static Status WriteGraph(const GraphSynopsis& graph,
                           const std::string& path, bool sync = true);
};

}  // namespace storage
}  // namespace xcluster

#endif  // XCLUSTER_STORAGE_XCSF_WRITER_H_
