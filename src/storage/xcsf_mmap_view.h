#ifndef XCLUSTER_STORAGE_XCSF_MMAP_VIEW_H_
#define XCLUSTER_STORAGE_XCSF_MMAP_VIEW_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "estimate/flat_synopsis.h"
#include "storage/xcsf_format.h"

namespace xcluster {
namespace storage {

/// A validated, read-only view over an XCSF image, exposing it behind the
/// FlatSynopsis read API without copying the column arrays.
///
/// `Open` mmaps the file; `Adopt` wraps an in-memory payload (a wire
/// install) — both run the same validation before any column is trusted:
///
///   1. header: magic, version, endian check, header CRC, and the
///      file-size claim checked against the *actual* byte count;
///   2. section table: table CRC, and every offset/length bounds-checked
///      against the actual size (alignment included) — a truncated or
///      tampered file fails here with a clean Status, never SIGBUS;
///   3. per-section masked CRC32C, then the whole-file trailer CRC and
///      its zero pad;
///   4. semantic checks: required sections present with exact lengths,
///      CSR offsets monotone, edge targets and pool indices in range —
///      everything the estimator would otherwise index blindly.
///
/// Only the small owned parts are materialized (string-pool hash indexes,
/// decoded value summaries); the node columns and adjacency stay in the
/// mapped pages. Dropping the view (or the FlatSynopsis snapshots built
/// over it) releases the mapping — hot-swap unmaps via shared_ptr
/// release, no explicit close.
class XcsfMmapView {
 public:
  /// Maps `path` (read-only, shared) and validates it.
  static Result<XcsfMmapView> Open(const std::string& path);

  /// Takes ownership of an in-memory image (e.g. a replicated install
  /// payload) and validates it identically. Zero additional copies: the
  /// columns point into the adopted buffer.
  static Result<XcsfMmapView> Adopt(std::string bytes);

  XcsfMmapView(XcsfMmapView&&) = default;
  XcsfMmapView& operator=(XcsfMmapView&&) = default;
  XcsfMmapView(const XcsfMmapView&) = delete;
  XcsfMmapView& operator=(const XcsfMmapView&) = delete;

  /// The image behind the FlatSynopsis read API. Stable across moves of
  /// the view; alive until the view is destroyed.
  const FlatSynopsis& flat() const { return *flat_; }

  /// The same FlatSynopsis as a shared handle. It pins the mapping (or
  /// adopted buffer) by itself, so it may outlive the view — this is how
  /// a served snapshot keeps only the FlatSynopsis.
  const std::shared_ptr<const FlatSynopsis>& shared_flat() const {
    return flat_;
  }

  const XcsfHeader& header() const { return header_; }
  const std::vector<XcsfSection>& sections() const { return sections_; }
  /// Total mapped (or adopted) bytes.
  size_t image_bytes() const { return image_.size(); }
  /// True when backed by an mmapped file (false for adopted buffers).
  bool file_backed() const { return file_backed_; }

 private:
  XcsfMmapView() = default;

  static Result<XcsfMmapView> Attach(std::shared_ptr<const void> holder,
                                     std::string_view image,
                                     bool file_backed);

  std::shared_ptr<const void> holder_;  ///< mapping / adopted buffer
  std::string_view image_;
  bool file_backed_ = false;
  XcsfHeader header_;
  std::vector<XcsfSection> sections_;
  std::shared_ptr<const FlatSynopsis> flat_;
};

/// Full integrity check of an XCSF image without installing it: header,
/// table, every CRC, semantic validation, and a decode of every summary
/// record. When `report` is non-null it receives a human-readable
/// per-section summary (xclusterctl verify).
Status VerifyXcsfBytes(std::string_view bytes, std::string* report);

/// VerifyXcsfBytes over a file's contents.
Status VerifyXcsfFile(const std::string& path, std::string* report);

/// One section of an image, as reported by InspectXcsfSections.
struct SynopsisSectionInfo {
  uint32_t id = 0;        ///< XcsfSectionId (0 for the file-crc entry)
  std::string name;       ///< XcsfSectionName, or "file-crc"
  uint64_t offset = 0;    ///< byte offset of the payload within the file
  uint64_t length = 0;    ///< payload bytes
  bool crc_ok = false;    ///< stored CRC matches the payload
};

/// Section table of an XCSF image for display (xclusterctl inspect):
/// parses header + table, then CRC-checks each section individually. A
/// bad payload CRC is reported as crc_ok=false rather than a failure, so
/// a corrupted file still yields a full table; only unreadable framing
/// (header/table) fails. The final pseudo-entry reports the whole-file
/// trailer CRC.
Status InspectXcsfSections(std::string_view bytes,
                           std::vector<SynopsisSectionInfo>* sections);

}  // namespace storage
}  // namespace xcluster

#endif  // XCLUSTER_STORAGE_XCSF_MMAP_VIEW_H_
