#ifndef XCLUSTER_STORAGE_XCSF_READER_H_
#define XCLUSTER_STORAGE_XCSF_READER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "estimate/flat_synopsis.h"
#include "storage/xcsf_format.h"

namespace xcluster {
namespace storage {

/// The two ways into a FlatSynopsis: `OpenXcsf` maps a file, `AdoptXcsf`
/// takes an in-memory image (a wire install, or a graph XcsfWriter just
/// encoded — storage::CompileXcsf). Both run the same validation before
/// any column is trusted:
///
///   1. header: magic, version, endian check, header CRC, and the
///      file-size claim checked against the *actual* byte count;
///   2. section table: table CRC, and every offset/length bounds-checked
///      against the actual size (alignment included) — a truncated or
///      tampered file fails here with a clean Status, never SIGBUS;
///   3. the whole-file trailer CRC and its zero pad;
///   4. semantic checks: required sections present with exact lengths,
///      CSR offsets monotone, edge targets and pool indices in range —
///      everything the estimator would otherwise index blindly.
///
/// Nothing is copied or decoded: the columns, string tables and encoded
/// summary pool stay in the image, which the returned FlatSynopsis pins.
/// Dropping the last handle releases the mapping or buffer — hot-swap
/// unmaps via shared_ptr release, no explicit close.

/// Maps `path` (read-only, shared) and validates it.
Result<std::shared_ptr<const FlatSynopsis>> OpenXcsf(const std::string& path);

/// Takes ownership of an in-memory image and validates it identically.
/// Zero additional copies: the columns point into the adopted buffer.
Result<std::shared_ptr<const FlatSynopsis>> AdoptXcsf(std::string bytes);

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

#endif  // XCLUSTER_STORAGE_XCSF_READER_H_
