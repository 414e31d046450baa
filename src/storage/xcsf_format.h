#ifndef XCLUSTER_STORAGE_XCSF_FORMAT_H_
#define XCLUSTER_STORAGE_XCSF_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "estimate/flat_synopsis.h"

namespace xcluster {
namespace storage {

/// XCSF — "XCluster Synopsis, Flat" (format version 1, docs/FORMAT.md).
///
/// A sectioned, 64-bit-aligned on-disk image that *is* the FlatSynopsis
/// memory layout: columnar node arrays, CSR adjacency, the label-sorted
/// edge view, interned string pools, and a value-summary pool, each an
/// independently CRC32C-checked section. A daemon mmaps the file and
/// serves estimates straight from the page cache — no parse, no graph
/// reconstruction, O(1) cold start, pages shared across processes.
///
/// Layout:
///
///   [0,64)              fixed header (below), ends with its own CRC
///   [64, 64+32*count)   section table: one 32-byte entry per section
///   sections            payloads, each offset 64-byte aligned,
///                       zero-padded gaps
///   trailer (8 bytes)   fixed32 masked CRC32C of every preceding byte,
///                       then fixed32 zero padding
///
/// All integers are little-endian; the header's endian-check word rejects
/// a foreign-endian image instead of silently misreading it (array
/// sections are reinterpreted in place, so the file is native-layout by
/// design).

inline constexpr char kXcsfMagic[4] = {'X', 'C', 'S', 'F'};
inline constexpr uint32_t kXcsfVersion = 1;
inline constexpr uint32_t kXcsfEndianCheck = 0x01020304u;
inline constexpr size_t kXcsfHeaderBytes = 64;
inline constexpr size_t kXcsfTableEntryBytes = 32;
inline constexpr size_t kXcsfSectionAlign = 64;
inline constexpr size_t kXcsfTrailerBytes = 8;
/// Sanity cap on the section count read from an untrusted header.
inline constexpr uint32_t kXcsfMaxSections = 256;

/// Header flag bits.
inline constexpr uint64_t kXcsfFlagHasTerms = 1u << 0;

/// Section ids. Required sections are 1..13, 15, and 16; kTermPool and
/// kTermSortIndex are present iff kXcsfFlagHasTerms. Unknown ids are
/// CRC-checked and ignored (forward compatibility).
enum XcsfSectionId : uint32_t {
  kXcsfNodeLabels = 1,         ///< u32[node_count] label symbols
  kXcsfNodeTypes = 2,          ///< u8[node_count] ValueType
  kXcsfNodeCounts = 3,         ///< f64[node_count] extent counts
  kXcsfNodeSummaryIndex = 4,   ///< u32[node_count] into summary pool
  kXcsfSynOf = 5,              ///< u32[node_count] source arena ids
  kXcsfFlatOf = 6,             ///< u32[arena_size] arena -> flat ids
  kXcsfEdgeOffsets = 7,        ///< u32[node_count+1] CSR offsets
  kXcsfEdgeTargets = 8,        ///< u32[edge_count]
  kXcsfEdgeCounts = 9,         ///< f64[edge_count]
  kXcsfSortedEdgeLabels = 10,  ///< u32[edge_count] label-sorted view
  kXcsfSortedEdgeTargets = 11, ///< u32[edge_count]
  kXcsfSortedEdgeCounts = 12,  ///< f64[edge_count]
  kXcsfLabelPool = 13,         ///< string table (label id order)
  kXcsfTermPool = 14,          ///< string table (term id order)
  kXcsfSummaryPool = 15,       ///< blob table of encoded value summaries
  kXcsfLabelSortIndex = 16,    ///< u32[label_count] ids in string order
  kXcsfTermSortIndex = 17,     ///< u32[term_count] ids in string order
};

/// Human-readable section name for inspect/verify output.
const char* XcsfSectionName(uint32_t id);

/// Decoded fixed header.
struct XcsfHeader {
  uint32_t version = 0;
  uint64_t flags = 0;
  uint64_t file_size = 0;
  uint32_t section_count = 0;
  uint32_t node_count = 0;
  FlatNodeId root = kNoFlatNode;
  uint64_t edge_count = 0;
  uint32_t arena_size = 0;
};

/// One section-table entry as stored on disk.
struct XcsfSection {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;  ///< masked CRC32C of the payload
};

/// Parses and validates the fixed header: magic, version, endian check,
/// header CRC, and the header's file-size claim against `actual_size`
/// (the mapped/buffered byte count — never trust the header's own claim).
Status ParseXcsfHeader(std::string_view bytes, size_t actual_size,
                       XcsfHeader* header);

/// Parses the section table (after ParseXcsfHeader): verifies the table
/// CRC stored in the header and every entry's bounds — offset alignment,
/// offset/length within [header+table, actual_size - trailer) — against
/// `actual_size`. Entries are returned in file order.
Status ParseXcsfTable(std::string_view bytes, size_t actual_size,
                      const XcsfHeader& header,
                      std::vector<XcsfSection>* table);

}  // namespace storage
}  // namespace xcluster

#endif  // XCLUSTER_STORAGE_XCSF_FORMAT_H_
