#include "storage/xcsf_format.h"

#include <cstring>

#include "common/io/crc32c.h"

namespace xcluster {
namespace storage {

namespace {

uint32_t ReadU32(std::string_view bytes, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

uint64_t ReadU64(std::string_view bytes, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

}  // namespace

const char* XcsfSectionName(uint32_t id) {
  switch (id) {
    case kXcsfNodeLabels: return "node-labels";
    case kXcsfNodeTypes: return "node-types";
    case kXcsfNodeCounts: return "node-counts";
    case kXcsfNodeSummaryIndex: return "node-vsumm-index";
    case kXcsfSynOf: return "syn-of";
    case kXcsfFlatOf: return "flat-of";
    case kXcsfEdgeOffsets: return "edge-offsets";
    case kXcsfEdgeTargets: return "edge-targets";
    case kXcsfEdgeCounts: return "edge-counts";
    case kXcsfSortedEdgeLabels: return "sorted-edge-labels";
    case kXcsfSortedEdgeTargets: return "sorted-edge-targets";
    case kXcsfSortedEdgeCounts: return "sorted-edge-counts";
    case kXcsfLabelPool: return "label-pool";
    case kXcsfTermPool: return "term-pool";
    case kXcsfSummaryPool: return "summary-pool";
    case kXcsfLabelSortIndex: return "label-sort-index";
    case kXcsfTermSortIndex: return "term-sort-index";
    default: return "unknown";
  }
}

Status ParseXcsfHeader(std::string_view bytes, size_t actual_size,
                       XcsfHeader* header) {
  if (bytes.size() < sizeof(kXcsfMagic) ||
      std::memcmp(bytes.data(), kXcsfMagic, sizeof(kXcsfMagic)) != 0) {
    return Status::Corruption("not an XCSF image (bad magic)");
  }
  if (actual_size < kXcsfHeaderBytes + kXcsfTrailerBytes) {
    return Status::Corruption("XCSF image too small (" +
                              std::to_string(actual_size) + " bytes)");
  }
  const uint32_t stored_crc = ReadU32(bytes, 60);
  if (crc32c::Unmask(stored_crc) != crc32c::Value(bytes.substr(0, 60))) {
    return Status::Corruption("XCSF header checksum mismatch");
  }
  header->version = ReadU32(bytes, 4);
  if (header->version != kXcsfVersion) {
    return Status::Unsupported("unsupported XCSF version " +
                               std::to_string(header->version));
  }
  if (ReadU32(bytes, 24) != kXcsfEndianCheck) {
    return Status::Unsupported(
        "XCSF image written on a foreign-endian machine");
  }
  header->flags = ReadU64(bytes, 8);
  header->file_size = ReadU64(bytes, 16);
  header->section_count = ReadU32(bytes, 28);
  header->node_count = ReadU32(bytes, 32);
  header->root = ReadU32(bytes, 36);
  header->edge_count = ReadU64(bytes, 40);
  header->arena_size = ReadU32(bytes, 48);
  // Bounds come from the *actual* size, never the header's claim: a
  // truncated file must fail here with a clean error, not SIGBUS later.
  if (header->file_size != actual_size) {
    return Status::Corruption(
        "XCSF file size mismatch: header claims " +
        std::to_string(header->file_size) + " bytes, file has " +
        std::to_string(actual_size));
  }
  if (header->section_count > kXcsfMaxSections) {
    return Status::Corruption("XCSF section count " +
                              std::to_string(header->section_count) +
                              " exceeds the format cap");
  }
  const uint64_t table_end =
      kXcsfHeaderBytes +
      static_cast<uint64_t>(header->section_count) * kXcsfTableEntryBytes;
  if (table_end + kXcsfTrailerBytes > actual_size) {
    return Status::Corruption("XCSF section table overruns the file");
  }
  return Status::OK();
}

Status ParseXcsfTable(std::string_view bytes, size_t actual_size,
                      const XcsfHeader& header,
                      std::vector<XcsfSection>* table) {
  table->clear();
  const size_t table_bytes =
      static_cast<size_t>(header.section_count) * kXcsfTableEntryBytes;
  const std::string_view raw = bytes.substr(kXcsfHeaderBytes, table_bytes);
  const uint32_t stored_crc = ReadU32(bytes, 56);
  if (crc32c::Unmask(stored_crc) != crc32c::Value(raw)) {
    return Status::Corruption("XCSF section-table checksum mismatch");
  }
  const uint64_t payload_begin = kXcsfHeaderBytes + table_bytes;
  const uint64_t payload_end = actual_size - kXcsfTrailerBytes;
  table->reserve(header.section_count);
  for (uint32_t i = 0; i < header.section_count; ++i) {
    const size_t base = kXcsfHeaderBytes + i * kXcsfTableEntryBytes;
    XcsfSection section;
    section.id = ReadU32(bytes, base);
    section.offset = ReadU64(bytes, base + 8);
    section.length = ReadU64(bytes, base + 16);
    section.crc = ReadU32(bytes, base + 24);
    if (section.offset % kXcsfSectionAlign != 0) {
      return Status::Corruption("XCSF section " +
                                std::to_string(section.id) +
                                " is misaligned");
    }
    // Every bound below is against the actual file size: offset and
    // length are untrusted until proven inside [payload_begin,
    // payload_end).
    if (section.offset < payload_begin || section.offset > payload_end ||
        section.length > payload_end - section.offset) {
      return Status::Corruption(
          "XCSF section " + std::to_string(section.id) +
          " out of bounds: offset " + std::to_string(section.offset) +
          " length " + std::to_string(section.length) + " in a " +
          std::to_string(actual_size) + "-byte file");
    }
    table->push_back(section);
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace xcluster
