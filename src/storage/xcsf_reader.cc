#include "storage/xcsf_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/io/bytes.h"
#include "common/io/crc32c.h"
#include "common/io/file_io.h"
#include "common/telemetry/telemetry.h"
#include "core/serialize.h"

namespace xcluster {
namespace storage {

namespace {

uint32_t ReadU32(std::string_view bytes, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

/// Owns one read-only file mapping; unmapped on destruction. Held behind
/// shared_ptr<const void> so FlatSynopsis snapshots pin it and hot-swap
/// unmaps on last release.
struct MappedImage {
  void* addr = MAP_FAILED;
  size_t len = 0;

  MappedImage() = default;
  MappedImage(const MappedImage&) = delete;
  MappedImage& operator=(const MappedImage&) = delete;
  ~MappedImage() {
    if (addr != MAP_FAILED) ::munmap(addr, len);
  }
};

Status SectionStatus(const XcsfSection& section, std::string why) {
  return Status::Corruption("XCSF section " +
                            std::string(XcsfSectionName(section.id)) + ": " +
                            std::move(why));
}

/// Everything validated out of an image before a FlatSynopsis can be
/// built over it. All views point into the image; nothing is decoded —
/// string tables are looked up through their sorted indexes and value
/// summaries decode lazily on first access, which is what keeps the
/// cold start O(1) in the synopsis size.
struct ValidatedImage {
  XcsfHeader header;
  std::vector<XcsfSection> sections;
  FlatSynopsis::Columns cols;
  FlatStringTable labels;
  std::optional<FlatStringTable> terms;
  FlatSynopsis::SummaryPool summaries;
};

/// Looks up a known section id; duplicates are corruption (two claims on
/// one logical array), unknown ids were already CRC-checked and are
/// skipped for forward compatibility.
Status IndexSections(const std::vector<XcsfSection>& table,
                     std::unordered_map<uint32_t, const XcsfSection*>* index) {
  for (const XcsfSection& section : table) {
    if (section.id == 0 || section.id > kXcsfTermSortIndex) continue;
    if (!index->emplace(section.id, &section).second) {
      return Status::Corruption("XCSF image carries duplicate section " +
                                std::string(XcsfSectionName(section.id)));
    }
  }
  return Status::OK();
}

/// Returns the required section with `id` after checking its payload is
/// exactly `count` elements of `elem_bytes`. All offsets were already
/// bounds-checked against the actual file size by ParseXcsfTable.
Result<const XcsfSection*> RequireSection(
    const std::unordered_map<uint32_t, const XcsfSection*>& index, uint32_t id,
    uint64_t count, size_t elem_bytes) {
  auto it = index.find(id);
  if (it == index.end()) {
    return Status::Corruption("XCSF image is missing required section " +
                              std::string(XcsfSectionName(id)));
  }
  const XcsfSection& section = *it->second;
  if (section.length != count * elem_bytes) {
    return SectionStatus(section, "expected " + std::to_string(count) +
                                      " x " + std::to_string(elem_bytes) +
                                      " bytes, found " +
                                      std::to_string(section.length));
  }
  return &section;
}

template <typename T>
std::span<const T> SpanOf(std::string_view image, const XcsfSection& section) {
  return std::span<const T>(
      reinterpret_cast<const T*>(image.data() + section.offset),
      static_cast<size_t>(section.length) / sizeof(T));
}

/// Validates a string-table section (u32 count | u32 zero | u32
/// offsets[count+1] | bytes) structurally — offsets monotone and exactly
/// spanning the blob — and pairs it with its sort-index section into a
/// FlatStringTable. The sort index must hold every id exactly once with
/// strictly ascending strings: strictness is what proves the pool has no
/// duplicate entries (the tables are interning indexes, so a duplicate
/// would silently alias two ids), and it is O(blob bytes) of memcmp
/// instead of a hash-index hydration.
Status ValidateStringTable(std::string_view image, const XcsfSection& section,
                           const XcsfSection& sort_section,
                           FlatStringTable* out) {
  const std::string_view payload =
      image.substr(section.offset, section.length);
  if (payload.size() < 8) return SectionStatus(section, "truncated header");
  const uint64_t count = ReadU32(payload, 0);
  if ((payload.size() - 8) / 4 < count + 1) {
    return SectionStatus(section, "offset array overruns the section");
  }
  const size_t blob_base = 8 + (count + 1) * 4;
  const size_t blob_size = payload.size() - blob_base;
  const std::span<const uint32_t> offsets(
      reinterpret_cast<const uint32_t*>(payload.data() + 8),
      static_cast<size_t>(count) + 1);
  uint32_t prev = 0;
  for (const uint32_t offset : offsets) {
    if (offset < prev || offset > blob_size) {
      return SectionStatus(section, "string offsets not monotone in range");
    }
    prev = offset;
  }
  if (prev != blob_size) {
    return SectionStatus(section, "trailing bytes after the last string");
  }
  if (sort_section.length != count * 4) {
    return SectionStatus(sort_section,
                         "sort index does not cover the string table");
  }
  const std::span<const uint32_t> sorted(
      reinterpret_cast<const uint32_t*>(image.data() + sort_section.offset),
      static_cast<size_t>(count));
  for (const uint32_t id : sorted) {
    if (id >= count) {
      return SectionStatus(sort_section, "sort index id out of range");
    }
  }
  const FlatStringTable table(payload.substr(blob_base), offsets, sorted);
  for (uint64_t i = 0; i + 1 < count; ++i) {
    if (!(table.Get(sorted[i]) < table.Get(sorted[i + 1]))) {
      return SectionStatus(sort_section,
                           "sort index is not strictly ascending");
    }
  }
  *out = table;
  return Status::OK();
}

/// Validates the summary-pool section (u32 count | u32 zero | u64
/// offsets[count+1] | blobs) structurally. The blobs themselves stay
/// encoded — FlatSynopsis decodes each lazily on first access, behind the
/// section CRC verified above. (VerifyXcsfBytes additionally deep-decodes
/// every blob; the serve path does not.)
Status ValidateSummaryPool(std::string_view image, const XcsfSection& section,
                           FlatSynopsis::SummaryPool* out) {
  const std::string_view payload =
      image.substr(section.offset, section.length);
  if (payload.size() < 8) return SectionStatus(section, "truncated header");
  const uint64_t count = ReadU32(payload, 0);
  if ((payload.size() - 8) / 8 < count + 1) {
    return SectionStatus(section, "offset array overruns the section");
  }
  const size_t blob_base = 8 + (count + 1) * 8;
  const size_t blob_size = payload.size() - blob_base;
  const std::span<const uint64_t> offsets(
      reinterpret_cast<const uint64_t*>(payload.data() + 8),
      static_cast<size_t>(count) + 1);
  uint64_t prev = 0;
  for (const uint64_t offset : offsets) {
    if (offset < prev || offset > blob_size) {
      return SectionStatus(section, "summary offsets not monotone in range");
    }
    prev = offset;
  }
  if (prev != blob_size) {
    return SectionStatus(section, "trailing bytes after the last summary");
  }
  out->blob = payload.substr(blob_base);
  out->offsets = offsets;
  return Status::OK();
}

/// The deep pass VerifyXcsfBytes runs on top of ValidateImage: decode
/// every summary blob the serve path would only touch lazily.
Status DeepDecodeSummaryPool(const FlatSynopsis::SummaryPool& pool) {
  for (uint32_t i = 0; i < pool.count(); ++i) {
    const uint64_t begin = pool.offsets[i];
    const uint64_t end = pool.offsets[i + 1];
    StringSource src(pool.blob.substr(begin, end - begin));
    ValueSummary vsumm;
    const Status status = DecodeValueSummary(&src, &vsumm);
    if (!status.ok()) {
      return Status::Corruption("XCSF summary " + std::to_string(i) + ": " +
                                status.message());
    }
    if (src.Remaining() != 0) {
      return Status::Corruption("XCSF summary " + std::to_string(i) +
                                " has trailing bytes");
    }
  }
  return Status::OK();
}

/// The whole validation chain: header, table, CRCs, exact section
/// lengths, semantic range checks on every index the estimator would
/// otherwise trust blindly, then pool decode. After this returns OK the
/// columns in `out->cols` are safe to serve from.
///
/// The whole-file CRC covers every byte of every section, so the serve
/// path proves integrity in a single pass over the image. Per-section
/// CRCs exist to *localize* corruption; only the verify/inspect tools
/// (`per_section_crcs`) pay for that second pass.
Status ValidateImage(std::string_view image, bool per_section_crcs,
                     ValidatedImage* out) {
  XCLUSTER_SCOPED_TIMER_NS("storage.xcsf.validate_ns");
  XC_RETURN_IF_ERROR(ParseXcsfHeader(image, image.size(), &out->header));
  XC_RETURN_IF_ERROR(
      ParseXcsfTable(image, image.size(), out->header, &out->sections));
  // The array sections are reinterpreted in place, so the buffer itself
  // must satisfy the strictest element alignment (f64). File mappings are
  // page-aligned; adopted heap buffers are malloc-aligned — this guards
  // the contract rather than any expected caller.
  if (reinterpret_cast<uintptr_t>(image.data()) % alignof(double) != 0) {
    return Status::InvalidArgument("XCSF image buffer is misaligned");
  }
  {
    XCLUSTER_SCOPED_TIMER_NS("storage.xcsf.crc_ns");
    if (per_section_crcs) {
      for (const XcsfSection& section : out->sections) {
        const uint32_t crc =
            crc32c::Value(image.substr(section.offset, section.length));
        if (crc32c::Unmask(section.crc) != crc) {
          return SectionStatus(section, "payload checksum mismatch");
        }
      }
    }
    const size_t trailer = image.size() - kXcsfTrailerBytes;
    const uint32_t file_crc = ReadU32(image, trailer);
    if (crc32c::Unmask(file_crc) !=
        crc32c::Value(image.substr(0, trailer))) {
      return Status::Corruption("XCSF whole-file checksum mismatch");
    }
    // The pad after the CRC is the one span no checksum covers; the
    // writer zeroes it, so anything else is a flipped bit.
    if (ReadU32(image, trailer + 4) != 0) {
      return Status::Corruption("XCSF trailer padding is not zero");
    }
  }

  std::unordered_map<uint32_t, const XcsfSection*> index;
  XC_RETURN_IF_ERROR(IndexSections(out->sections, &index));

  const XcsfHeader& h = out->header;
  const uint64_t n = h.node_count;
  const uint64_t m = h.edge_count;
  FlatSynopsis::Columns& cols = out->cols;
  {
    XCLUSTER_ASSIGN_OR_RETURN(const XcsfSection* s,
                              RequireSection(index, kXcsfNodeLabels, n, 4));
    cols.labels = SpanOf<SymbolId>(image, *s);
  }
  {
    XCLUSTER_ASSIGN_OR_RETURN(const XcsfSection* s,
                              RequireSection(index, kXcsfNodeTypes, n, 1));
    cols.types = SpanOf<ValueType>(image, *s);
  }
  {
    XCLUSTER_ASSIGN_OR_RETURN(const XcsfSection* s,
                              RequireSection(index, kXcsfNodeCounts, n, 8));
    cols.counts = SpanOf<double>(image, *s);
  }
  {
    XCLUSTER_ASSIGN_OR_RETURN(
        const XcsfSection* s,
        RequireSection(index, kXcsfNodeSummaryIndex, n, 4));
    cols.vsumm_index = SpanOf<uint32_t>(image, *s);
  }
  {
    XCLUSTER_ASSIGN_OR_RETURN(const XcsfSection* s,
                              RequireSection(index, kXcsfSynOf, n, 4));
    cols.syn_of = SpanOf<SynNodeId>(image, *s);
  }
  {
    XCLUSTER_ASSIGN_OR_RETURN(
        const XcsfSection* s,
        RequireSection(index, kXcsfFlatOf, h.arena_size, 4));
    cols.flat_of = SpanOf<FlatNodeId>(image, *s);
  }
  {
    XCLUSTER_ASSIGN_OR_RETURN(
        const XcsfSection* s,
        RequireSection(index, kXcsfEdgeOffsets, n + 1, 4));
    cols.edge_offsets = SpanOf<uint32_t>(image, *s);
  }
  {
    XCLUSTER_ASSIGN_OR_RETURN(const XcsfSection* s,
                              RequireSection(index, kXcsfEdgeTargets, m, 4));
    cols.edge_targets = SpanOf<FlatNodeId>(image, *s);
  }
  {
    XCLUSTER_ASSIGN_OR_RETURN(const XcsfSection* s,
                              RequireSection(index, kXcsfEdgeCounts, m, 8));
    cols.edge_counts = SpanOf<double>(image, *s);
  }
  {
    XCLUSTER_ASSIGN_OR_RETURN(
        const XcsfSection* s,
        RequireSection(index, kXcsfSortedEdgeLabels, m, 4));
    cols.sorted_edge_labels = SpanOf<SymbolId>(image, *s);
  }
  {
    XCLUSTER_ASSIGN_OR_RETURN(
        const XcsfSection* s,
        RequireSection(index, kXcsfSortedEdgeTargets, m, 4));
    cols.sorted_edge_targets = SpanOf<FlatNodeId>(image, *s);
  }
  {
    XCLUSTER_ASSIGN_OR_RETURN(
        const XcsfSection* s,
        RequireSection(index, kXcsfSortedEdgeCounts, m, 8));
    cols.sorted_edge_counts = SpanOf<double>(image, *s);
  }
  cols.root = h.root;

  // String pools: validated in place and looked up through their sorted
  // indexes — no interning, no hash hydration, no copies.
  {
    auto it = index.find(kXcsfLabelPool);
    auto sort_it = index.find(kXcsfLabelSortIndex);
    if (it == index.end() || sort_it == index.end()) {
      return Status::Corruption(
          "XCSF image is missing the label pool or its sort index");
    }
    XC_RETURN_IF_ERROR(ValidateStringTable(image, *it->second,
                                           *sort_it->second, &out->labels));
  }
  const bool has_terms = (h.flags & kXcsfFlagHasTerms) != 0;
  auto term_it = index.find(kXcsfTermPool);
  auto term_sort_it = index.find(kXcsfTermSortIndex);
  if (has_terms != (term_it != index.end()) ||
      has_terms != (term_sort_it != index.end())) {
    return Status::Corruption(
        "XCSF term-pool sections disagree with the header flag");
  }
  if (has_terms) {
    FlatStringTable terms;
    XC_RETURN_IF_ERROR(ValidateStringTable(image, *term_it->second,
                                           *term_sort_it->second, &terms));
    out->terms = terms;
  }
  {
    auto it = index.find(kXcsfSummaryPool);
    if (it == index.end()) {
      return Status::Corruption("XCSF image is missing the summary pool");
    }
    XC_RETURN_IF_ERROR(ValidateSummaryPool(image, *it->second,
                                           &out->summaries));
  }

  // Semantic range checks: every index the estimator dereferences without
  // further validation must be proven in range here, exactly once. A
  // rootless image (a graph whose root is not alive) estimates 0.0.
  if (cols.root != kNoFlatNode && cols.root >= n) {
    return Status::Corruption("XCSF root id out of range");
  }
  if (n == 0 && cols.root != kNoFlatNode) {
    return Status::Corruption("XCSF empty synopsis claims a root");
  }
  if (!cols.edge_offsets.empty()) {
    if (cols.edge_offsets.front() != 0 ||
        cols.edge_offsets.back() != m) {
      return Status::Corruption("XCSF CSR offsets do not span the edges");
    }
    for (size_t i = 0; i + 1 < cols.edge_offsets.size(); ++i) {
      if (cols.edge_offsets[i] > cols.edge_offsets[i + 1]) {
        return Status::Corruption("XCSF CSR offsets are not monotone");
      }
    }
  }
  const size_t label_count = out->labels.size();
  const size_t summary_count = out->summaries.count();
  for (uint64_t i = 0; i < n; ++i) {
    if (cols.labels[i] >= label_count) {
      return Status::Corruption("XCSF node label symbol out of range");
    }
    if (static_cast<uint8_t>(cols.types[i]) >
        static_cast<uint8_t>(ValueType::kText)) {
      return Status::Corruption("XCSF node value type out of range");
    }
    if (cols.vsumm_index[i] != FlatSynopsis::kNoSummary &&
        cols.vsumm_index[i] >= summary_count) {
      return Status::Corruption("XCSF node summary index out of range");
    }
    if (cols.syn_of[i] >= h.arena_size) {
      return Status::Corruption("XCSF syn-of arena id out of range");
    }
  }
  for (const FlatNodeId id : cols.flat_of) {
    if (id != kNoFlatNode && id >= n) {
      return Status::Corruption("XCSF flat-of id out of range");
    }
  }
  for (uint64_t e = 0; e < m; ++e) {
    if (cols.edge_targets[e] >= n || cols.sorted_edge_targets[e] >= n) {
      return Status::Corruption("XCSF edge target out of range");
    }
    if (cols.sorted_edge_labels[e] >= label_count) {
      return Status::Corruption("XCSF sorted edge label out of range");
    }
  }
  return Status::OK();
}

/// Validates `image` (pinned by `holder`) and wraps it as a FlatSynopsis.
Result<std::shared_ptr<const FlatSynopsis>> Attach(
    std::shared_ptr<const void> holder, std::string_view image) {
  ValidatedImage validated;
  XC_RETURN_IF_ERROR(ValidateImage(image, /*per_section_crcs=*/false,
                                   &validated));
  XCLUSTER_COUNTER_INC("storage.xcsf.maps");
  XCLUSTER_COUNTER_ADD("storage.xcsf.bytes_mapped", image.size());
  return std::make_shared<const FlatSynopsis>(
      image, validated.cols, validated.summaries, validated.labels,
      std::move(validated.terms), std::move(holder));
}

}  // namespace

Result<std::shared_ptr<const FlatSynopsis>> OpenXcsf(const std::string& path) {
  XCLUSTER_TRACE_SPAN("storage.xcsf_open");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status =
        Status::IOError("fstat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::Corruption(path + ": empty file is not an XCSF image");
  }
  auto mapping = std::make_shared<MappedImage>();
  // MAP_POPULATE prefaults the image in one go: the CRC pass below walks
  // every byte anyway, and batched read-ahead is far cheaper than taking
  // a minor fault per 4K page mid-checksum.
  mapping->addr =
      ::mmap(nullptr, size, PROT_READ, MAP_SHARED | MAP_POPULATE, fd, 0);
  mapping->len = size;
  ::close(fd);  // the mapping keeps the inode alive
  if (mapping->addr == MAP_FAILED) {
    return Status::IOError("mmap " + path + ": " + std::strerror(errno));
  }
  const std::string_view image(static_cast<const char*>(mapping->addr),
                               size);
  auto result = Attach(std::move(mapping), image);
  if (!result.ok()) {
    return Status::WithContext(result.status(), path);
  }
  return result;
}

Result<std::shared_ptr<const FlatSynopsis>> AdoptXcsf(std::string bytes) {
  XCLUSTER_TRACE_SPAN("storage.xcsf_adopt");
  auto buffer = std::make_shared<const std::string>(std::move(bytes));
  const std::string_view image(*buffer);
  return Attach(std::move(buffer), image);
}

Status VerifyXcsfBytes(std::string_view bytes, std::string* report) {
  ValidatedImage validated;
  Status status = ValidateImage(bytes, /*per_section_crcs=*/true, &validated);
  if (status.ok()) {
    // Verification is the thorough path: also prove every summary blob
    // decodes, which the lazy serve path defers until first access.
    status = DeepDecodeSummaryPool(validated.summaries);
  }
  if (report != nullptr) {
    report->clear();
    for (const XcsfSection& section : validated.sections) {
      report->append("section ");
      report->append(XcsfSectionName(section.id));
      report->append(": offset ");
      report->append(std::to_string(section.offset));
      report->append(", ");
      report->append(std::to_string(section.length));
      report->append(" bytes, crc ok\n");
    }
    if (status.ok()) {
      report->append("xcsf image ok: ");
      report->append(std::to_string(validated.header.node_count));
      report->append(" nodes, ");
      report->append(std::to_string(validated.header.edge_count));
      report->append(" edges, ");
      report->append(std::to_string(validated.summaries.count()));
      report->append(" summaries, ");
      report->append(std::to_string(bytes.size()));
      report->append(" bytes\n");
    } else {
      report->append("FAILED: ");
      report->append(status.ToString());
      report->append("\n");
    }
  }
  return status;
}

Status VerifyXcsfFile(const std::string& path, std::string* report) {
  XCLUSTER_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  return Status::WithContext(VerifyXcsfBytes(bytes, report), path);
}

Status InspectXcsfSections(std::string_view bytes,
                           std::vector<SynopsisSectionInfo>* sections) {
  sections->clear();
  XcsfHeader header;
  XC_RETURN_IF_ERROR(ParseXcsfHeader(bytes, bytes.size(), &header));
  std::vector<XcsfSection> table;
  XC_RETURN_IF_ERROR(ParseXcsfTable(bytes, bytes.size(), header, &table));
  sections->reserve(table.size() + 1);
  for (const XcsfSection& section : table) {
    SynopsisSectionInfo info;
    info.id = section.id;
    info.name = XcsfSectionName(section.id);
    info.offset = section.offset;
    info.length = section.length;
    info.crc_ok = crc32c::Unmask(section.crc) ==
                  crc32c::Value(bytes.substr(section.offset, section.length));
    sections->push_back(std::move(info));
  }
  const size_t trailer = bytes.size() - kXcsfTrailerBytes;
  SynopsisSectionInfo info;
  info.id = 0;
  info.name = "file-crc";
  info.offset = trailer;
  info.length = 4;
  info.crc_ok = crc32c::Unmask(ReadU32(bytes, trailer)) ==
                crc32c::Value(bytes.substr(0, trailer));
  sections->push_back(std::move(info));
  return Status::OK();
}

}  // namespace storage
}  // namespace xcluster
