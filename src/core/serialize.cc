#include "core/serialize.h"

#include <bitset>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/io/crc32c.h"
#include "common/io/file_io.h"
#include "common/telemetry/telemetry.h"
#include "core/xcluster.h"

namespace xcluster {

namespace {

// --- Binary format (version 2) --------------------------------------------

constexpr char kBinaryMagic[4] = {'X', 'C', 'S', 'B'};
constexpr uint32_t kBinaryVersion = 2;

/// Legacy version-1 text files begin with this token.
constexpr std::string_view kLegacyMagic = "XCLUSTER 1";

enum SectionId : uint8_t {
  kEnd = 0,      ///< end marker, followed by the whole-file CRC
  kLabels = 1,   ///< label string pool, in id order
  kTerms = 2,    ///< term dictionary, in id order
  kNodes = 3,    ///< root id + node records (label, type, count, vsumm)
  kEdges = 4,    ///< edge records (u, v, avg_count)
};

enum SummaryKind : uint8_t {
  kSummNone = 0,
  kSummHistogram = 1,
  kSummWavelet = 2,
  kSummSample = 3,
  kSummPst = 4,
  kSummTerms = 5,
};

// Minimum encoded sizes per record, used to bound element counts read from
// untrusted input before allocating (every field below is >= 1 byte).
constexpr size_t kMinNodeRecord = 11;     // label(1) type(1) count(8) kind(1)
constexpr size_t kMinEdgeRecord = 10;     // u(1) v(1) avg(8)
constexpr size_t kMinBucketRecord = 24;   // lo(8) hi(8) count(8)
constexpr size_t kMinCoeffRecord = 9;     // index(1) value(8)
constexpr size_t kMinSampleRecord = 8;    // value(8)
constexpr size_t kMinPstRecord = 13;      // parent(4) symbol(1) count(8)
constexpr size_t kMinIndexedRecord = 9;   // term(1) freq(8)

/// Checks Pst::FromDump's precondition on a decoded PST dump: each entry's
/// parent precedes it (or is the root, -1), and no two children of one
/// parent share a symbol. FromDump turns entry i into node i + 1; a
/// repeated sibling symbol would reuse a node and shift every later id.
Status CheckPstDump(const std::vector<Pst::DumpNode>& dump) {
  // Children of each parent as linked lists: first[parent + 1], next[child].
  std::vector<int32_t> first(dump.size() + 1, -1);
  std::vector<int32_t> next(dump.size(), -1);
  for (size_t i = 0; i < dump.size(); ++i) {
    const int32_t parent = dump[i].parent;
    if (parent < -1 || parent >= static_cast<int64_t>(i)) {
      return Status::Corruption("pst dump parent out of order");
    }
    next[i] = first[parent + 1];
    first[parent + 1] = static_cast<int32_t>(i);
  }
  for (int32_t head : first) {
    if (head < 0) continue;
    std::bitset<256> seen;
    for (int32_t child = head; child >= 0; child = next[child]) {
      const auto symbol = static_cast<unsigned char>(dump[child].symbol);
      if (seen.test(symbol)) {
        return Status::Corruption("pst dump repeats a sibling symbol");
      }
      seen.set(symbol);
    }
  }
  return Status::OK();
}

void EncodeSummary(const ValueSummary& vsumm, ByteSink* sink) {
  switch (vsumm.type()) {
    case ValueType::kNone:
      PutFixed8(sink, kSummNone);
      return;
    case ValueType::kNumeric:
      switch (vsumm.numeric_kind()) {
        case NumericSummaryKind::kHistogram: {
          PutFixed8(sink, kSummHistogram);
          const auto& buckets = vsumm.histogram().buckets();
          PutVarint64(sink, buckets.size());
          for (const HistogramBucket& b : buckets) {
            PutFixed64(sink, static_cast<uint64_t>(b.lo));
            PutFixed64(sink, static_cast<uint64_t>(b.hi));
            PutDouble(sink, b.count);
          }
          return;
        }
        case NumericSummaryKind::kWavelet: {
          PutFixed8(sink, kSummWavelet);
          const WaveletSummary& w = vsumm.wavelet();
          PutFixed64(sink, static_cast<uint64_t>(w.domain_lo()));
          PutFixed64(sink, static_cast<uint64_t>(w.cell_width()));
          PutVarint64(sink, w.grid());
          PutDouble(sink, w.total());
          PutVarint64(sink, w.coefficients().size());
          for (const auto& c : w.coefficients()) {
            PutVarint64(sink, c.index);
            PutDouble(sink, c.value);
          }
          return;
        }
        case NumericSummaryKind::kSample: {
          PutFixed8(sink, kSummSample);
          const SampleSummary& sample = vsumm.sample();
          PutDouble(sink, sample.total());
          PutVarint64(sink, sample.sample().size());
          for (int64_t v : sample.sample()) {
            PutFixed64(sink, static_cast<uint64_t>(v));
          }
          return;
        }
      }
      return;
    case ValueType::kString: {
      PutFixed8(sink, kSummPst);
      const Pst& pst = vsumm.pst();
      std::vector<Pst::DumpNode> dump = pst.Dump();
      PutDouble(sink, pst.total());
      PutVarint64(sink, pst.max_depth());
      PutVarint64(sink, dump.size());
      for (const Pst::DumpNode& node : dump) {
        PutFixed32(sink, static_cast<uint32_t>(node.parent));
        PutFixed8(sink, static_cast<uint8_t>(node.symbol));
        PutDouble(sink, node.count);
      }
      return;
    }
    case ValueType::kText: {
      PutFixed8(sink, kSummTerms);
      const TermHistogram& terms = vsumm.terms();
      PutVarint64(sink, terms.indexed().size());
      for (const auto& [term, freq] : terms.indexed()) {
        PutVarint64(sink, term);
        PutDouble(sink, freq);
      }
      PutVarint64(sink, terms.uniform_members().size());
      for (TermId term : terms.uniform_members()) PutVarint64(sink, term);
      PutDouble(sink, terms.uniform_avg());
      return;
    }
  }
}

Status DecodeSummary(ByteSource* src, ValueSummary* vsumm) {
  uint8_t kind = 0;
  XCLUSTER_RETURN_IF_ERROR(GetFixed8(src, &kind));
  switch (kind) {
    case kSummNone:
      return Status::OK();
    case kSummHistogram: {
      uint64_t n = 0;
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n));
      XCLUSTER_RETURN_IF_ERROR(
          CheckCount(n, kMinBucketRecord, *src, "histogram bucket"));
      std::vector<HistogramBucket> buckets(static_cast<size_t>(n));
      for (HistogramBucket& b : buckets) {
        uint64_t lo = 0;
        uint64_t hi = 0;
        XCLUSTER_RETURN_IF_ERROR(GetFixed64(src, &lo));
        XCLUSTER_RETURN_IF_ERROR(GetFixed64(src, &hi));
        XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &b.count));
        b.lo = static_cast<int64_t>(lo);
        b.hi = static_cast<int64_t>(hi);
      }
      vsumm->set_type(ValueType::kNumeric);
      *vsumm->mutable_histogram() = Histogram::FromBuckets(std::move(buckets));
      return Status::OK();
    }
    case kSummWavelet: {
      uint64_t domain_lo = 0;
      uint64_t cell_width = 0;
      uint64_t grid = 0;
      double total = 0.0;
      uint64_t n = 0;
      XCLUSTER_RETURN_IF_ERROR(GetFixed64(src, &domain_lo));
      XCLUSTER_RETURN_IF_ERROR(GetFixed64(src, &cell_width));
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &grid));
      XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &total));
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n));
      XCLUSTER_RETURN_IF_ERROR(
          CheckCount(n, kMinCoeffRecord, *src, "wavelet coefficient"));
      std::vector<WaveletSummary::Coefficient> coeffs(static_cast<size_t>(n));
      for (auto& c : coeffs) {
        uint64_t index = 0;
        XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &index));
        XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &c.value));
        if (index > UINT32_MAX) {
          return Status::Corruption("wavelet coefficient index overflow");
        }
        c.index = static_cast<uint32_t>(index);
      }
      vsumm->set_type(ValueType::kNumeric);
      vsumm->set_numeric_kind(NumericSummaryKind::kWavelet);
      *vsumm->mutable_wavelet() = WaveletSummary::FromCoefficients(
          std::move(coeffs), static_cast<int64_t>(domain_lo),
          static_cast<int64_t>(cell_width), static_cast<size_t>(grid), total);
      return Status::OK();
    }
    case kSummSample: {
      double total = 0.0;
      uint64_t n = 0;
      XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &total));
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n));
      XCLUSTER_RETURN_IF_ERROR(
          CheckCount(n, kMinSampleRecord, *src, "sample value"));
      std::vector<int64_t> sample(static_cast<size_t>(n));
      for (int64_t& v : sample) {
        uint64_t bits = 0;
        XCLUSTER_RETURN_IF_ERROR(GetFixed64(src, &bits));
        v = static_cast<int64_t>(bits);
      }
      vsumm->set_type(ValueType::kNumeric);
      vsumm->set_numeric_kind(NumericSummaryKind::kSample);
      *vsumm->mutable_sample() =
          SampleSummary::FromParts(std::move(sample), total);
      return Status::OK();
    }
    case kSummPst: {
      double total = 0.0;
      uint64_t max_depth = 0;
      uint64_t n = 0;
      XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &total));
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &max_depth));
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n));
      XCLUSTER_RETURN_IF_ERROR(CheckCount(n, kMinPstRecord, *src, "pst node"));
      std::vector<Pst::DumpNode> dump(static_cast<size_t>(n));
      for (size_t i = 0; i < dump.size(); ++i) {
        Pst::DumpNode& node = dump[i];
        uint32_t parent = 0;
        uint8_t symbol = 0;
        XCLUSTER_RETURN_IF_ERROR(GetFixed32(src, &parent));
        XCLUSTER_RETURN_IF_ERROR(GetFixed8(src, &symbol));
        XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &node.count));
        node.parent = static_cast<int32_t>(parent);
        node.symbol = static_cast<char>(symbol);
      }
      XCLUSTER_RETURN_IF_ERROR(CheckPstDump(dump));
      vsumm->set_type(ValueType::kString);
      *vsumm->mutable_pst() =
          Pst::FromDump(dump, total, static_cast<size_t>(max_depth));
      return Status::OK();
    }
    case kSummTerms: {
      uint64_t n_indexed = 0;
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n_indexed));
      XCLUSTER_RETURN_IF_ERROR(
          CheckCount(n_indexed, kMinIndexedRecord, *src, "indexed term"));
      std::vector<std::pair<TermId, double>> indexed(
          static_cast<size_t>(n_indexed));
      for (auto& [term, freq] : indexed) {
        uint64_t id = 0;
        XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &id));
        XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &freq));
        if (id > UINT32_MAX) return Status::Corruption("term id overflow");
        term = static_cast<TermId>(id);
      }
      uint64_t n_members = 0;
      XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &n_members));
      XCLUSTER_RETURN_IF_ERROR(CheckCount(n_members, 1, *src, "uniform term"));
      std::vector<TermId> members(static_cast<size_t>(n_members));
      for (TermId& term : members) {
        uint64_t id = 0;
        XCLUSTER_RETURN_IF_ERROR(GetVarint64(src, &id));
        if (id > UINT32_MAX) return Status::Corruption("term id overflow");
        term = static_cast<TermId>(id);
      }
      double avg = 0.0;
      XCLUSTER_RETURN_IF_ERROR(GetDouble(src, &avg));
      vsumm->set_type(ValueType::kText);
      *vsumm->mutable_terms() =
          TermHistogram::FromParts(std::move(indexed), std::move(members), avg);
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown value-summary kind " +
                                std::to_string(kind));
  }
}

/// Per-section encoded-byte counters (ids are a closed set, so each maps to
/// its own statically-registered counter).
void CountSectionBytes(uint8_t id, size_t bytes) {
  switch (id) {
    case kLabels: XCLUSTER_COUNTER_ADD("serialize.bytes.labels", bytes); break;
    case kTerms: XCLUSTER_COUNTER_ADD("serialize.bytes.terms", bytes); break;
    case kNodes: XCLUSTER_COUNTER_ADD("serialize.bytes.nodes", bytes); break;
    case kEdges: XCLUSTER_COUNTER_ADD("serialize.bytes.edges", bytes); break;
    default: break;
  }
}

/// Appends one section (id, length, payload, masked payload CRC) to `sink`.
Status AppendSection(ByteSink* sink, SectionId id, std::string_view payload) {
  PutFixed8(sink, id);
  PutVarint64(sink, payload.size());
  XCLUSTER_RETURN_IF_ERROR(sink->Append(payload));
  uint32_t crc = 0;
  {
    XCLUSTER_SCOPED_TIMER_NS("serialize.crc_ns");
    crc = crc32c::Value(payload);
  }
  CountSectionBytes(id, payload.size());
  PutFixed32(sink, crc32c::Mask(crc));
  return Status::OK();
}

struct SectionHeader {
  uint8_t id = kEnd;
  uint64_t length = 0;
};

/// Reads one section header; for kEnd no length follows.
Status ReadSectionHeader(ByteSource* src, SectionHeader* header) {
  XCLUSTER_RETURN_IF_ERROR(GetFixed8(src, &header->id));
  header->length = 0;
  if (header->id == kEnd) return Status::OK();
  return GetVarint64(src, &header->length);
}

/// Reads a section's payload (through a BoundedReader so a corrupt length
/// cannot overrun) and verifies its CRC.
Status ReadSectionPayload(ByteSource* src, const SectionHeader& header,
                          std::string* payload) {
  XCLUSTER_RETURN_IF_ERROR(
      CheckCount(header.length, 1, *src, "section payload"));
  BoundedReader bounded(src, static_cast<size_t>(header.length));
  payload->resize(static_cast<size_t>(header.length));
  XCLUSTER_RETURN_IF_ERROR(bounded.Read(payload->data(), payload->size()));
  uint32_t stored = 0;
  XCLUSTER_RETURN_IF_ERROR(GetFixed32(src, &stored));
  if (crc32c::Unmask(stored) != crc32c::Value(*payload)) {
    return Status::Corruption("checksum mismatch in section " +
                              std::to_string(header.id));
  }
  return Status::OK();
}

Status DecodeLabels(std::string_view payload, GraphSynopsis* synopsis,
                    std::vector<std::string>* labels) {
  StringSource src(payload);
  uint64_t count = 0;
  XCLUSTER_RETURN_IF_ERROR(GetVarint64(&src, &count));
  XCLUSTER_RETURN_IF_ERROR(CheckCount(count, 1, src, "label"));
  labels->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string label;
    XCLUSTER_RETURN_IF_ERROR(GetLengthPrefixed(&src, &label));
    // Pre-intern in file order so label ids (and a re-save) are stable.
    synopsis->labels().Intern(label);
    labels->push_back(std::move(label));
  }
  return Status::OK();
}

Status DecodeTerms(std::string_view payload, GraphSynopsis* synopsis) {
  StringSource src(payload);
  uint64_t count = 0;
  XCLUSTER_RETURN_IF_ERROR(GetVarint64(&src, &count));
  XCLUSTER_RETURN_IF_ERROR(CheckCount(count, 1, src, "term"));
  auto dict = std::make_shared<TermDictionary>();
  for (uint64_t i = 0; i < count; ++i) {
    std::string term;
    XCLUSTER_RETURN_IF_ERROR(GetLengthPrefixed(&src, &term));
    dict->Intern(term);
  }
  synopsis->set_term_dictionary(std::move(dict));
  return Status::OK();
}

Status DecodeNodes(std::string_view payload,
                   const std::vector<std::string>& labels,
                   GraphSynopsis* synopsis) {
  StringSource src(payload);
  uint64_t root = 0;
  uint64_t count = 0;
  XCLUSTER_RETURN_IF_ERROR(GetVarint64(&src, &root));
  XCLUSTER_RETURN_IF_ERROR(GetVarint64(&src, &count));
  XCLUSTER_RETURN_IF_ERROR(CheckCount(count, kMinNodeRecord, src, "node"));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t label = 0;
    uint8_t type = 0;
    double node_count = 0.0;
    XCLUSTER_RETURN_IF_ERROR(GetVarint64(&src, &label));
    XCLUSTER_RETURN_IF_ERROR(GetFixed8(&src, &type));
    XCLUSTER_RETURN_IF_ERROR(GetDouble(&src, &node_count));
    if (label >= labels.size()) {
      return Status::Corruption("node label id out of range");
    }
    if (type > static_cast<uint8_t>(ValueType::kText)) {
      return Status::Corruption("bad node value type " + std::to_string(type));
    }
    SynNodeId id = synopsis->AddNode(
        labels[static_cast<size_t>(label)], static_cast<ValueType>(type),
        node_count);
    XCLUSTER_RETURN_IF_ERROR(DecodeSummary(&src, &synopsis->node(id).vsumm));
  }
  if (root >= count) return Status::Corruption("root id out of range");
  synopsis->set_root(static_cast<SynNodeId>(root));
  if (src.Remaining() != 0) {
    return Status::Corruption("trailing bytes in node section");
  }
  return Status::OK();
}

Status DecodeEdges(std::string_view payload, GraphSynopsis* synopsis) {
  StringSource src(payload);
  uint64_t count = 0;
  XCLUSTER_RETURN_IF_ERROR(GetVarint64(&src, &count));
  XCLUSTER_RETURN_IF_ERROR(CheckCount(count, kMinEdgeRecord, src, "edge"));
  const uint64_t num_nodes = synopsis->NodeCount();
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t u = 0;
    uint64_t v = 0;
    double avg = 0.0;
    XCLUSTER_RETURN_IF_ERROR(GetVarint64(&src, &u));
    XCLUSTER_RETURN_IF_ERROR(GetVarint64(&src, &v));
    XCLUSTER_RETURN_IF_ERROR(GetDouble(&src, &avg));
    if (u >= num_nodes || v >= num_nodes) {
      return Status::Corruption("edge endpoint out of range");
    }
    synopsis->AddEdge(static_cast<SynNodeId>(u), static_cast<SynNodeId>(v),
                      avg);
  }
  if (src.Remaining() != 0) {
    return Status::Corruption("trailing bytes in edge section");
  }
  return Status::OK();
}

/// Walks the section stream, verifying headers and CRCs, and hands each
/// known section's payload to `visit(id, payload)`. `file_crc` accumulates
/// over every byte consumed so the end marker's whole-file CRC can be
/// checked — which requires re-encoding the consumed bytes; instead the
/// caller passes the original buffer when available. For generic sources
/// the whole-file CRC is checked against the bytes as read.
template <typename Visitor>
Status WalkSections(ByteSource* src, Visitor&& visit) {
  // Header.
  char magic[4];
  XCLUSTER_RETURN_IF_ERROR(src->Read(magic, sizeof(magic)));
  if (std::string_view(magic, 4) != std::string_view(kBinaryMagic, 4)) {
    return Status::Corruption("not an XCluster binary synopsis (bad magic)");
  }
  uint32_t version = 0;
  XCLUSTER_RETURN_IF_ERROR(GetFixed32(src, &version));
  if (version != kBinaryVersion) {
    return Status::Unsupported("unsupported synopsis format version " +
                               std::to_string(version));
  }

  uint32_t running = crc32c::Extend(0, magic, sizeof(magic));
  unsigned char version_le[4] = {
      static_cast<unsigned char>(version),
      static_cast<unsigned char>(version >> 8),
      static_cast<unsigned char>(version >> 16),
      static_cast<unsigned char>(version >> 24)};
  running = crc32c::Extend(running, version_le, sizeof(version_le));

  for (;;) {
    SectionHeader header;
    XCLUSTER_RETURN_IF_ERROR(ReadSectionHeader(src, &header));
    if (header.id == kEnd) {
      running = crc32c::Extend(running, "\0", 1);
      uint32_t stored = 0;
      XCLUSTER_RETURN_IF_ERROR(GetFixed32(src, &stored));
      if (crc32c::Unmask(stored) != running) {
        return Status::Corruption("whole-file checksum mismatch");
      }
      if (src->Remaining() != 0) {
        return Status::Corruption("trailing bytes after end marker");
      }
      return Status::OK();
    }
    std::string payload;
    XCLUSTER_RETURN_IF_ERROR(ReadSectionPayload(src, header, &payload));
    // Re-extend the running CRC over the section exactly as encoded.
    std::string reencoded;
    StringSink resink(&reencoded);
    PutFixed8(&resink, header.id);
    PutVarint64(&resink, header.length);
    running = crc32c::Extend(running, reencoded.data(), reencoded.size());
    running = crc32c::Extend(running, payload.data(), payload.size());
    unsigned char crc_le[4];
    uint32_t masked = crc32c::Mask(crc32c::Value(payload));
    for (int i = 0; i < 4; ++i) {
      crc_le[i] = static_cast<unsigned char>(masked >> (8 * i));
    }
    running = crc32c::Extend(running, crc_le, sizeof(crc_le));
    XCLUSTER_RETURN_IF_ERROR(visit(static_cast<SectionId>(header.id),
                                   std::string_view(payload)));
  }
}

// --- Legacy version-1 text format (read-only) ------------------------------

Status ReadLegacySummary(std::istream& in, ValueSummary* vsumm) {
  std::string tag, kind;
  in >> tag >> kind;
  if (tag != "vsumm") return Status::Corruption("expected vsumm record");
  if (kind == "none") return Status::OK();
  if (kind == "hist") {
    size_t n = 0;
    in >> n;
    if (!in || n > (1u << 24)) return Status::Corruption("bad histogram size");
    std::vector<HistogramBucket> buckets(n);
    for (HistogramBucket& b : buckets) in >> b.lo >> b.hi >> b.count;
    if (!in) return Status::Corruption("bad histogram record");
    vsumm->set_type(ValueType::kNumeric);
    *vsumm->mutable_histogram() = Histogram::FromBuckets(std::move(buckets));
    return Status::OK();
  }
  if (kind == "wavelet") {
    int64_t domain_lo = 0;
    int64_t cell_width = 0;
    size_t grid = 0;
    double total = 0.0;
    size_t n = 0;
    in >> domain_lo >> cell_width >> grid >> total >> n;
    if (!in || n > (1u << 24)) return Status::Corruption("bad wavelet size");
    std::vector<WaveletSummary::Coefficient> coeffs(n);
    for (auto& c : coeffs) in >> c.index >> c.value;
    if (!in) return Status::Corruption("bad wavelet record");
    vsumm->set_type(ValueType::kNumeric);
    vsumm->set_numeric_kind(NumericSummaryKind::kWavelet);
    *vsumm->mutable_wavelet() = WaveletSummary::FromCoefficients(
        std::move(coeffs), domain_lo, cell_width, grid, total);
    return Status::OK();
  }
  if (kind == "sample") {
    double total = 0.0;
    size_t n = 0;
    in >> total >> n;
    if (!in || n > (1u << 24)) return Status::Corruption("bad sample size");
    std::vector<int64_t> sample(n);
    for (int64_t& v : sample) in >> v;
    if (!in) return Status::Corruption("bad sample record");
    vsumm->set_type(ValueType::kNumeric);
    vsumm->set_numeric_kind(NumericSummaryKind::kSample);
    *vsumm->mutable_sample() =
        SampleSummary::FromParts(std::move(sample), total);
    return Status::OK();
  }
  if (kind == "pst") {
    double total = 0.0;
    size_t max_depth = 0;
    size_t n = 0;
    in >> total >> max_depth >> n;
    if (!in || n > (1u << 24)) return Status::Corruption("bad pst size");
    std::vector<Pst::DumpNode> dump(n);
    for (size_t i = 0; i < n; ++i) {
      int symbol = 0;
      in >> dump[i].parent >> symbol >> dump[i].count;
      dump[i].symbol = static_cast<char>(static_cast<unsigned char>(symbol));
    }
    if (!in) return Status::Corruption("bad pst record");
    XCLUSTER_RETURN_IF_ERROR(CheckPstDump(dump));
    vsumm->set_type(ValueType::kString);
    *vsumm->mutable_pst() = Pst::FromDump(dump, total, max_depth);
    return Status::OK();
  }
  if (kind == "terms") {
    size_t n_indexed = 0;
    in >> n_indexed;
    if (!in || n_indexed > (1u << 24)) {
      return Status::Corruption("bad term-histogram size");
    }
    std::vector<std::pair<TermId, double>> indexed(n_indexed);
    for (auto& [term, freq] : indexed) in >> term >> freq;
    size_t n_members = 0;
    in >> n_members;
    if (!in || n_members > (1u << 24)) {
      return Status::Corruption("bad term-histogram size");
    }
    std::vector<TermId> members(n_members);
    for (TermId& term : members) in >> term;
    double avg = 0.0;
    in >> avg;
    if (!in) return Status::Corruption("bad term-histogram record");
    vsumm->set_type(ValueType::kText);
    *vsumm->mutable_terms() =
        TermHistogram::FromParts(std::move(indexed), std::move(members), avg);
    return Status::OK();
  }
  return Status::Corruption("unknown vsumm kind '" + kind + "'");
}

Status ReadLegacyString(std::istream& in, std::string* s) {
  size_t n = 0;
  in >> n;
  if (!in || n > (1u << 24)) return Status::Corruption("bad string record");
  in.get();  // the separating space
  s->resize(n);
  in.read(s->data(), static_cast<std::streamsize>(n));
  if (!in) return Status::Corruption("bad string record");
  return Status::OK();
}

Result<GraphSynopsis> DecodeLegacyText(std::string_view bytes) {
  std::istringstream in{std::string(bytes)};
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "XCLUSTER" || version != 1) {
    return Status::Corruption("not a legacy XCluster synopsis");
  }

  GraphSynopsis synopsis;
  std::string tag;
  size_t num_labels = 0;
  in >> tag >> num_labels;
  if (tag != "labels" || !in || num_labels > (1u << 24)) {
    return Status::Corruption("expected labels section");
  }
  in.get();  // newline
  std::vector<std::string> labels(num_labels);
  for (std::string& label : labels) {
    XCLUSTER_RETURN_IF_ERROR(ReadLegacyString(in, &label));
    synopsis.labels().Intern(label);
  }

  size_t num_terms = 0;
  in >> tag >> num_terms;
  if (tag != "terms" || !in || num_terms > (1u << 24)) {
    return Status::Corruption("expected terms section");
  }
  in.get();
  auto dict = std::make_shared<TermDictionary>();
  for (size_t i = 0; i < num_terms; ++i) {
    std::string term;
    XCLUSTER_RETURN_IF_ERROR(ReadLegacyString(in, &term));
    dict->Intern(term);
  }
  synopsis.set_term_dictionary(dict);

  SynNodeId root = 0;
  in >> tag >> root;
  if (tag != "root" || !in) return Status::Corruption("expected root section");

  size_t num_nodes = 0;
  in >> tag >> num_nodes;
  if (tag != "nodes" || !in || num_nodes > (1u << 24)) {
    return Status::Corruption("expected nodes section");
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    std::string node_tag;
    SymbolId label = 0;
    int type = 0;
    double count = 0.0;
    in >> node_tag >> label >> type >> count;
    if (node_tag != "node" || !in || label >= labels.size() || type < 0 ||
        type > static_cast<int>(ValueType::kText)) {
      return Status::Corruption("bad node record");
    }
    SynNodeId id =
        synopsis.AddNode(labels[label], static_cast<ValueType>(type), count);
    XCLUSTER_RETURN_IF_ERROR(
        ReadLegacySummary(in, &synopsis.node(id).vsumm));
  }
  if (root >= num_nodes) return Status::Corruption("bad root id");
  synopsis.set_root(root);

  size_t num_edges = 0;
  in >> tag >> num_edges;
  if (tag != "edges" || !in || num_edges > (1u << 26)) {
    return Status::Corruption("expected edges section");
  }
  for (size_t i = 0; i < num_edges; ++i) {
    std::string edge_tag;
    SynNodeId u = 0;
    SynNodeId v = 0;
    double avg = 0.0;
    in >> edge_tag >> u >> v >> avg;
    if (edge_tag != "edge" || u >= num_nodes || v >= num_nodes || !in) {
      return Status::Corruption("bad edge record");
    }
    synopsis.AddEdge(u, v, avg);
  }

  return synopsis;
}

}  // namespace

void EncodeValueSummary(const ValueSummary& vsumm, ByteSink* sink) {
  EncodeSummary(vsumm, sink);
}

Status DecodeValueSummary(ByteSource* src, ValueSummary* vsumm) {
  return DecodeSummary(src, vsumm);
}

Status InspectSynopsisSections(std::string_view bytes,
                               std::vector<SynopsisSectionInfo>* sections) {
  sections->clear();
  if (bytes.size() < 8 ||
      bytes.substr(0, 4) != std::string_view(kBinaryMagic, 4)) {
    return Status::Corruption("not an XCluster binary synopsis (bad magic)");
  }
  StringSource src(bytes);
  XCLUSTER_RETURN_IF_ERROR(src.Skip(4));  // magic
  uint32_t version = 0;
  XCLUSTER_RETURN_IF_ERROR(GetFixed32(&src, &version));
  if (version != kBinaryVersion) {
    return Status::Unsupported("unsupported synopsis format version " +
                               std::to_string(version));
  }
  auto section_name = [](uint8_t id) -> std::string {
    switch (id) {
      case kLabels: return "labels";
      case kTerms: return "terms";
      case kNodes: return "nodes";
      case kEdges: return "edges";
      default: return "section-" + std::to_string(id);
    }
  };
  for (;;) {
    SectionHeader header;
    XCLUSTER_RETURN_IF_ERROR(ReadSectionHeader(&src, &header));
    if (header.id == kEnd) {
      // The end marker carries the whole-file CRC; report it as a final
      // pseudo-section so inspect shows its validity too.
      SynopsisSectionInfo info;
      info.id = kEnd;
      info.name = "file-crc";
      info.offset = src.Position();
      info.length = 4;
      uint32_t stored = 0;
      XCLUSTER_RETURN_IF_ERROR(GetFixed32(&src, &stored));
      info.crc_ok =
          crc32c::Unmask(stored) ==
          crc32c::Value(bytes.substr(0, static_cast<size_t>(info.offset)));
      sections->push_back(std::move(info));
      return Status::OK();
    }
    if (header.length > src.Remaining()) {
      return Status::Corruption("section " + std::to_string(header.id) +
                                " length overruns the file");
    }
    SynopsisSectionInfo info;
    info.id = header.id;
    info.name = section_name(header.id);
    info.offset = src.Position();
    info.length = header.length;
    const std::string_view payload =
        bytes.substr(src.Position(), static_cast<size_t>(header.length));
    XCLUSTER_RETURN_IF_ERROR(src.Skip(static_cast<size_t>(header.length)));
    uint32_t stored = 0;
    XCLUSTER_RETURN_IF_ERROR(GetFixed32(&src, &stored));
    info.crc_ok = crc32c::Unmask(stored) == crc32c::Value(payload);
    sections->push_back(std::move(info));
  }
}

Status EncodeSynopsis(const GraphSynopsis& input, ByteSink* sink) {
  XCLUSTER_TRACE_SPAN("serialize.encode");
  XCLUSTER_SCOPED_TIMER_NS("serialize.encode_ns");
  // Serialize a compacted copy so ids are dense.
  GraphSynopsis synopsis = input;
  synopsis.Compact();

  std::string header;
  {
    StringSink hs(&header);
    (void)hs.Append(kBinaryMagic, sizeof(kBinaryMagic));
    PutFixed32(&hs, kBinaryVersion);
  }

  std::string labels;
  {
    StringSink ls(&labels);
    PutVarint64(&ls, synopsis.labels().size());
    for (SymbolId id = 0; id < synopsis.labels().size(); ++id) {
      PutLengthPrefixed(&ls, synopsis.labels().Get(id));
    }
  }

  std::string terms;
  {
    StringSink ts(&terms);
    auto dict = synopsis.term_dictionary();
    const size_t num_terms = dict ? dict->size() : 0;
    PutVarint64(&ts, num_terms);
    for (TermId id = 0; id < num_terms; ++id) {
      PutLengthPrefixed(&ts, dict->Get(id));
    }
  }

  std::string nodes;
  {
    StringSink ns(&nodes);
    PutVarint64(&ns, synopsis.root());
    PutVarint64(&ns, synopsis.NodeCount());
    for (SynNodeId id : synopsis.AliveNodes()) {
      const SynNode& node = synopsis.node(id);
      PutVarint64(&ns, node.label);
      PutFixed8(&ns, static_cast<uint8_t>(node.type));
      PutDouble(&ns, node.count);
      EncodeSummary(node.vsumm, &ns);
    }
  }

  std::string edges;
  {
    StringSink es(&edges);
    PutVarint64(&es, synopsis.EdgeCount());
    for (SynNodeId id : synopsis.AliveNodes()) {
      for (const SynEdge& edge : synopsis.node(id).children) {
        PutVarint64(&es, id);
        PutVarint64(&es, edge.target);
        PutDouble(&es, edge.avg_count);
      }
    }
  }

  // Assemble the whole file in memory first so the end marker can carry a
  // CRC over everything, then hand it to the sink in one pass.
  std::string file;
  StringSink fs(&file);
  XCLUSTER_RETURN_IF_ERROR(fs.Append(header));
  XCLUSTER_RETURN_IF_ERROR(AppendSection(&fs, kLabels, labels));
  XCLUSTER_RETURN_IF_ERROR(AppendSection(&fs, kTerms, terms));
  XCLUSTER_RETURN_IF_ERROR(AppendSection(&fs, kNodes, nodes));
  XCLUSTER_RETURN_IF_ERROR(AppendSection(&fs, kEdges, edges));
  PutFixed8(&fs, kEnd);
  uint32_t file_crc = 0;
  {
    XCLUSTER_SCOPED_TIMER_NS("serialize.crc_ns");
    file_crc = crc32c::Value(file);
  }
  PutFixed32(&fs, crc32c::Mask(file_crc));
  XCLUSTER_COUNTER_ADD("serialize.bytes.total", file.size() + 4);
  return sink->Append(file);
}

std::string EncodeSynopsisToString(const GraphSynopsis& synopsis) {
  std::string out;
  StringSink sink(&out);
  (void)EncodeSynopsis(synopsis, &sink);
  return out;
}

Result<GraphSynopsis> DecodeSynopsis(ByteSource* src) {
  XCLUSTER_TRACE_SPAN("serialize.decode");
  XCLUSTER_SCOPED_TIMER_NS("serialize.decode_ns");
  GraphSynopsis synopsis;
  std::vector<std::string> labels;
  bool saw_labels = false;
  bool saw_nodes = false;
  bool saw_edges = false;

  Status walk = WalkSections(
      src, [&](SectionId id, std::string_view payload) -> Status {
        switch (id) {
          case kLabels:
            if (saw_labels) return Status::Corruption("duplicate section");
            saw_labels = true;
            return DecodeLabels(payload, &synopsis, &labels);
          case kTerms:
            return DecodeTerms(payload, &synopsis);
          case kNodes:
            if (!saw_labels) {
              return Status::Corruption("nodes section before labels");
            }
            if (saw_nodes) return Status::Corruption("duplicate section");
            saw_nodes = true;
            return DecodeNodes(payload, labels, &synopsis);
          case kEdges:
            if (!saw_nodes) {
              return Status::Corruption("edges section before nodes");
            }
            if (saw_edges) return Status::Corruption("duplicate section");
            saw_edges = true;
            return DecodeEdges(payload, &synopsis);
          default:
            // Unknown section ids are CRC-checked and skipped (forward
            // compatibility).
            return Status::OK();
        }
      });
  XCLUSTER_RETURN_IF_ERROR(walk);
  if (!saw_nodes) return Status::Corruption("missing nodes section");
  return synopsis;
}

Result<GraphSynopsis> DecodeSynopsisBytes(std::string_view bytes) {
  if (bytes.substr(0, kLegacyMagic.size()) == kLegacyMagic) {
    return DecodeLegacyText(bytes);
  }
  StringSource src(bytes);
  return DecodeSynopsis(&src);
}

Status VerifySynopsisBytes(std::string_view bytes, std::string* report) {
  auto note = [report](const std::string& line) {
    if (report != nullptr) {
      *report += line;
      *report += '\n';
    }
  };

  if (bytes.substr(0, kLegacyMagic.size()) == kLegacyMagic) {
    note("format: legacy text (version 1, no checksums)");
    Result<GraphSynopsis> decoded = DecodeLegacyText(bytes);
    XCLUSTER_RETURN_IF_ERROR(decoded.status());
    note("nodes: " + std::to_string(decoded.value().NodeCount()));
    note("edges: " + std::to_string(decoded.value().EdgeCount()));
    return Status::OK();
  }

  if (bytes.size() < 8 ||
      bytes.substr(0, 4) != std::string_view(kBinaryMagic, 4)) {
    return Status::Corruption("not an XCluster binary synopsis (bad magic)");
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  note("format: binary (version " + std::to_string(version) + ")");
  StringSource src(bytes);
  Status walked = WalkSections(
      &src, [&](SectionId id, std::string_view payload) -> Status {
        note("section " + std::to_string(id) + ": " +
             std::to_string(payload.size()) + " bytes, checksum ok");
        return Status::OK();
      });
  XCLUSTER_RETURN_IF_ERROR(walked);
  note("whole-file checksum ok");

  Result<GraphSynopsis> decoded = DecodeSynopsisBytes(bytes);
  XCLUSTER_RETURN_IF_ERROR(decoded.status());
  note("decode ok: " + std::to_string(decoded.value().NodeCount()) +
       " nodes, " + std::to_string(decoded.value().EdgeCount()) + " edges");
  return Status::OK();
}

Status VerifySynopsisFile(const std::string& path, std::string* report) {
  XCLUSTER_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return VerifySynopsisBytes(bytes, report);
}

Status XCluster::Save(const std::string& path) const {
  std::string bytes;
  StringSink sink(&bytes);
  XCLUSTER_RETURN_IF_ERROR(EncodeSynopsis(synopsis_, &sink));
  return WriteFileAtomic(path, bytes);
}

Result<XCluster> XCluster::Load(const std::string& path) {
  XCLUSTER_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  XCLUSTER_ASSIGN_OR_RETURN(GraphSynopsis synopsis,
                            DecodeSynopsisBytes(bytes));
  return XCluster(std::move(synopsis));
}

}  // namespace xcluster
