#include "storage/xcsf_writer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>
#include <vector>

#include "common/io/bytes.h"
#include "common/io/crc32c.h"
#include "common/io/file_io.h"
#include "common/telemetry/telemetry.h"
#include "core/serialize.h"
#include "storage/xcsf_format.h"
#include "storage/xcsf_reader.h"

namespace xcluster {
namespace storage {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
std::string_view AsBytes(const std::vector<T>& column) {
  return std::string_view(reinterpret_cast<const char*>(column.data()),
                          column.size() * sizeof(T));
}

/// String table: u32 count | u32 zero | u32 offsets[count+1] | bytes.
/// Offsets are relative to the blob base (right after the offset array);
/// offsets[0] = 0, offsets[count] = blob size.
template <typename GetString>
std::string EncodeStringTable(size_t count, GetString&& get) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(count));
  AppendU32(&out, 0);
  uint32_t offset = 0;
  for (size_t i = 0; i <= count; ++i) {
    AppendU32(&out, offset);
    if (i < count) offset += static_cast<uint32_t>(get(i).size());
  }
  for (size_t i = 0; i < count; ++i) out.append(get(i));
  return out;
}

/// Sort-index section: the pool ids permuted into ascending string order,
/// so a reader resolves lookups by binary search instead of hydrating a
/// hash index at load time.
template <typename GetString>
std::string EncodeSortIndex(size_t count, GetString&& get) {
  std::vector<uint32_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(),
            [&get](uint32_t a, uint32_t b) { return get(a) < get(b); });
  return std::string(reinterpret_cast<const char*>(order.data()),
                     order.size() * sizeof(uint32_t));
}

/// The columns of a FlatSynopsis laid out from a graph: alive nodes
/// numbered in arena order, CSR edges in child order (edges to dead
/// targets dropped), each node's edges stable-sorted by child label, and
/// the value summaries encoded into the pool in node order.
struct GraphColumns {
  std::vector<SymbolId> labels;
  std::vector<ValueType> types;
  std::vector<double> counts;
  std::vector<uint32_t> vsumm_index;
  std::vector<SynNodeId> syn_of;
  std::vector<FlatNodeId> flat_of;
  std::vector<uint32_t> edge_offsets;
  std::vector<FlatNodeId> edge_targets;
  std::vector<double> edge_counts;
  std::vector<SymbolId> sorted_edge_labels;
  std::vector<FlatNodeId> sorted_edge_targets;
  std::vector<double> sorted_edge_counts;
  FlatNodeId root = kNoFlatNode;
  std::string summary_pool;  ///< u32 count | u32 zero | u64 offsets | blobs
};

GraphColumns LayOutColumns(const GraphSynopsis& graph) {
  GraphColumns cols;
  const size_t arena = graph.arena_size();
  cols.flat_of.assign(arena, kNoFlatNode);
  for (SynNodeId id = 0; id < arena; ++id) {
    if (!graph.node(id).alive) continue;
    cols.flat_of[id] = static_cast<FlatNodeId>(cols.syn_of.size());
    cols.syn_of.push_back(id);
  }
  const size_t n = cols.syn_of.size();
  cols.labels.resize(n);
  cols.types.resize(n);
  cols.counts.resize(n);
  cols.vsumm_index.resize(n);
  cols.edge_offsets.assign(n + 1, 0);

  std::string blobs;
  StringSink sink(&blobs);
  std::vector<uint64_t> pool_offsets;
  for (FlatNodeId f = 0; f < n; ++f) {
    const SynNode& node = graph.node(cols.syn_of[f]);
    cols.labels[f] = node.label;
    cols.types[f] = node.type;
    cols.counts[f] = node.count;
    if (node.vsumm.empty()) {
      cols.vsumm_index[f] = FlatSynopsis::kNoSummary;
    } else {
      cols.vsumm_index[f] = static_cast<uint32_t>(pool_offsets.size());
      pool_offsets.push_back(blobs.size());
      EncodeValueSummary(node.vsumm, &sink);
    }
    for (const SynEdge& edge : node.children) {
      if (cols.flat_of[edge.target] != kNoFlatNode) {
        ++cols.edge_offsets[f + 1];
      }
    }
  }
  pool_offsets.push_back(blobs.size());
  AppendU32(&cols.summary_pool,
            static_cast<uint32_t>(pool_offsets.size() - 1));
  AppendU32(&cols.summary_pool, 0);
  for (const uint64_t offset : pool_offsets) {
    AppendU64(&cols.summary_pool, offset);
  }
  cols.summary_pool.append(blobs);

  std::partial_sum(cols.edge_offsets.begin(), cols.edge_offsets.end(),
                   cols.edge_offsets.begin());
  const size_t m = cols.edge_offsets[n];
  cols.edge_targets.resize(m);
  cols.edge_counts.resize(m);
  for (FlatNodeId f = 0; f < n; ++f) {
    size_t e = cols.edge_offsets[f];
    for (const SynEdge& edge : graph.node(cols.syn_of[f]).children) {
      const FlatNodeId target = cols.flat_of[edge.target];
      if (target == kNoFlatNode) continue;
      cols.edge_targets[e] = target;
      cols.edge_counts[e] = edge.avg_count;
      ++e;
    }
  }

  // Per-label index: each node's edge range stable-sorted by child label,
  // so one label's children stay in original order (the graph's child
  // order, which fixes the summation order).
  cols.sorted_edge_labels.resize(m);
  cols.sorted_edge_targets.resize(m);
  cols.sorted_edge_counts.resize(m);
  std::vector<uint32_t> order;
  for (FlatNodeId f = 0; f < n; ++f) {
    const size_t begin = cols.edge_offsets[f];
    const size_t end = cols.edge_offsets[f + 1];
    order.resize(end - begin);
    std::iota(order.begin(), order.end(), static_cast<uint32_t>(begin));
    std::stable_sort(order.begin(), order.end(),
                     [&cols](uint32_t a, uint32_t b) {
                       return cols.labels[cols.edge_targets[a]] <
                              cols.labels[cols.edge_targets[b]];
                     });
    for (size_t i = 0; i < order.size(); ++i) {
      const uint32_t e = order[i];
      cols.sorted_edge_labels[begin + i] = cols.labels[cols.edge_targets[e]];
      cols.sorted_edge_targets[begin + i] = cols.edge_targets[e];
      cols.sorted_edge_counts[begin + i] = cols.edge_counts[e];
    }
  }
  if (graph.root() != kNoSynNode && graph.root() < arena) {
    cols.root = cols.flat_of[graph.root()];
  }
  return cols;
}

struct PendingSection {
  uint32_t id = 0;
  std::string owned;       ///< used when view is empty
  std::string_view view;   ///< zero-copy reference into GraphColumns
  std::string_view payload() const { return view.data() ? view : owned; }
};

}  // namespace

Status XcsfWriter::Encode(const GraphSynopsis& graph, std::string* out) {
  XCLUSTER_TRACE_SPAN("storage.xcsf_encode");
  XCLUSTER_SCOPED_TIMER_NS("storage.xcsf.encode_ns");
  const GraphColumns cols = LayOutColumns(graph);
  const StringPool& labels = graph.labels();
  const TermDictionary* terms = graph.term_dictionary().get();
  const auto label_at = [&labels](size_t i) -> std::string_view {
    return labels.Get(static_cast<SymbolId>(i));
  };
  const auto term_at = [terms](size_t i) -> std::string_view {
    return terms->Get(static_cast<TermId>(i));
  };
  const bool has_terms = terms != nullptr && terms->size() > 0;

  std::vector<PendingSection> sections;
  auto add_view = [&sections](uint32_t id, std::string_view bytes) {
    sections.push_back(PendingSection{id, std::string(), bytes});
  };
  auto add_owned = [&sections](uint32_t id, std::string bytes) {
    sections.push_back(
        PendingSection{id, std::move(bytes), std::string_view()});
  };

  add_view(kXcsfNodeLabels, AsBytes(cols.labels));
  add_view(kXcsfNodeTypes, AsBytes(cols.types));
  add_view(kXcsfNodeCounts, AsBytes(cols.counts));
  add_view(kXcsfNodeSummaryIndex, AsBytes(cols.vsumm_index));
  add_view(kXcsfSynOf, AsBytes(cols.syn_of));
  add_view(kXcsfFlatOf, AsBytes(cols.flat_of));
  add_view(kXcsfEdgeOffsets, AsBytes(cols.edge_offsets));
  add_view(kXcsfEdgeTargets, AsBytes(cols.edge_targets));
  add_view(kXcsfEdgeCounts, AsBytes(cols.edge_counts));
  add_view(kXcsfSortedEdgeLabels, AsBytes(cols.sorted_edge_labels));
  add_view(kXcsfSortedEdgeTargets, AsBytes(cols.sorted_edge_targets));
  add_view(kXcsfSortedEdgeCounts, AsBytes(cols.sorted_edge_counts));
  add_owned(kXcsfLabelPool, EncodeStringTable(labels.size(), label_at));
  if (has_terms) {
    add_owned(kXcsfTermPool, EncodeStringTable(terms->size(), term_at));
  }
  add_view(kXcsfSummaryPool, cols.summary_pool);
  add_owned(kXcsfLabelSortIndex, EncodeSortIndex(labels.size(), label_at));
  if (has_terms) {
    add_owned(kXcsfTermSortIndex, EncodeSortIndex(terms->size(), term_at));
  }

  // Lay out payload offsets: sections in declaration order, each aligned.
  const size_t table_bytes = sections.size() * kXcsfTableEntryBytes;
  uint64_t cursor = kXcsfHeaderBytes + table_bytes;
  std::vector<uint64_t> offsets(sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    cursor = (cursor + kXcsfSectionAlign - 1) / kXcsfSectionAlign *
             kXcsfSectionAlign;
    offsets[i] = cursor;
    cursor += sections[i].payload().size();
  }
  // Trailer sits at the next 8-byte boundary.
  const uint64_t trailer_offset = (cursor + 7) / 8 * 8;
  const uint64_t file_size = trailer_offset + kXcsfTrailerBytes;

  std::string table;
  table.reserve(table_bytes);
  for (size_t i = 0; i < sections.size(); ++i) {
    const std::string_view payload = sections[i].payload();
    AppendU32(&table, sections[i].id);
    AppendU32(&table, 0);
    AppendU64(&table, offsets[i]);
    AppendU64(&table, payload.size());
    uint32_t crc = 0;
    {
      XCLUSTER_SCOPED_TIMER_NS("storage.xcsf.crc_ns");
      crc = crc32c::Value(payload);
    }
    AppendU32(&table, crc32c::Mask(crc));
    AppendU32(&table, 0);
  }

  std::string& file = *out;
  file.clear();
  file.reserve(static_cast<size_t>(file_size));
  file.append(kXcsfMagic, sizeof(kXcsfMagic));
  AppendU32(&file, kXcsfVersion);
  uint64_t flags = 0;
  if (has_terms) flags |= kXcsfFlagHasTerms;
  AppendU64(&file, flags);
  AppendU64(&file, file_size);
  AppendU32(&file, kXcsfEndianCheck);
  AppendU32(&file, static_cast<uint32_t>(sections.size()));
  AppendU32(&file, static_cast<uint32_t>(cols.syn_of.size()));
  AppendU32(&file, cols.root);
  AppendU64(&file, cols.edge_targets.size());
  AppendU32(&file, static_cast<uint32_t>(cols.flat_of.size()));
  AppendU32(&file, 0);  // reserved
  AppendU32(&file, crc32c::Mask(crc32c::Value(table)));
  AppendU32(&file, crc32c::Mask(crc32c::Value(file)));  // header CRC [0,60)
  file.append(table);
  for (size_t i = 0; i < sections.size(); ++i) {
    file.resize(static_cast<size_t>(offsets[i]), '\0');  // alignment pad
    const std::string_view payload = sections[i].payload();
    file.append(payload.data(), payload.size());
  }
  file.resize(static_cast<size_t>(trailer_offset), '\0');
  uint32_t file_crc = 0;
  {
    XCLUSTER_SCOPED_TIMER_NS("storage.xcsf.crc_ns");
    file_crc = crc32c::Value(file);
  }
  AppendU32(&file, crc32c::Mask(file_crc));
  AppendU32(&file, 0);
  XCLUSTER_COUNTER_ADD("storage.xcsf.bytes_encoded", file.size());
  return Status::OK();
}

Status XcsfWriter::WriteGraph(const GraphSynopsis& graph,
                              const std::string& path, bool sync) {
  std::string image;
  XCLUSTER_RETURN_IF_ERROR(Encode(graph, &image));
  XCLUSTER_RETURN_IF_ERROR(WriteFileAtomic(path, image, sync));
  XCLUSTER_COUNTER_INC("storage.xcsf.writes");
  return Status::OK();
}

std::shared_ptr<const FlatSynopsis> CompileXcsf(const GraphSynopsis& graph) {
  std::string image;
  Status status = XcsfWriter::Encode(graph, &image);
  if (status.ok()) {
    Result<std::shared_ptr<const FlatSynopsis>> flat =
        AdoptXcsf(std::move(image));
    if (flat.ok()) return std::move(flat).value();
    status = flat.status();
  }
  // Every graph encodes to an image its own validator accepts; anything
  // else is a writer/reader disagreement, not bad input, and serving on
  // would mean serving a synopsis other than `graph`.
  std::fprintf(stderr, "CompileXcsf: %s\n", status.ToString().c_str());
  std::abort();
}

}  // namespace storage
}  // namespace xcluster
