#include "estimate/flat_synopsis.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/io/bytes.h"
#include "common/telemetry/telemetry.h"
#include "core/serialize.h"

namespace xcluster {

SymbolId FlatStringTable::Lookup(std::string_view s) const {
  const uint32_t* lo = sorted_.data();
  const uint32_t* hi = lo + sorted_.size();
  while (lo < hi) {
    const uint32_t* mid = lo + (hi - lo) / 2;
    const std::string_view candidate = Get(*mid);
    if (candidate < s) {
      lo = mid + 1;
    } else if (s < candidate) {
      hi = mid;
    } else {
      return static_cast<SymbolId>(*mid);
    }
  }
  return kInvalidSymbol;
}

FlatSynopsis::FlatSynopsis(const GraphSynopsis& synopsis)
    : labels_pool_(synopsis.labels()), dict_(synopsis.term_dictionary()) {
  const size_t arena = synopsis.arena_size();
  owned_.flat_of.assign(arena, kNoFlatNode);
  for (SynNodeId id = 0; id < arena; ++id) {
    if (!synopsis.node(id).alive) continue;
    owned_.flat_of[id] = static_cast<FlatNodeId>(owned_.syn_of.size());
    owned_.syn_of.push_back(id);
  }
  const size_t n = owned_.syn_of.size();
  owned_.labels.resize(n);
  owned_.types.resize(n);
  owned_.counts.resize(n);
  owned_.vsumm_index.resize(n);
  owned_.edge_offsets.assign(n + 1, 0);

  for (FlatNodeId f = 0; f < n; ++f) {
    const SynNode& node = synopsis.node(owned_.syn_of[f]);
    owned_.labels[f] = node.label;
    owned_.types[f] = node.type;
    owned_.counts[f] = node.count;
    if (node.vsumm.empty()) {
      owned_.vsumm_index[f] = kNoSummary;
    } else {
      owned_.vsumm_index[f] = static_cast<uint32_t>(summaries_.size());
      summaries_.push_back(node.vsumm);  // deep copy: self-contained form
    }
    for (const SynEdge& edge : node.children) {
      if (owned_.flat_of[edge.target] != kNoFlatNode) {
        ++owned_.edge_offsets[f + 1];
      }
    }
  }
  std::partial_sum(owned_.edge_offsets.begin(), owned_.edge_offsets.end(),
                   owned_.edge_offsets.begin());

  const size_t m = owned_.edge_offsets[n];
  owned_.edge_targets.resize(m);
  owned_.edge_counts.resize(m);
  for (FlatNodeId f = 0; f < n; ++f) {
    size_t e = owned_.edge_offsets[f];
    for (const SynEdge& edge : synopsis.node(owned_.syn_of[f]).children) {
      const FlatNodeId target = owned_.flat_of[edge.target];
      if (target == kNoFlatNode) continue;
      owned_.edge_targets[e] = target;
      owned_.edge_counts[e] = edge.avg_count;
      ++e;
    }
  }

  // Per-label index: each node's edge range stable-sorted by child label,
  // so one label's children stay in original order (the graph's child
  // order, which fixes the summation order).
  owned_.sorted_edge_labels.resize(m);
  owned_.sorted_edge_targets.resize(m);
  owned_.sorted_edge_counts.resize(m);
  std::vector<uint32_t> order;
  for (FlatNodeId f = 0; f < n; ++f) {
    const size_t begin = owned_.edge_offsets[f];
    const size_t end = owned_.edge_offsets[f + 1];
    order.resize(end - begin);
    std::iota(order.begin(), order.end(), static_cast<uint32_t>(begin));
    std::stable_sort(order.begin(), order.end(),
                     [this](uint32_t a, uint32_t b) {
                       return owned_.labels[owned_.edge_targets[a]] <
                              owned_.labels[owned_.edge_targets[b]];
                     });
    for (size_t i = 0; i < order.size(); ++i) {
      const uint32_t e = order[i];
      owned_.sorted_edge_labels[begin + i] =
          owned_.labels[owned_.edge_targets[e]];
      owned_.sorted_edge_targets[begin + i] = owned_.edge_targets[e];
      owned_.sorted_edge_counts[begin + i] = owned_.edge_counts[e];
    }
  }

  cols_.labels = owned_.labels;
  cols_.types = owned_.types;
  cols_.counts = owned_.counts;
  cols_.vsumm_index = owned_.vsumm_index;
  cols_.syn_of = owned_.syn_of;
  cols_.flat_of = owned_.flat_of;
  cols_.edge_offsets = owned_.edge_offsets;
  cols_.edge_targets = owned_.edge_targets;
  cols_.edge_counts = owned_.edge_counts;
  cols_.sorted_edge_labels = owned_.sorted_edge_labels;
  cols_.sorted_edge_targets = owned_.sorted_edge_targets;
  cols_.sorted_edge_counts = owned_.sorted_edge_counts;
  if (synopsis.root() != kNoSynNode && synopsis.root() < arena) {
    cols_.root = owned_.flat_of[synopsis.root()];
  }

  BuildSummaryPointers();
}

FlatSynopsis::FlatSynopsis(const Columns& columns, MappedSummaryPool summaries,
                           FlatStringTable labels,
                           std::optional<FlatStringTable> terms,
                           std::shared_ptr<const void> backing)
    : cols_(columns),
      mapped_labels_(labels),
      mapped_terms_(std::move(terms)),
      lazy_pool_(summaries),
      backing_(std::move(backing)) {
  // value-initialized: every slot starts null (not yet decoded)
  lazy_slots_ = std::make_unique<std::atomic<const ValueSummary*>[]>(
      lazy_pool_.count());
}

FlatSynopsis::~FlatSynopsis() {
  if (lazy_slots_ == nullptr) return;
  for (uint32_t i = 0; i < lazy_pool_.count(); ++i) {
    delete lazy_slots_[i].load(std::memory_order_acquire);
  }
}

const ValueSummary* FlatSynopsis::DecodeLazySummary(uint32_t index) const {
  const uint64_t begin = lazy_pool_.offsets[index];
  const uint64_t end = lazy_pool_.offsets[index + 1];
  StringSource src(lazy_pool_.blob.substr(begin, end - begin));
  auto decoded = std::make_unique<ValueSummary>();
  const Status status = DecodeValueSummary(&src, decoded.get());
  if (!status.ok() || src.Remaining() != 0) {
    // The pool section's CRC only proves the bytes are the sender's: a
    // mapped or wire-installed image can carry a malformed record. Keep the
    // serve path crash-free: an empty summary estimates like a summary-less
    // node.
    XCLUSTER_COUNTER_INC("estimate.flat.lazy_decode_failures");
    *decoded = ValueSummary();
  }
  const ValueSummary* expected = nullptr;
  if (lazy_slots_[index].compare_exchange_strong(expected, decoded.get(),
                                                 std::memory_order_release,
                                                 std::memory_order_acquire)) {
    return decoded.release();
  }
  return expected;  // another thread published first; ours is discarded
}

void FlatSynopsis::BuildSummaryPointers() {
  vsumms_.resize(cols_.vsumm_index.size());
  for (size_t i = 0; i < vsumms_.size(); ++i) {
    const uint32_t index = cols_.vsumm_index[i];
    vsumms_[i] = index == kNoSummary ? nullptr : &summaries_[index];
  }
}

void FlatSynopsis::LabelRun(FlatNodeId n, SymbolId label, size_t* begin,
                            size_t* end) const {
  const SymbolId* base = cols_.sorted_edge_labels.data();
  const SymbolId* first = base + cols_.edge_offsets[n];
  const SymbolId* last = base + cols_.edge_offsets[n + 1];
  const SymbolId* lo = std::lower_bound(first, last, label);
  const SymbolId* hi = std::upper_bound(lo, last, label);
  *begin = static_cast<size_t>(lo - base);
  *end = static_cast<size_t>(hi - base);
}

GraphSynopsis ToGraph(const FlatSynopsis& flat) {
  GraphSynopsis graph;
  for (size_t id = 0; id < flat.num_labels(); ++id) {
    graph.labels().Intern(flat.label_string(static_cast<SymbolId>(id)));
  }
  auto dict = std::make_shared<TermDictionary>();
  for (size_t id = 0; id < flat.num_terms(); ++id) {
    dict->Intern(flat.term_string(static_cast<TermId>(id)));
  }
  graph.set_term_dictionary(std::move(dict));
  for (FlatNodeId n = 0; n < flat.num_nodes(); ++n) {
    const SynNodeId id = graph.AddNode(flat.label_string(flat.label(n)),
                                       flat.type(n), flat.count(n));
    if (const ValueSummary* vsumm = flat.vsumm(n)) {
      graph.node(id).vsumm = *vsumm;
    }
  }
  for (FlatNodeId n = 0; n < flat.num_nodes(); ++n) {
    for (size_t e = flat.edges_begin(n); e < flat.edges_end(n); ++e) {
      graph.AddEdge(n, flat.edge_target(e), flat.edge_count(e));
    }
  }
  graph.set_root(flat.root());
  return graph;
}

size_t FlatSynopsis::MemoryBytes() const {
  const size_t n = cols_.counts.size();
  const size_t m = cols_.edge_targets.size();
  // Mapped form: the pool is the encoded bytes (page cache) plus the lazy
  // slot array; decoded-summary heap usage grows with the working set and
  // is not tracked here.
  const size_t summary_bytes =
      lazy_slots_ != nullptr
          ? lazy_pool_.blob.size() +
                lazy_pool_.count() * sizeof(std::atomic<const ValueSummary*>)
          : summaries_.size() * sizeof(ValueSummary);
  return n * (sizeof(SymbolId) + sizeof(ValueType) + sizeof(double) +
              sizeof(uint32_t) + sizeof(const ValueSummary*) +
              sizeof(SynNodeId)) +
         cols_.flat_of.size() * sizeof(FlatNodeId) +
         (n + 1) * sizeof(uint32_t) +
         m * (2 * sizeof(FlatNodeId) + 2 * sizeof(double) + sizeof(SymbolId)) +
         summary_bytes;
}

}  // namespace xcluster
