#include "estimate/flat_synopsis.h"

#include <algorithm>
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

FlatSynopsis::FlatSynopsis(std::string_view image, const Columns& columns,
                           SummaryPool summaries, FlatStringTable labels,
                           std::optional<FlatStringTable> terms,
                           std::shared_ptr<const void> backing)
    : image_(image),
      cols_(columns),
      labels_(labels),
      terms_(std::move(terms)),
      pool_(summaries),
      // value-initialized: every slot starts null (not yet decoded)
      slots_(std::make_unique<std::atomic<const ValueSummary*>[]>(
          pool_.count())),
      backing_(std::move(backing)) {}

FlatSynopsis::~FlatSynopsis() {
  for (uint32_t i = 0; i < pool_.count(); ++i) {
    delete slots_[i].load(std::memory_order_acquire);
  }
}

const ValueSummary* FlatSynopsis::DecodeSummary(uint32_t index) const {
  XCLUSTER_SCOPED_TIMER_NS("estimate.flat.lazy_decode_ns");
  const uint64_t begin = pool_.offsets[index];
  const uint64_t end = pool_.offsets[index + 1];
  StringSource src(pool_.blob.substr(begin, end - begin));
  auto decoded = std::make_unique<ValueSummary>();
  const Status status = DecodeValueSummary(&src, decoded.get());
  if (!status.ok() || src.Remaining() != 0) {
    // Keep the serve path crash-free: an empty summary estimates like a
    // summary-less node.
    XCLUSTER_COUNTER_INC("estimate.flat.lazy_decode_failures");
    *decoded = ValueSummary();
  }
  const ValueSummary* expected = nullptr;
  if (slots_[index].compare_exchange_strong(expected, decoded.get(),
                                            std::memory_order_release,
                                            std::memory_order_acquire)) {
    return decoded.release();
  }
  return expected;  // another thread published first; ours is discarded
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

}  // namespace xcluster
