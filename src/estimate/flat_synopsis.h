#ifndef XCLUSTER_ESTIMATE_FLAT_SYNOPSIS_H_
#define XCLUSTER_ESTIMATE_FLAT_SYNOPSIS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "common/string_pool.h"
#include "summaries/value_summary.h"
#include "synopsis/graph.h"
#include "text/dictionary.h"

namespace xcluster {

/// A read-only interned-string table served straight from an XCSF image:
/// the concatenated string bytes, a (count+1)-entry offset array
/// slicing them, and a sort index (the ids permuted into string order) so
/// Lookup is a binary search with zero per-string work at load time — no
/// hash index is ever hydrated. All three views point into the image; the
/// owner (FlatSynopsis) pins the backing.
class FlatStringTable final : public TermResolver {
 public:
  FlatStringTable() = default;
  FlatStringTable(std::string_view blob, std::span<const uint32_t> offsets,
                  std::span<const uint32_t> sorted)
      : blob_(blob), offsets_(offsets), sorted_(sorted) {}

  uint32_t size() const { return static_cast<uint32_t>(sorted_.size()); }
  bool valid() const { return !offsets_.empty(); }

  std::string_view Get(uint32_t id) const {
    return blob_.substr(offsets_[id], offsets_[id + 1] - offsets_[id]);
  }

  /// Binary search over the sort index; kInvalidSymbol when absent.
  SymbolId Lookup(std::string_view s) const override;

 private:
  std::string_view blob_;
  std::span<const uint32_t> offsets_;  ///< count + 1 entries
  std::span<const uint32_t> sorted_;   ///< ids in ascending string order
};

/// Dense id of a node in a FlatSynopsis. Flat ids number the *alive*
/// nodes of the source GraphSynopsis in arena order, so ascending flat id
/// order equals ascending SynNodeId order — the property that keeps flat
/// estimates bit-identical to the graph-walking reference estimator (both
/// sum reach contributions in the same node order).
using FlatNodeId = uint32_t;
inline constexpr FlatNodeId kNoFlatNode = static_cast<FlatNodeId>(-1);

/// An immutable, read-optimized synopsis: the estimator hot path's one
/// representation, always a validated XCSF image (src/storage). Its
/// columns, string tables and still-encoded summary pool are spans into
/// that image — zero copies, zero parse — and `backing` pins the image
/// for the synopsis's lifetime: an mmapped file (storage::OpenXcsf) or an
/// owned buffer (storage::AdoptXcsf, which storage::CompileXcsf runs on a
/// freshly encoded GraphSynopsis).
///
/// The columns:
///
///  * per-node — label symbol, value type, extent count, and a summary-pool
///    index (kNoSummary for summary-less nodes);
///  * CSR adjacency — `edge_offsets[n] .. edge_offsets[n+1]` indexes
///    parallel target/count arrays in the original child order;
///  * a per-label child index — the same edge ranges stable-sorted by
///    child label, so a labeled child step binary-searches its label run
///    instead of scanning every child (original relative order within a
///    label is preserved, keeping summation order identical).
class FlatSynopsis {
 public:
  /// Sentinel in the per-node summary-index column: no value summary.
  static constexpr uint32_t kNoSummary = static_cast<uint32_t>(-1);

  /// The columnar views, each pointing into the image.
  struct Columns {
    std::span<const SymbolId> labels;          ///< per node
    std::span<const ValueType> types;          ///< per node
    std::span<const double> counts;            ///< per node
    std::span<const uint32_t> vsumm_index;     ///< per node, kNoSummary = none
    std::span<const SynNodeId> syn_of;         ///< per node: source arena id
    std::span<const FlatNodeId> flat_of;       ///< per arena slot
    std::span<const uint32_t> edge_offsets;    ///< num_nodes + 1
    std::span<const FlatNodeId> edge_targets;
    std::span<const double> edge_counts;
    std::span<const SymbolId> sorted_edge_labels;
    std::span<const FlatNodeId> sorted_edge_targets;
    std::span<const double> sorted_edge_counts;
    FlatNodeId root = kNoFlatNode;
  };

  /// The value-summary pool, still in its encoded record form:
  /// `offsets[i] .. offsets[i+1]` slices summary i out of `blob`.
  /// Summaries are decoded lazily, per slot, on first access — the pool
  /// contributes nothing to cold-start latency.
  struct SummaryPool {
    std::string_view blob;
    std::span<const uint64_t> offsets;  ///< count + 1 entries
    uint32_t count() const {
      return offsets.empty() ? 0 : static_cast<uint32_t>(offsets.size() - 1);
    }
  };

  /// Wraps the parts of `image` that storage's attach has validated:
  /// columns, string tables and the encoded summary pool all point into
  /// `image`, which `backing` keeps alive.
  FlatSynopsis(std::string_view image, const Columns& columns,
               SummaryPool summaries, FlatStringTable labels,
               std::optional<FlatStringTable> terms,
               std::shared_ptr<const void> backing);

  ~FlatSynopsis();

  FlatSynopsis(const FlatSynopsis&) = delete;
  FlatSynopsis& operator=(const FlatSynopsis&) = delete;

  /// The whole XCSF image: what XCluster::Save writes and a served
  /// snapshot reports as its size.
  std::string_view image() const { return image_; }

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(cols_.counts.size());
  }
  size_t num_edges() const { return cols_.edge_targets.size(); }
  FlatNodeId root() const { return cols_.root; }

  SymbolId label(FlatNodeId n) const { return cols_.labels[n]; }
  ValueType type(FlatNodeId n) const { return cols_.types[n]; }
  double count(FlatNodeId n) const { return cols_.counts[n]; }
  /// Null when the node has no summary; otherwise summary() of its pool
  /// index.
  const ValueSummary* vsumm(FlatNodeId n) const {
    const uint32_t index = cols_.vsumm_index[n];
    return index == kNoSummary ? nullptr : summary(index);
  }

  /// Raw CSR children of `n` in original child order.
  size_t edges_begin(FlatNodeId n) const { return cols_.edge_offsets[n]; }
  size_t edges_end(FlatNodeId n) const { return cols_.edge_offsets[n + 1]; }
  FlatNodeId edge_target(size_t e) const { return cols_.edge_targets[e]; }
  double edge_count(size_t e) const { return cols_.edge_counts[e]; }

  /// Label-sorted children of `n`: sets [*begin, *end) to the index range
  /// (into sorted_edge_target/sorted_edge_count) of children labeled
  /// `label`. Empty range when none.
  void LabelRun(FlatNodeId n, SymbolId label, size_t* begin,
                size_t* end) const;
  FlatNodeId sorted_edge_target(size_t e) const {
    return cols_.sorted_edge_targets[e];
  }
  double sorted_edge_count(size_t e) const {
    return cols_.sorted_edge_counts[e];
  }

  /// Resolves a query label against the synopsis label pool
  /// (kInvalidSymbol when the tag never occurs in the synopsis).
  SymbolId LookupLabel(std::string_view label) const {
    return labels_.Lookup(label);
  }

  /// Query-time term resolution (binary search over the image's sorted
  /// term index); null when the synopsis carries no term dictionary.
  const TermResolver* term_resolver() const {
    return terms_.has_value() ? &terms_.value() : nullptr;
  }

  /// String and summary enumeration, for ToGraph.
  size_t num_labels() const { return labels_.size(); }
  std::string_view label_string(SymbolId id) const { return labels_.Get(id); }
  size_t num_terms() const { return terms_.has_value() ? terms_->size() : 0; }
  std::string_view term_string(TermId id) const { return terms_->Get(id); }
  uint32_t num_summaries() const { return pool_.count(); }
  /// Summary `index` of the pool, decoded on first access (thread-safe:
  /// concurrent first touches race benignly, one decode wins) — cold start
  /// never pays for summaries the workload never hits.
  const ValueSummary* summary(uint32_t index) const {
    const ValueSummary* decoded =
        slots_[index].load(std::memory_order_acquire);
    return decoded != nullptr ? decoded : DecodeSummary(index);
  }

  /// Original arena id of flat node `n` (for diagnostics / tests).
  SynNodeId syn_of(FlatNodeId n) const { return cols_.syn_of[n]; }
  /// Flat id of arena node `id`; kNoFlatNode for dead nodes.
  FlatNodeId flat_of(SynNodeId id) const { return cols_.flat_of[id]; }

 private:
  /// Decodes summary `index` out of the pool, publishes it into slots_
  /// (first decode wins, losers are discarded), and returns the published
  /// pointer. Never fails: a record that does not decode — the pool's CRC
  /// only proves the bytes are the writer's — publishes an empty summary
  /// instead of crashing the serve path.
  const ValueSummary* DecodeSummary(uint32_t index) const;

  std::string_view image_;
  Columns cols_;
  FlatStringTable labels_;
  std::optional<FlatStringTable> terms_;
  SummaryPool pool_;
  /// One slot per pool entry: null until the entry is first decoded.
  std::unique_ptr<std::atomic<const ValueSummary*>[]> slots_;
  std::shared_ptr<const void> backing_;  ///< pins the image
};

/// Rebuilds the GraphSynopsis a FlatSynopsis holds: the inverse of
/// storage::XcsfWriter::Encode. Labels and terms are interned in id order,
/// one node is added per flat node (with its value summary) and one edge
/// per CSR edge in stored order, so encoding `ToGraph(flat)` reproduces
/// `flat.image()` byte for byte whenever flat's source graph was compacted
/// (syn_of is the identity). The result always carries a term dictionary,
/// empty when `flat` has no terms.
///
/// Each summary decodes here; a record that does not decode comes back
/// empty (see FlatSynopsis::summary). Callers that must reject such an
/// image run storage::VerifyXcsfBytes first.
GraphSynopsis ToGraph(const FlatSynopsis& flat);

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_FLAT_SYNOPSIS_H_
