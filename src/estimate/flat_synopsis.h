#ifndef XCLUSTER_ESTIMATE_FLAT_SYNOPSIS_H_
#define XCLUSTER_ESTIMATE_FLAT_SYNOPSIS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/string_pool.h"
#include "summaries/value_summary.h"
#include "synopsis/graph.h"
#include "text/dictionary.h"

namespace xcluster {

/// A read-only interned-string table served straight from a mapped XCSF
/// image: the concatenated string bytes, a (count+1)-entry offset array
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

/// An immutable, read-optimized view of a synopsis: the estimator hot
/// path's representation, shared by two backings behind one read API.
///
///  * Compiled in RAM from a GraphSynopsis (the install path): the
///    pointer-chasing arena of SynNode structs is flattened into owned
///    contiguous arrays, value summaries and the label pool are copied in,
///    so the source graph may be destroyed immediately after construction.
///  * Mapped from an XCSF image (src/storage): the same columns are spans
///    pointing straight into the mmapped file — zero copies, zero parse —
///    with `backing` pinning the mapping for the synopsis's lifetime.
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

  /// The columnar views. Spans point either into this object's owned
  /// vectors (compiled form) or into an external image (mapped form).
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

  /// Compiles `synopsis` into owned storage. Dead (merged-away) nodes are
  /// skipped; edges to dead targets are dropped. Value summaries and the
  /// label pool are deep-copied, so the FlatSynopsis is self-contained:
  /// `synopsis` may be destroyed as soon as the constructor returns.
  explicit FlatSynopsis(const GraphSynopsis& synopsis);

  /// The value-summary pool of a mapped image, still in its encoded wire
  /// form: `offsets[i] .. offsets[i+1]` slices summary i out of `blob`.
  /// Summaries are decoded lazily, per slot, on first access — the pool
  /// contributes nothing to cold-start latency.
  struct MappedSummaryPool {
    std::string_view blob;
    std::span<const uint64_t> offsets;  ///< count + 1 entries
    uint32_t count() const {
      return offsets.empty() ? 0 : static_cast<uint32_t>(offsets.size() - 1);
    }
  };

  /// Wraps externally backed columns (the XCSF mmap path). Everything —
  /// columns, string tables, and the still-encoded summary pool — points
  /// into the image that `backing` keeps alive (an mmapped file or an
  /// adopted wire buffer). The caller (storage::XcsfMmapView) is
  /// responsible for having validated all of it.
  FlatSynopsis(const Columns& columns, MappedSummaryPool summaries,
               FlatStringTable labels, std::optional<FlatStringTable> terms,
               std::shared_ptr<const void> backing);

  ~FlatSynopsis();

  FlatSynopsis(const FlatSynopsis&) = delete;
  FlatSynopsis& operator=(const FlatSynopsis&) = delete;
  // Not movable either: cols_ spans point into owned_ for the compiled
  // form. Held by unique_ptr everywhere.
  FlatSynopsis(FlatSynopsis&&) = delete;
  FlatSynopsis& operator=(FlatSynopsis&&) = delete;

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(cols_.counts.size());
  }
  size_t num_edges() const { return cols_.edge_targets.size(); }
  FlatNodeId root() const { return cols_.root; }

  SymbolId label(FlatNodeId n) const { return cols_.labels[n]; }
  ValueType type(FlatNodeId n) const { return cols_.types[n]; }
  double count(FlatNodeId n) const { return cols_.counts[n]; }
  /// Null when the node has no summary. Compiled form: resolved once at
  /// construction. Mapped form: decoded from the image on first access
  /// (thread-safe; concurrent first touches race benignly, one decode
  /// wins) — cold start never pays for summaries the workload never hits.
  const ValueSummary* vsumm(FlatNodeId n) const {
    if (lazy_slots_ == nullptr) return vsumms_[n];
    const uint32_t index = cols_.vsumm_index[n];
    if (index == kNoSummary) return nullptr;
    const ValueSummary* decoded =
        lazy_slots_[index].load(std::memory_order_acquire);
    return decoded != nullptr ? decoded : DecodeLazySummary(index);
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
    return mapped_labels_.valid() ? mapped_labels_.Lookup(label)
                                  : labels_pool_.Lookup(label);
  }

  /// Query-time term resolution; null when the synopsis carries no term
  /// dictionary. Compiled form: the shared TermDictionary. Mapped form:
  /// binary search over the image's sorted term index.
  const TermResolver* term_resolver() const {
    if (mapped_terms_.has_value()) return &mapped_terms_.value();
    return dict_.get();
  }

  /// The compiled form's shared dictionary (null for mapped synopses,
  /// which resolve terms via term_resolver() without hydrating one).
  std::shared_ptr<TermDictionary> term_dictionary() const { return dict_; }

  /// Uniform string/summary enumeration across both forms, for re-encoding
  /// (the XCSF writer). `summary` decodes lazily on the mapped form.
  size_t num_labels() const {
    return mapped_labels_.valid() ? mapped_labels_.size()
                                  : labels_pool_.size();
  }
  std::string_view label_string(SymbolId id) const {
    return mapped_labels_.valid() ? mapped_labels_.Get(id)
                                  : std::string_view(labels_pool_.Get(id));
  }
  size_t num_terms() const {
    if (mapped_terms_.has_value()) return mapped_terms_->size();
    return dict_ != nullptr ? dict_->size() : 0;
  }
  std::string_view term_string(TermId id) const {
    return mapped_terms_.has_value() ? mapped_terms_->Get(id)
                                     : std::string_view(dict_->Get(id));
  }
  uint32_t num_summaries() const {
    return lazy_slots_ != nullptr ? lazy_pool_.count()
                                  : static_cast<uint32_t>(summaries_.size());
  }
  const ValueSummary* summary(uint32_t index) const {
    if (lazy_slots_ == nullptr) return &summaries_[index];
    const ValueSummary* decoded =
        lazy_slots_[index].load(std::memory_order_acquire);
    return decoded != nullptr ? decoded : DecodeLazySummary(index);
  }

  /// Original arena id of flat node `n` (for diagnostics / tests).
  SynNodeId syn_of(FlatNodeId n) const { return cols_.syn_of[n]; }
  /// Flat id of arena node `id`; kNoFlatNode for dead nodes.
  FlatNodeId flat_of(SynNodeId id) const { return cols_.flat_of[id]; }

  /// The raw columnar views (the XCSF writer serializes these verbatim).
  const Columns& columns() const { return cols_; }
  /// The owned value-summary pool of the compiled form (empty when mapped;
  /// use num_summaries()/summary() for form-agnostic access).
  std::span<const ValueSummary> summaries() const { return summaries_; }
  /// The owned label pool of the compiled form (empty when mapped; use
  /// num_labels()/label_string()/LookupLabel for form-agnostic access).
  const StringPool& labels_pool() const { return labels_pool_; }
  /// True when the columns point into an external (mmapped/adopted) image.
  bool mapped() const { return backing_ != nullptr; }

  /// Approximate resident bytes of the flat arrays plus the owned summary
  /// pool. For the mapped form the column bytes live in the page cache;
  /// the figure still reports them as the cost of keeping the view hot.
  size_t MemoryBytes() const;

 private:
  void BuildSummaryPointers();
  /// Decodes summary `index` out of the mapped pool, publishes it into
  /// lazy_slots_ (first decode wins, losers are discarded), and returns
  /// the published pointer. Never fails: a blob that does not decode —
  /// unreachable behind the section CRC validated at load — publishes a
  /// shared empty summary instead of crashing the serve path.
  const ValueSummary* DecodeLazySummary(uint32_t index) const;

  /// Backing vectors for the compiled form (all empty when mapped).
  struct OwnedColumns {
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
  };

  OwnedColumns owned_;
  Columns cols_;
  std::vector<ValueSummary> summaries_;      ///< compiled form's owned pool
  std::vector<const ValueSummary*> vsumms_;  ///< per node, compiled hot path
  StringPool labels_pool_;                   ///< compiled form only
  std::shared_ptr<TermDictionary> dict_;     ///< compiled form only
  /// Mapped form: image-backed string tables and the encoded summary pool
  /// plus its lazy decode cache (one atomic slot per pool entry).
  FlatStringTable mapped_labels_;
  std::optional<FlatStringTable> mapped_terms_;
  MappedSummaryPool lazy_pool_;
  std::unique_ptr<std::atomic<const ValueSummary*>[]> lazy_slots_;
  std::shared_ptr<const void> backing_;  ///< pins a mapped image; else null
};

/// Rebuilds the GraphSynopsis a FlatSynopsis holds: the inverse of the
/// compile constructor. Labels and terms are interned in id order, one
/// node is added per flat node (with its value summary) and one edge per
/// CSR edge in stored order, so `FlatSynopsis(ToGraph(flat))` has the same
/// columns, pools and summaries as `flat` whenever flat's source graph was
/// compacted (syn_of is the identity). The result always carries a term
/// dictionary, empty when `flat` has no terms.
///
/// On a mapped synopsis, each summary decodes here; a record that does not
/// decode comes back empty (see FlatSynopsis::vsumm). Callers that must
/// reject such an image run storage::VerifyXcsfBytes first.
GraphSynopsis ToGraph(const FlatSynopsis& flat);

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_FLAT_SYNOPSIS_H_
