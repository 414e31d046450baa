#ifndef XCLUSTER_ESTIMATE_COMPILED_TWIG_H_
#define XCLUSTER_ESTIMATE_COMPILED_TWIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "estimate/flat_synopsis.h"
#include "query/predicate.h"
#include "query/twig.h"

namespace xcluster {

/// One query variable of a CompiledTwig: the TwigQuery variable with every
/// per-estimate resolution already done — the step label looked up in the
/// synopsis label pool (one SymbolId compare per candidate node instead of
/// a string compare), and full-text terms resolved against the synopsis
/// dictionary.
struct CompiledVar {
  TwigStep::Axis axis = TwigStep::Axis::kChild;
  bool wildcard = false;
  /// Resolved label symbol; kInvalidSymbol both for wildcards (where it
  /// doubles as the reach-cache key slot) and for labels the synopsis has
  /// never seen (which match nothing).
  SymbolId label = kInvalidSymbol;
  std::vector<ValuePredicate> predicates;  ///< terms resolved
  std::vector<uint32_t> children;
  std::string step_string;  ///< display form for EXPLAIN ("" for the root)
};

/// A twig query compiled against one FlatSynopsis: parse, label
/// resolution, and term resolution all happen exactly once, so batch
/// workloads that repeat query shapes pay only the DP per estimate. A
/// CompiledTwig is immutable after Compile and safe to share across
/// threads; it is only meaningful for the synopsis (generation) it was
/// compiled against — the serving layer keys its plan cache by
/// (collection generation, normalized query text) for exactly this
/// reason.
class CompiledTwig {
 public:
  /// Compiles `query` against `synopsis`. Unresolved full-text terms are
  /// resolved against the synopsis dictionary on the plan's copies of the
  /// predicates (the query itself is neither copied nor touched).
  static CompiledTwig Compile(const TwigQuery& query,
                              const FlatSynopsis& synopsis);

  size_t size() const { return vars_.size(); }
  const CompiledVar& var(uint32_t id) const { return vars_[id]; }

  /// True if an ftcontains conjunction names a term absent from the
  /// dictionary — the query can never be satisfied.
  bool has_unknown_terms() const { return has_unknown_terms_; }

  /// Structural group key for batch lane grouping: a hash of the query's
  /// variable *skeleton* — per-variable axis, wildcard flag, resolved
  /// label symbol, and child topology — and nothing about predicates.
  /// Two plans with equal keys (verified by SameStructure against hash
  /// collisions) visit exactly the same (variable, synopsis-node) pairs
  /// in the embedding DP, so a batch engine can evaluate them as lanes of
  /// one shared structure-of-arrays traversal. Computed once at Compile
  /// and stored with the plan, so plan-cache hits return the same key the
  /// original compilation produced.
  uint64_t group_key() const { return group_key_; }

  /// Exact skeleton equality: same variable count and, per variable, the
  /// same axis, wildcard flag, label symbol, and children. The collision
  /// check behind group_key().
  bool SameStructure(const CompiledTwig& other) const;

 private:
  std::vector<CompiledVar> vars_;
  bool has_unknown_terms_ = false;
  uint64_t group_key_ = 0;
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_COMPILED_TWIG_H_
