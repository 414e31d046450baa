#ifndef XCLUSTER_QUERY_TWIG_H_
#define XCLUSTER_QUERY_TWIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/predicate.h"
#include "text/dictionary.h"

namespace xcluster {

/// One XPath-lite location step: an axis plus a name test.
struct TwigStep {
  enum class Axis { kChild, kDescendant };

  Axis axis = Axis::kChild;
  std::string label;     ///< element tag; ignored when `wildcard`
  bool wildcard = false; ///< true for '*'

  std::string ToString() const;
};

using QueryVarId = uint32_t;

/// One query variable of a twig query (Sec. 2). Variable 0 is the query
/// root q0 and always binds to the document root; every other variable is
/// reached from its parent variable by one location step.
struct QueryVar {
  TwigStep step;  ///< step from the parent variable (unused for the root)
  std::vector<ValuePredicate> predicates;
  std::vector<QueryVarId> children;
  QueryVarId parent = 0;
};

/// Resolves `pred`'s full-text term strings against `dict` into a sorted,
/// duplicate-free `term_ids`; a predicate of another kind is left as it
/// is. Returns true if `pred` is an ftcontains conjunction naming a term
/// absent from the dictionary (it can never be satisfied); an unknown
/// term of an ftany or ftsimilar predicate simply drops out.
bool ResolvePredicateTerms(const TermResolver& dict, ValuePredicate* pred);

/// A twig query Q(V_Q, E_Q): a tree of query variables with structural
/// constraints on the edges and value predicates on the nodes. The
/// selectivity s(Q) is the number of binding tuples — complete assignments
/// of document elements to variables satisfying all constraints.
class TwigQuery {
 public:
  /// Creates the query with just the root variable q0.
  TwigQuery();

  /// Sizes the variable array for `vars` variables (the root included), so
  /// a parser that has counted the steps grows it once. The caller bounds
  /// `vars` (ParseTwig reserves at most 16).
  void ReserveVars(size_t vars) { vars_.reserve(vars); }

  /// Adds a variable below `parent` reached via `step`; returns its id.
  QueryVarId AddVar(QueryVarId parent, TwigStep step);

  void AddPredicate(QueryVarId var, ValuePredicate pred);

  size_t size() const { return vars_.size(); }
  const QueryVar& var(QueryVarId id) const { return vars_[id]; }
  QueryVar& var(QueryVarId id) { return vars_[id]; }

  /// Resolves ftcontains term strings against `dict`, populating term_ids.
  /// Terms unknown to the dictionary are recorded via `has_unknown_terms`.
  /// The TermResolver overload is the general form (a mapped XCSF synopsis
  /// resolves terms without ever materializing a TermDictionary).
  void ResolveTerms(const TermResolver& dict);

  /// True if any ftcontains (conjunction) predicate names a term absent
  /// from the dictionary — such a query can never be satisfied. Unknown
  /// terms in an ftany disjunction do not set this; they simply drop out.
  bool has_unknown_terms() const { return has_unknown_terms_; }

  /// True once ResolveTerms has run (and no term predicate was added
  /// since). Estimation paths use this to accept a const, pre-resolved
  /// query without taking a defensive copy — the serving hot path parses
  /// and resolves once, then estimates from any thread. The caller must
  /// resolve against the same dictionary the target synopsis carries.
  bool terms_resolved() const { return terms_resolved_; }

  /// True if any predicate carries full-text terms that need dictionary
  /// resolution before estimation or evaluation.
  bool has_term_predicates() const { return term_predicates_ > 0; }

  /// Number of value predicates across all variables.
  size_t PredicateCount() const;

  /// Display form, e.g. "//paper[range(2000,2005)]/title[contains(Tree)]".
  std::string ToString() const;

 private:
  void Render(QueryVarId id, std::string* out) const;

  std::vector<QueryVar> vars_;
  bool has_unknown_terms_ = false;
  bool terms_resolved_ = false;
  size_t term_predicates_ = 0;
};

}  // namespace xcluster

#endif  // XCLUSTER_QUERY_TWIG_H_
