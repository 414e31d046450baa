#include "query/twig.h"

#include <algorithm>

namespace xcluster {

std::string TwigStep::ToString() const {
  std::string out = (axis == Axis::kDescendant) ? "//" : "/";
  out += wildcard ? "*" : label;
  return out;
}

TwigQuery::TwigQuery() {
  vars_.push_back(QueryVar{});  // q0, bound to the document root
}

QueryVarId TwigQuery::AddVar(QueryVarId parent, TwigStep step) {
  QueryVar var;
  var.step = std::move(step);
  var.parent = parent;
  QueryVarId id = static_cast<QueryVarId>(vars_.size());
  vars_.push_back(std::move(var));
  vars_[parent].children.push_back(id);
  return id;
}

void TwigQuery::AddPredicate(QueryVarId var, ValuePredicate pred) {
  if (pred.kind == ValuePredicate::Kind::kFtContains ||
      pred.kind == ValuePredicate::Kind::kFtAny ||
      pred.kind == ValuePredicate::Kind::kFtSimilar) {
    ++term_predicates_;
    terms_resolved_ = false;  // the new predicate's terms are unresolved
  }
  vars_[var].predicates.push_back(std::move(pred));
}

bool ResolvePredicateTerms(const TermResolver& dict, ValuePredicate* pred) {
  if (pred->kind != ValuePredicate::Kind::kFtContains &&
      pred->kind != ValuePredicate::Kind::kFtAny &&
      pred->kind != ValuePredicate::Kind::kFtSimilar) {
    return false;
  }
  bool unknown = false;
  pred->term_ids.clear();
  for (const std::string& term : pred->terms) {
    TermId id = dict.Lookup(term);
    if (id == kInvalidSymbol) {
      if (pred->kind == ValuePredicate::Kind::kFtContains) unknown = true;
    } else {
      pred->term_ids.push_back(id);
    }
  }
  // Evaluation and estimation expect a sorted, duplicate-free TermSet.
  std::sort(pred->term_ids.begin(), pred->term_ids.end());
  pred->term_ids.erase(
      std::unique(pred->term_ids.begin(), pred->term_ids.end()),
      pred->term_ids.end());
  return unknown;
}

void TwigQuery::ResolveTerms(const TermResolver& dict) {
  has_unknown_terms_ = false;
  terms_resolved_ = true;
  for (QueryVar& var : vars_) {
    for (ValuePredicate& pred : var.predicates) {
      if (ResolvePredicateTerms(dict, &pred)) has_unknown_terms_ = true;
    }
  }
}

size_t TwigQuery::PredicateCount() const {
  size_t count = 0;
  for (const QueryVar& var : vars_) count += var.predicates.size();
  return count;
}

void TwigQuery::Render(QueryVarId id, std::string* out) const {
  const QueryVar& var = vars_[id];
  if (id != 0) *out += var.step.ToString();
  for (const ValuePredicate& pred : var.predicates) {
    *out += '[';
    *out += pred.ToString();
    *out += ']';
  }
  // The last child continues the spine (the parser appends the spine step
  // after branch predicates); earlier children render as branches.
  for (size_t i = 0; i + 1 < var.children.size(); ++i) {
    *out += '[';
    Render(var.children[i], out);
    *out += ']';
  }
  if (!var.children.empty()) Render(var.children.back(), out);
}

std::string TwigQuery::ToString() const {
  std::string out;
  Render(0, &out);
  return out;
}

}  // namespace xcluster
