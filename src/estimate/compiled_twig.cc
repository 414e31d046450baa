#include "estimate/compiled_twig.h"

#include <utility>

namespace xcluster {

namespace {

/// SplitMix64-style accumulation for the structural group key. The key
/// only has to distribute well enough that skeleton-equal plans land in
/// one bucket and unequal ones rarely share it; SameStructure settles
/// collisions exactly.
uint64_t HashCombine(uint64_t seed, uint64_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
  seed = (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9ull;
  return seed ^ (seed >> 27);
}

}  // namespace

CompiledTwig CompiledTwig::Compile(const TwigQuery& query,
                                   const FlatSynopsis& synopsis) {
  // Unresolved full-text terms are resolved on the plan's own copies of
  // the predicates, so the query is read, never copied.
  const TermResolver* resolver =
      query.has_term_predicates() && !query.terms_resolved()
          ? synopsis.term_resolver()
          : nullptr;
  CompiledTwig plan;
  plan.has_unknown_terms_ = resolver == nullptr && query.has_unknown_terms();
  plan.vars_.reserve(query.size());
  uint64_t key = HashCombine(0, query.size());
  for (QueryVarId id = 0; id < query.size(); ++id) {
    const QueryVar& var = query.var(id);
    CompiledVar compiled;
    compiled.axis = var.step.axis;
    compiled.wildcard = var.step.wildcard;
    if (!var.step.wildcard) {
      compiled.label = synopsis.LookupLabel(var.step.label);
    }
    compiled.predicates = var.predicates;
    if (resolver != nullptr) {
      for (ValuePredicate& pred : compiled.predicates) {
        if (ResolvePredicateTerms(*resolver, &pred)) {
          plan.has_unknown_terms_ = true;
        }
      }
    }
    compiled.children.assign(var.children.begin(), var.children.end());
    if (id != 0) compiled.step_string = var.step.ToString();
    key = HashCombine(key, static_cast<uint64_t>(compiled.axis));
    key = HashCombine(key, compiled.wildcard ? 1u : 0u);
    key = HashCombine(key, compiled.label);
    key = HashCombine(key, compiled.children.size());
    for (const uint32_t child : compiled.children) {
      key = HashCombine(key, child);
    }
    plan.vars_.push_back(std::move(compiled));
  }
  plan.group_key_ = key;
  return plan;
}

bool CompiledTwig::SameStructure(const CompiledTwig& other) const {
  if (vars_.size() != other.vars_.size()) return false;
  for (size_t id = 0; id < vars_.size(); ++id) {
    const CompiledVar& a = vars_[id];
    const CompiledVar& b = other.vars_[id];
    if (a.axis != b.axis || a.wildcard != b.wildcard || a.label != b.label ||
        a.children != b.children) {
      return false;
    }
  }
  return true;
}

}  // namespace xcluster
