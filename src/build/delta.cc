#include "build/delta.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "synopsis/size_model.h"

namespace xcluster {

namespace {

/// Enumerates the pair's atomic predicates after the trivial one: up to
/// `cap` predicates drawn from both summaries.
std::vector<AtomicPredicate> PairPredicates(const ValueSummary& a,
                                            const ValueSummary& b,
                                            const DeltaOptions& options) {
  std::vector<AtomicPredicate> preds;
  if (options.atomic_pred_cap == 0) return preds;
  const size_t half = (options.atomic_pred_cap + 1) / 2;
  preds = a.AtomicPredicates(half);
  std::vector<AtomicPredicate> from_b = b.AtomicPredicates(half);
  for (AtomicPredicate& p : from_b) preds.push_back(std::move(p));
  if (preds.size() > options.atomic_pred_cap) {
    preds.resize(options.atomic_pred_cap);
  }
  return preds;
}

/// MergeSavings given the number of distinct folded child targets.
size_t PairSavings(const SynNode& nu, const SynNode& nv, SynNodeId u,
                   SynNodeId v, size_t folded_targets) {
  // Outgoing side: duplicate mapped targets collapse into one edge each.
  const size_t child_edges_before = nu.children.size() + nv.children.size();

  // Incoming side: every outside parent's edges to {u, v} are replaced by a
  // single edge to the merged node. A parent link stands for exactly one
  // edge, so only a parent of both u and v loses one. Edges among u/v were
  // already counted on the outgoing side.
  size_t shared_parents = 0;
  for (SynNodeId p : nu.parents) {
    if (p == u || p == v) continue;
    if (std::find(nv.parents.begin(), nv.parents.end(), p) !=
        nv.parents.end()) {
      ++shared_parents;
    }
  }

  size_t edges_saved = (child_edges_before - folded_targets) + shared_parents;
  return SizeModel::kNodeBytes + edges_saved * SizeModel::kEdgeBytes;
}

}  // namespace

double MergeDelta(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v,
                  const DeltaOptions& options) {
  return MergeScorer(options).Score(synopsis, u, v).delta;
}

size_t MergeSavings(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v) {
  DeltaOptions structure_only;
  structure_only.use_value_summaries = false;
  return MergeScorer(structure_only).Score(synopsis, u, v).savings;
}

void MergeScorer::Fold(const GraphSynopsis& synopsis, SynNodeId u,
                       SynNodeId v) {
  const size_t arena = synopsis.arena_size();
  if (counts_.size() < arena) {
    counts_.resize(arena);
    marked_.resize((arena + 63) / 64);
    marked_words_.resize((marked_.size() + 63) / 64);
  }
  // Word range of marked_words_ this fold touches; the walk below clears
  // every bit it reads, so the bitmaps are all zero between folds.
  size_t lo = marked_words_.size();
  size_t hi = 0;
  auto counts_of = [&](SynNodeId target) -> TargetCounts& {
    if (target == v) target = u;  // u stands for the merged node
    uint64_t& word = marked_[target >> 6];
    const uint64_t bit = uint64_t{1} << (target & 63);
    if ((word & bit) == 0) {
      word |= bit;
      const size_t summary = target >> 12;
      marked_words_[summary] |= uint64_t{1} << ((target >> 6) & 63);
      lo = std::min(lo, summary);
      hi = std::max(hi, summary);
      counts_[target] = TargetCounts();
    }
    return counts_[target];
  };
  // A target's counts are summed over u's edges in edge order, then v's:
  // the summation order the deltas are defined by, which the merge order
  // and so the built synopsis depend on bit for bit.
  for (const SynEdge& edge : synopsis.node(u).children) {
    counts_of(edge.target).from_u += edge.avg_count;
  }
  for (const SynEdge& edge : synopsis.node(v).children) {
    counts_of(edge.target).from_v += edge.avg_count;
  }
  targets_.clear();
  for (size_t summary = lo; summary <= hi; ++summary) {
    uint64_t words = marked_words_[summary];
    marked_words_[summary] = 0;
    while (words != 0) {
      const size_t word = summary * 64 + std::countr_zero(words);
      words &= words - 1;
      uint64_t bits = marked_[word];
      marked_[word] = 0;
      while (bits != 0) {
        targets_.push_back(counts_[word * 64 + std::countr_zero(bits)]);
        bits &= bits - 1;
      }
    }
  }
}

MergeScore MergeScorer::Score(const GraphSynopsis& synopsis, SynNodeId u,
                              SynNodeId v) {
  const SynNode& nu = synopsis.node(u);
  const SynNode& nv = synopsis.node(v);
  Fold(synopsis, u, v);
  MergeScore score;
  score.savings = PairSavings(nu, nv, u, v, targets_.size());

  const double cu = nu.count;
  const double cv = nv.count;
  const double cw = cu + cv;
  if (cw <= 0.0) return score;
  // Implicit self target: one "element" per extent member, charging value
  // divergence even for leaves.
  targets_.push_back({1.0, 1.0});

  // Charges one predicate with selectivities su, sv and sw (merged).
  auto charge = [&](double su, double sv, double sw) {
    for (const TargetCounts& counts : targets_) {
      const double aw = (cu * counts.from_u + cv * counts.from_v) / cw;
      const double du = su * counts.from_u - sw * aw;
      const double dv = sv * counts.from_v - sw * aw;
      score.delta += cu * du * du + cv * dv * dv;
    }
  };
  charge(1.0, 1.0, 1.0);  // the trivial predicate
  // Value-less pairs have no other predicate, so only value-laden pairs
  // build the merged summary.
  if (!options_.use_value_summaries ||
      (nu.vsumm.empty() && nv.vsumm.empty())) {
    return score;
  }
  const std::vector<AtomicPredicate> preds =
      PairPredicates(nu.vsumm, nv.vsumm, options_);
  if (preds.empty()) return score;
  const ValueSummary merged = ValueSummary::Merge(nu.vsumm, cu, nv.vsumm, cv);
  for (const AtomicPredicate& p : preds) {
    charge(nu.vsumm.AtomicSelectivity(p), nv.vsumm.AtomicSelectivity(p),
           merged.AtomicSelectivity(p));
  }
  return score;
}

double CompressionDelta(const GraphSynopsis& synopsis, SynNodeId u,
                        const ValueSummary& compressed,
                        const DeltaOptions& options) {
  const SynNode& nu = synopsis.node(u);
  const double cu = nu.count;
  if (cu <= 0.0) return 0.0;

  std::vector<AtomicPredicate> preds;
  preds.emplace_back();  // trivial
  if (options.use_value_summaries) {
    std::vector<AtomicPredicate> own =
        nu.vsumm.AtomicPredicates(options.atomic_pred_cap);
    preds.insert(preds.end(), own.begin(), own.end());
  }

  // Child targets plus the implicit self target (count 1).
  double weight = 1.0;
  for (const SynEdge& edge : nu.children) {
    weight += edge.avg_count * edge.avg_count;
  }
  double delta = 0.0;
  for (const AtomicPredicate& p : preds) {
    const double diff =
        nu.vsumm.AtomicSelectivity(p) - compressed.AtomicSelectivity(p);
    delta += cu * diff * diff * weight;
  }
  return delta;
}

}  // namespace xcluster
