#ifndef XCLUSTER_TESTS_ORACLE_PST_PRUNE_H_
#define XCLUSTER_TESTS_ORACLE_PST_PRUNE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "summaries/pst.h"

namespace xcluster {

/// Reference implementations of Pst's error-guided pruning, substring
/// sampling and Markov estimate, written the straightforward way: Prune
/// recomputes the pruning error of every leaf on every call and at every
/// re-validation, SampleSubstrings builds every stored string and sorts
/// them, and EstimateCount walks every context and extension from the root.
/// They work on the tree's own node ids, so ties break as in Pst. They are
/// the bit-identity oracle for Pst's cached pruning errors, sort-free
/// sampling and carried Markov contexts: a tree Pst::Prune pruned must
/// Dump() the same as one these pruned, both samplers must return the same
/// strings, and both estimates must be the same double.
class PstOracle {
 public:
  /// Pst::Prune without the error cache. Never call Pst::Prune on a tree
  /// this pruned: the tree's cached errors are not kept up to date.
  static void Prune(Pst* pst, size_t num_leaves);

  /// Pst::SampleSubstrings by building and sorting every stored string.
  static std::vector<std::string> SampleSubstrings(const Pst& pst,
                                                   size_t cap);

  /// Pst::EstimateCount looking up every context and its extension from
  /// the root.
  static double EstimateCount(const Pst& pst, std::string_view qs);
};

}  // namespace xcluster

#endif  // XCLUSTER_TESTS_ORACLE_PST_PRUNE_H_
