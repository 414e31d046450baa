#ifndef XCLUSTER_TESTS_ORACLE_PST_PRUNE_H_
#define XCLUSTER_TESTS_ORACLE_PST_PRUNE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "summaries/pst.h"

namespace xcluster {

/// Reference implementations of Pst's error-guided pruning and substring
/// sampling, written the straightforward way: Prune recomputes the pruning
/// error of every leaf on every call and at every re-validation, and
/// SampleSubstrings builds every stored string and sorts them. They work on
/// the tree's own node ids, so ties break as in Pst. They are the
/// bit-identity oracle for Pst's cached pruning errors and sort-free
/// sampling: a tree Pst::Prune pruned must Dump() the same as one these
/// pruned, and both samplers must return the same strings.
class PstOracle {
 public:
  /// Pst::Prune without the error cache. Never call Pst::Prune on a tree
  /// this pruned: the tree's cached errors are not kept up to date.
  static void Prune(Pst* pst, size_t num_leaves);

  /// Pst::SampleSubstrings by building and sorting every stored string.
  static std::vector<std::string> SampleSubstrings(const Pst& pst,
                                                   size_t cap);
};

}  // namespace xcluster

#endif  // XCLUSTER_TESTS_ORACLE_PST_PRUNE_H_
