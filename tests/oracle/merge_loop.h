#ifndef XCLUSTER_TESTS_ORACLE_MERGE_LOOP_H_
#define XCLUSTER_TESTS_ORACLE_MERGE_LOOP_H_

#include "build/builder.h"
#include "build/pool.h"
#include "synopsis/graph.h"

namespace xcluster {

/// The phase-1 heap order: ascending (ratio, u, v), as a
/// std::priority_queue comparator (its top is the smallest key).
struct CandidateOrder {
  bool operator()(const MergeCandidate& a, const MergeCandidate& b) const {
    if (a.ratio() != b.ratio()) return a.ratio() > b.ratio();  // min-heap
    if (a.u != b.u) return a.u > b.u;
    return a.v > b.v;
  }
};

/// XClusterBuild with phase 1 written the straightforward way, as the
/// bit-identity oracle for the builder's scorer and run queue: every pair
/// scored by OracleMergeDelta and OracleMergeSavings, the pool cut to
/// `pool_max` by nth_element, and one std::priority_queue of
/// MergeCandidate holding every candidate, dead and stale ones checked
/// against their nodes when popped. Phase 2 is the builder's own
/// CompressValueSummaries. Supports the localized-delta and count-only
/// policies.
GraphSynopsis OracleXClusterBuild(const GraphSynopsis& reference,
                                  const BuildOptions& options);

}  // namespace xcluster

#endif  // XCLUSTER_TESTS_ORACLE_MERGE_LOOP_H_
