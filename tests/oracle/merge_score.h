#ifndef XCLUSTER_TESTS_ORACLE_MERGE_SCORE_H_
#define XCLUSTER_TESTS_ORACLE_MERGE_SCORE_H_

#include <cstddef>

#include "build/delta.h"
#include "synopsis/graph.h"

namespace xcluster {

/// Reference implementations of the phase-1 merge scores, written the
/// straightforward way: child targets folded into a std::map keyed by
/// target id. They are the bit-identity oracle for MergeDelta and
/// MergeSavings in src/build/delta.cc, which score without the map and
/// must return exactly the same double and byte count.
double OracleMergeDelta(const GraphSynopsis& synopsis, SynNodeId u,
                        SynNodeId v, const DeltaOptions& options);

size_t OracleMergeSavings(const GraphSynopsis& synopsis, SynNodeId u,
                          SynNodeId v);

}  // namespace xcluster

#endif  // XCLUSTER_TESTS_ORACLE_MERGE_SCORE_H_
