#ifndef XCLUSTER_BUILD_POOL_H_
#define XCLUSTER_BUILD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "build/delta.h"
#include "synopsis/graph.h"

namespace xcluster {

/// One scored merge candidate in the XCLUSTERBUILD priority pool (Fig. 6).
struct MergeCandidate {
  SynNodeId u = kNoSynNode;
  SynNodeId v = kNoSynNode;
  double delta = 0.0;    ///< marginal clustering error of the merge
  size_t savings = 0;    ///< structural bytes freed by the merge
  uint32_t version_u = 0;  ///< node versions at evaluation time (staleness)
  uint32_t version_v = 0;

  /// Marginal loss per byte saved: the heap ordering key.
  double ratio() const {
    return delta / static_cast<double>(savings == 0 ? 1 : savings);
  }
};

/// Scores the pair (u, v) against the current synopsis state, recording the
/// nodes' version counters for later staleness checks.
MergeCandidate EvaluateCandidate(const GraphSynopsis& synopsis, SynNodeId u,
                                 SynNodeId v, MergeScorer* scorer);

/// Enumerates label/type-compatible pairs among alive nodes whose level
/// (shortest path to a leaf) is <= `level_cap`, scores each, and returns the
/// `pool_max` candidates with the best (smallest) loss/savings ratio.
/// When `pair_sample_cap` > 0 and a level's pair count exceeds it, pairs are
/// stride-sampled deterministically to bound the quadratic blowup.
std::vector<MergeCandidate> BuildPool(const GraphSynopsis& synopsis,
                                      size_t pool_max, uint32_t level_cap,
                                      size_t pair_sample_cap,
                                      MergeScorer* scorer);

/// Phase 1's candidate queue: candidates arrive in runs (a rebuilt pool,
/// one merge's peer scores, one re-score), each run is sorted once, and a
/// binary heap of the runs' heads, each carrying its key inline, pops them
/// in ascending (ratio, u, v) order. No two queued candidates share a key,
/// so the pops are those of one heap holding every candidate.
class RunPool {
 public:
  /// What the queue keeps of a candidate: its key, with the ratio
  /// precomputed, and the versions it was scored at.
  struct Entry {
    double ratio = 0.0;
    SynNodeId u = kNoSynNode;
    SynNodeId v = kNoSynNode;
    uint32_t version_u = 0;
    uint32_t version_v = 0;
  };

  /// Appends `candidate` to the open run.
  void Add(const MergeCandidate& candidate);

  /// Sorts the open run and queues it.
  void CloseRun();

  bool empty() const { return heads_.empty(); }

  /// Queued candidates not yet popped, dead ones included. The open run
  /// does not count until it is closed.
  size_t size() const { return size_; }

  /// Removes and returns the queued candidate with the smallest key.
  /// Requires !empty().
  Entry Pop();

  /// Drops every candidate, the open run's too.
  void Clear();

 private:
  /// A queued run: its next entry's key, then where it is.
  struct Head {
    double ratio;
    SynNodeId u;
    SynNodeId v;
    size_t next;  ///< index of the run's next entry in entries_
    size_t end;   ///< one past the run's last entry
  };

  void SiftDown();

  std::vector<Entry> entries_;  ///< every run back to back
  size_t open_begin_ = 0;       ///< first entry of the open run
  std::vector<Head> heads_;     ///< min-heap of the unexhausted runs
  size_t size_ = 0;
};

}  // namespace xcluster

#endif  // XCLUSTER_BUILD_POOL_H_
