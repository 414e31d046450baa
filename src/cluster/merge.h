#ifndef XCLUSTER_CLUSTER_MERGE_H_
#define XCLUSTER_CLUSTER_MERGE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"

namespace xcluster {
namespace cluster {

/// One shard's contribution to a scatter-gathered batch.
struct ShardReply {
  std::string shard;  ///< shard collection name ("books@2")
  net::BatchReplyFrame reply;
};

/// Merges per-shard batch replies (all for the same query list, in shard
/// order 0..N-1) into the single reply the client sees:
///
///  - a slot succeeds iff it succeeded on every shard; its estimate is the
///    sum of the per-shard estimates taken in fixed shard order, so the
///    merge is deterministic and independent of gather completion order;
///  - a failed slot carries the first failing shard's error, prefixed with
///    that shard's name;
///  - explanations are concatenated under "# shard <name>" headers;
///  - ok and failed are recounted over the merged slots; wall_ns is the
///    max shard wall time.
///
/// Returns InvalidArgument when the shards disagree on the slot count —
/// a routing bug, never a client-visible partial merge. `trace_id` of the
/// merged reply is left 0; the router stamps the client-visible echo.
Result<net::BatchReplyFrame> MergeShardReplies(
    const std::vector<ShardReply>& shards);

}  // namespace cluster
}  // namespace xcluster

#endif  // XCLUSTER_CLUSTER_MERGE_H_
