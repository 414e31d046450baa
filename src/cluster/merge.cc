#include "cluster/merge.h"

#include <algorithm>

namespace xcluster {
namespace cluster {

Result<net::BatchReplyFrame> MergeShardReplies(
    const std::vector<ShardReply>& shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("merge of zero shard replies");
  }
  const size_t slots = shards[0].reply.items.size();
  for (const ShardReply& shard : shards) {
    if (shard.reply.items.size() != slots) {
      return Status::InvalidArgument(
          "shard " + shard.shard + " returned " +
          std::to_string(shard.reply.items.size()) + " slots, expected " +
          std::to_string(slots));
    }
  }

  net::BatchReplyFrame merged;
  merged.items.resize(slots);
  for (size_t i = 0; i < slots; ++i) {
    net::BatchReplyItem& out = merged.items[i];
    out.ok = true;
    for (const ShardReply& shard : shards) {
      const net::BatchReplyItem& item = shard.reply.items[i];
      if (!item.ok) {
        if (out.ok) {  // first failing shard names the error
          out.ok = false;
          out.estimate = 0.0;
          out.error = "shard " + shard.shard + ": " + item.error;
          out.explanation.clear();
        }
        continue;
      }
      if (!out.ok) continue;
      out.estimate += item.estimate;
      if (!item.explanation.empty()) {
        out.explanation += "# shard " + shard.shard + "\n" + item.explanation;
      }
    }
  }

  for (const net::BatchReplyItem& item : merged.items) {
    if (item.ok) {
      ++merged.stats.ok;
    } else {
      ++merged.stats.failed;
    }
  }
  for (const ShardReply& shard : shards) {
    merged.stats.wall_ns =
        std::max(merged.stats.wall_ns, shard.reply.stats.wall_ns);
  }
  return merged;
}

}  // namespace cluster
}  // namespace xcluster
