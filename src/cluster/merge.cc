#include "cluster/merge.h"

#include <algorithm>
#include <cstdint>

#include "service/service.h"

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
      out.latency_ns = std::max(out.latency_ns, item.latency_ns);
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

  std::vector<uint64_t> latencies;
  latencies.reserve(slots);
  for (const net::BatchReplyItem& item : merged.items) {
    if (item.ok) {
      ++merged.stats.ok;
      latencies.push_back(item.latency_ns);
    } else {
      ++merged.stats.failed;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  merged.stats.p50_latency_ns = LatencyQuantile(latencies, 0.50);
  merged.stats.p95_latency_ns = LatencyQuantile(latencies, 0.95);
  merged.stats.max_latency_ns = latencies.empty() ? 0 : latencies.back();
  for (const ShardReply& shard : shards) {
    merged.stats.wall_ns =
        std::max(merged.stats.wall_ns, shard.reply.stats.wall_ns);
  }
  return merged;
}

}  // namespace cluster
}  // namespace xcluster
