#ifndef XCLUSTER_CLUSTER_ROUTER_H_
#define XCLUSTER_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/replica_set.h"
#include "common/status.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/executor.h"
#include "service/flight_recorder.h"

namespace xcluster {
namespace cluster {

struct RouterOptions {
  /// Listener settings for the router's own XNET endpoint.
  net::NetServerOptions server;

  /// Replica addresses ("host:port"), one per --peer flag. At least one.
  std::vector<std::string> peers;

  /// Health probing + replica client settings (shed-retry policy for the
  /// forwarded data path lives in replicas.client.retry).
  ReplicaSetOptions replicas;

  /// Forwarding pool: worker threads that carry routed requests so the
  /// event loop never blocks on a replica. Minimum 1 (0 is clamped — an
  /// inline pool would run remote round-trips on the event loop).
  size_t workers = 4;
  size_t queue_capacity = 256;

  /// Trace sampling for batches arriving without a client decision;
  /// trace ids are minted regardless so one id spans router -> replica.
  double trace_sample = 0.0;

  /// Router-side flight ring capacity (one record per routed batch).
  size_t flight_capacity = 1024;

  /// Cap on `base@N` scatter-gather fan-out.
  uint32_t max_shards = 64;
};

/// The cluster router: an XNET endpoint that speaks the same protocol on
/// both sides. It reuses NetServer's poll machinery via FrameHandler
/// (NetServer itself answers the hello, `stats` frames and reassembles
/// kInstall pushes), forwards work through a bounded pool, and replies
/// asynchronously with NetServer::PostFrames.
///
/// Every replica round trip goes through ReplicaSet::Call, whose verdict
/// rule is the router's health input from the data path. Three loops use
/// it: Walk (one key's HRW preference order, which doubles as the
/// failover order), FanOut (every healthy replica) and Scatter (a batch
/// over the shards of a `base@N` name, each shard walked on its own, the
/// replies merged by cluster/merge.h).
///
/// A shed (kShed) from a replica is retried there per the client retry
/// policy, then failed over; a transport failure marks the replica
/// unhealthy and fails over immediately.
///
/// Replication: a complete kInstall snapshot is fanned out to every
/// healthy replica under one router-assigned generation, so the fleet
/// lands in lockstep; the `replicate <name> <path>` command does the same
/// from a router-local .xcsf image.
class Router : public net::FrameHandler {
 public:
  explicit Router(RouterOptions options);

  /// Stops everything (Stop()).
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Starts the replica prober (one synchronous probe round first), the
  /// forwarding pool, and the listener.
  Status Start();

  uint16_t port() const { return server_->port(); }
  int drain_fd() const { return server_->drain_fd(); }

  void RequestDrain() { server_->RequestDrain(); }
  void AwaitTermination();
  void Stop();

  const ReplicaSet& replicas() const { return replicas_; }

  // net::FrameHandler (event-loop thread):
  void OnFrame(uint64_t conn_id, const std::string& peer,
               net::Frame frame) override;
  void OnInstall(uint64_t conn_id, net::InstallSnapshot snapshot) override;

 private:
  void Post(uint64_t conn_id, net::FrameType type, std::string payload,
            bool close = false);
  void PostError(uint64_t conn_id, const std::string& message);
  void PostShed(uint64_t conn_id, uint64_t retry_after_ms,
                const std::string& message);

  /// Runs `work` on the forwarding pool. A full queue is answered with a
  /// shed when `shed_when_full` (batches), else with an error frame.
  void Submit(uint64_t conn_id, bool shed_when_full,
              std::function<void()> work);

  /// Pool-thread handlers.
  void HandleCommand(uint64_t conn_id, const std::string& line,
                     const std::string& peer);
  /// Text `estimate base@N <query>`: a one-query Scatter, rendered back in
  /// the harness text format.
  void HandleShardedEstimate(uint64_t conn_id, const ShardSpec& spec,
                             const std::string& line);
  void HandleBatch(uint64_t conn_id, const std::string& payload);
  void HandleFlight(uint64_t conn_id, const std::string& payload);

  /// Runs `round_trip` along `key`'s HRW order over the healthy replicas
  /// until one succeeds, failing over on each failure. Returns the last
  /// failure, naming its replica, when none succeeds.
  Status Walk(const std::string& key,
              const std::function<Status(net::NetClient&)>& round_trip);

  /// Runs `round_trip` once on every healthy replica, in index order, and
  /// returns each one's (index, status). The addresses of the unhealthy
  /// replicas it passed over are appended to `skipped`: mutations use them
  /// to refuse reporting an unqualified ok when part of the fleet missed
  /// the change.
  std::vector<std::pair<size_t, Status>> FanOut(
      const std::function<Status(size_t, net::NetClient&)>& round_trip,
      std::vector<std::string>* skipped);

  /// Routes `queries` to each shard of `spec` (the collection itself when
  /// it is not a `base@N` name) along the shard's HRW order, with
  /// shed-retry and failover. A lone shard's reply passes through; several
  /// merge with MergeShardReplies. Accumulates the largest retry-after
  /// hint of a shed in `retry_after_ms`.
  Result<net::BatchReplyFrame> Scatter(const ShardSpec& spec,
                                       const std::vector<std::string>& queries,
                                       const BatchOptions& options,
                                       uint64_t* retry_after_ms);

  /// Forwards one command line along `key`'s HRW order (transport
  /// failures fail over; a replica's "err ..." text is a final answer).
  Result<std::string> ForwardCommand(const std::string& key,
                                     const std::string& line);

  /// Forwards `line` to every healthy replica; returns per-replica
  /// (address, response-or-error) pairs (FanOut fills `skipped`).
  std::vector<std::pair<std::string, std::string>> ForwardToAll(
      const std::string& line, std::vector<std::string>* skipped);

  /// Fans an XCSF image to every healthy replica under one generation
  /// (`pinned` 0 assigns the next fleet generation). Returns the
  /// aggregated outcome; ok only when every fleet member (not just every
  /// healthy one) landed the snapshot — skipped unhealthy replicas are
  /// named in the message, since they would otherwise resurface serving
  /// an older generation.
  net::InstallReplyFrame ReplicateBytes(const std::string& name,
                                        const std::string& bytes,
                                        uint64_t pinned);

  std::string RouterStatsText() const;
  std::string AggregatedListText();

  uint64_t NextGeneration(uint64_t floor);

  RouterOptions options_;
  ReplicaSet replicas_;
  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<Executor> pool_;
  FlightRecorder flight_;

  std::mutex generation_mu_;
  uint64_t generation_counter_ = 0;
};

}  // namespace cluster
}  // namespace xcluster

#endif  // XCLUSTER_CLUSTER_ROUTER_H_
