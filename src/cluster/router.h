#ifndef XCLUSTER_CLUSTER_ROUTER_H_
#define XCLUSTER_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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
  /// Listener settings for the router's own XNET endpoint. `role` is
  /// forced to "router" so the hello ack identifies it.
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
/// both sides. It reuses NetServer's poll machinery via FrameHandler,
/// forwards work through a bounded pool, and replies asynchronously with
/// NetServer::PostFrames.
///
/// Routing: each collection name is rendezvous-hashed (HRW) over the
/// replica seeds; the preference order doubles as the failover order. A
/// shed (kShed) from a replica is retried there per the client retry
/// policy, then failed over; a transport failure marks the replica
/// unhealthy and fails over immediately. `base@N` names scatter one batch
/// across the per-shard collections base@0..base@N-1 and gather-merge the
/// replies (cluster/merge.h).
///
/// Replication: kInstall pushes arriving at the router are reassembled and
/// fanned out to every healthy replica under one router-assigned
/// generation, so the fleet lands in lockstep; the `replicate <name>
/// <path>` command does the same from a router-local .xcsf image.
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
  void OnDisconnect(uint64_t conn_id) override;

 private:
  void Post(uint64_t conn_id, net::FrameType type, std::string payload,
            bool close = false);
  void PostError(uint64_t conn_id, const std::string& message);
  void PostShed(uint64_t conn_id, uint64_t retry_after_ms,
                const std::string& message);

  /// Pool-thread handlers.
  void HandleCommand(uint64_t conn_id, std::string line, std::string peer);
  /// Text `estimate base@N <query>`: one-query batch per shard, merged
  /// like a routed kBatch, rendered back in the harness text format.
  void HandleShardedEstimate(uint64_t conn_id, const ShardSpec& spec,
                             const std::string& line);
  void HandleBatch(uint64_t conn_id, std::string payload);
  void HandleStats(uint64_t conn_id, std::string payload);
  void HandleFlight(uint64_t conn_id, std::string payload);

  /// Event-loop-thread install reassembly; the final chunk hands the
  /// buffer to the pool for fan-out.
  void HandleInstallChunk(uint64_t conn_id, net::Frame frame);

  /// Fans an XCSF image to every healthy replica under one generation
  /// (`pinned` 0 assigns the next fleet generation). Returns the
  /// aggregated outcome; ok only when every fleet member (not just every
  /// healthy one) landed the snapshot — skipped unhealthy replicas are
  /// named in the message, since they would otherwise resurface serving
  /// an older generation.
  net::InstallReplyFrame ReplicateBytes(const std::string& name,
                                        const std::string& bytes,
                                        uint64_t pinned);

  /// Routes one shard batch along its HRW preference order with
  /// shed-retry + failover. Accumulates the largest retry-after hint.
  Result<net::BatchReplyFrame> RouteShard(
      const std::string& shard, const net::BatchRequestFrame& request,
      uint64_t* retry_after_ms);

  /// Forwards one command line along `key`'s HRW order (transport
  /// failures fail over; a replica's "err ..." text is a final answer).
  Result<std::string> ForwardCommand(const std::string& key,
                                     const std::string& line);

  /// Forwards `line` to every healthy replica; returns per-replica
  /// (address, response-or-error) pairs. When `skipped_unhealthy` is
  /// non-null it receives the addresses of replicas the fan-out skipped
  /// because they were unhealthy — mutations use it to refuse reporting
  /// an unqualified ok when part of the fleet missed the change.
  std::vector<std::pair<std::string, std::string>> ForwardToAll(
      const std::string& line,
      std::vector<std::string>* skipped_unhealthy = nullptr);

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

  // Per-connection kInstall reassembly, dropped on disconnect (event-loop
  // thread only).
  std::unordered_map<uint64_t, net::InstallAssembler> installs_;
};

}  // namespace cluster
}  // namespace xcluster

#endif  // XCLUSTER_CLUSTER_ROUTER_H_
