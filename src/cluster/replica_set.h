#ifndef XCLUSTER_CLUSTER_REPLICA_SET_H_
#define XCLUSTER_CLUSTER_REPLICA_SET_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/client.h"

namespace xcluster {
namespace cluster {

struct ReplicaSetOptions {
  /// Health-probe period. Each round connects to every peer, performs the
  /// hello handshake, and issues a `list` command; success marks the
  /// replica healthy and refreshes its catalog generations.
  uint64_t probe_interval_ms = 1000;

  /// Client settings for probes and pooled data-path connections (recv
  /// timeout, connect timeout, shed-retry policy).
  net::NetClientOptions client;
};

/// Parses a harness `list` response ("ok list N" + "synopsis <name>
/// gen=<G> ..." lines) into sorted (collection, generation) pairs.
/// Unparseable lines are skipped — probe metadata is best-effort.
std::vector<std::pair<std::string, uint64_t>> ParseListGenerations(
    const std::string& response);

/// Point-in-time view of one replica (copied out under the set's lock).
struct ReplicaStatus {
  std::string address;       ///< "host:port" as configured
  bool healthy = false;
  std::string role;          ///< hello-ack role ("replica" | "router")
  uint64_t probes = 0;
  uint64_t probe_failures = 0;
  uint64_t max_generation = 0;  ///< newest synopsis generation it reported
  /// (collection, generation) pairs from the last successful `list` probe,
  /// sorted by collection — the staleness metadata behind `stats` and the
  /// replicate-generation assignment.
  std::vector<std::pair<std::string, uint64_t>> generations;
};

/// The static replica fleet behind a router: parsed peer addresses, a
/// background health prober, per-replica catalog generations, and a small
/// pool of data-path connections per replica.
///
/// Health has two inputs: the prober (periodic hello + `list`, which both
/// detects recovery and refreshes generations) and the data path (Call's
/// verdict on a transport failure, so routing stops preferring a dead
/// replica immediately instead of waiting out a probe period).
/// All methods are thread-safe.
class ReplicaSet {
 public:
  ReplicaSet(std::vector<std::string> addresses, ReplicaSetOptions options);

  /// Stops the prober and closes pooled connections.
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Validates the addresses, runs one synchronous probe round (so a
  /// replica that is down at startup is marked unhealthy before the first
  /// request routes), and starts the background prober. InvalidArgument
  /// on a malformed address or an empty peer list.
  Status Start();

  /// Stops the prober. Idempotent.
  void Stop();

  size_t size() const { return replicas_.size(); }
  const std::string& address(size_t index) const;

  /// HRW seeds, index-aligned with the replica list (stable across calls).
  const std::vector<uint64_t>& seeds() const { return seeds_; }

  /// Indices of currently healthy replicas, ascending.
  std::vector<size_t> HealthyIndices() const;

  ReplicaStatus StatusOf(size_t index) const;
  std::vector<ReplicaStatus> Snapshot() const;

  /// Newest synopsis generation reported by any replica (0 when none) —
  /// the floor for assigning the next fleet-wide replication generation.
  uint64_t MaxKnownGeneration() const;

  /// One synchronous probe round over all replicas (Start() runs one;
  /// tests use it to observe recovery without waiting out the interval).
  void ProbeNow();

  /// One round trip to replica `index`: `round_trip` runs on a pooled
  /// connection, or on a fresh dial when none is idle (a failed dial
  /// marks the replica unhealthy and is returned as is). Its status is
  /// the data-path verdict: a non-OK status other than a shed
  /// (Unavailable) marks the replica unhealthy, so routing deprioritizes
  /// it until a probe succeeds again, and drops the connection; anything
  /// else returns the connection to the pool.
  Status Call(size_t index,
              const std::function<Status(net::NetClient&)>& round_trip);

 private:
  struct Replica {
    std::string address;
    std::string host;
    uint16_t port = 0;
    bool healthy = false;
    std::string role;
    uint64_t probes = 0;
    uint64_t probe_failures = 0;
    uint64_t max_generation = 0;
    std::vector<std::pair<std::string, uint64_t>> generations;
    std::vector<net::NetClient> pool;
  };

  void ProbeOne(size_t index);
  void ProbeLoop();
  void MarkUnhealthy(size_t index);
  void UpdateHealthyGauge();  // callers hold mu_

  const ReplicaSetOptions options_;
  std::vector<uint64_t> seeds_;

  mutable std::mutex mu_;
  std::vector<Replica> replicas_;
  bool started_ = false;
  bool stopping_ = false;
  std::condition_variable stop_cv_;
  std::thread prober_;
};

}  // namespace cluster
}  // namespace xcluster

#endif  // XCLUSTER_CLUSTER_REPLICA_SET_H_
