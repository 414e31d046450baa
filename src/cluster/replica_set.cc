#include "cluster/replica_set.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "cluster/hash_ring.h"
#include "common/telemetry/telemetry.h"
#include "net/socket.h"

namespace xcluster {
namespace cluster {

namespace {

/// Idle data-path connections kept per replica for Call to reuse.
constexpr size_t kPoolPerReplica = 4;

}  // namespace

std::vector<std::pair<std::string, uint64_t>> ParseListGenerations(
    const std::string& response) {
  std::vector<std::pair<std::string, uint64_t>> generations;
  std::istringstream lines(response);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream tokens(line);
    std::string tag, name;
    if (!(tokens >> tag >> name) || tag != "synopsis") continue;
    std::string field;
    while (tokens >> field) {
      if (field.rfind("gen=", 0) != 0) continue;
      uint64_t generation = 0;
      bool valid = field.size() > 4;
      for (size_t i = 4; i < field.size() && valid; ++i) {
        const char c = field[i];
        if (c < '0' || c > '9') {
          valid = false;
          break;
        }
        generation = generation * 10 + static_cast<uint64_t>(c - '0');
      }
      if (valid) generations.emplace_back(name, generation);
      break;
    }
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

ReplicaSet::ReplicaSet(std::vector<std::string> addresses,
                       ReplicaSetOptions options)
    : options_(options) {
  replicas_.reserve(addresses.size());
  for (std::string& address : addresses) {
    Replica replica;
    replica.address = std::move(address);
    replicas_.push_back(std::move(replica));
  }
  seeds_.reserve(replicas_.size());
  for (const Replica& replica : replicas_) {
    seeds_.push_back(ReplicaSeed(replica.address));
  }
}

ReplicaSet::~ReplicaSet() { Stop(); }

Status ReplicaSet::Start() {
  if (replicas_.empty()) {
    return Status::InvalidArgument("replica set needs at least one --peer");
  }
  for (Replica& replica : replicas_) {
    XCLUSTER_ASSIGN_OR_RETURN(net::HostPort parsed,
                              net::ParseHostPort(replica.address));
    if (parsed.port == 0) {
      return Status::InvalidArgument("peer " + replica.address +
                                     ": port 0 is not routable");
    }
    replica.host = std::move(parsed.host);
    replica.port = parsed.port;
  }
  ProbeNow();  // a replica down at startup must be unhealthy before routing
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stopping_ = false;
  }
  prober_ = std::thread([this] { ProbeLoop(); });
  return Status::OK();
}

void ReplicaSet::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
  for (Replica& replica : replicas_) replica.pool.clear();
}

const std::string& ReplicaSet::address(size_t index) const {
  return replicas_[index].address;
}

std::vector<size_t> ReplicaSet::HealthyIndices() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t> healthy;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i].healthy) healthy.push_back(i);
  }
  return healthy;
}

ReplicaStatus ReplicaSet::StatusOf(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Replica& replica = replicas_[index];
  ReplicaStatus status;
  status.address = replica.address;
  status.healthy = replica.healthy;
  status.role = replica.role;
  status.probes = replica.probes;
  status.probe_failures = replica.probe_failures;
  status.max_generation = replica.max_generation;
  status.generations = replica.generations;
  return status;
}

std::vector<ReplicaStatus> ReplicaSet::Snapshot() const {
  std::vector<ReplicaStatus> statuses;
  statuses.reserve(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    statuses.push_back(StatusOf(i));
  }
  return statuses;
}

uint64_t ReplicaSet::MaxKnownGeneration() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t max_generation = 0;
  for (const Replica& replica : replicas_) {
    max_generation = std::max(max_generation, replica.max_generation);
  }
  return max_generation;
}

void ReplicaSet::UpdateHealthyGauge() {
  size_t healthy = 0;
  for (const Replica& replica : replicas_) {
    if (replica.healthy) ++healthy;
  }
  XCLUSTER_GAUGE_SET("cluster.replicas.healthy", healthy);
}

void ReplicaSet::MarkUnhealthy(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  Replica& replica = replicas_[index];
  if (replica.healthy) {
    replica.healthy = false;
    XCLUSTER_COUNTER_INC("cluster.replicas.marked_unhealthy");
  }
  replica.pool.clear();  // pooled connections share the failed transport
  UpdateHealthyGauge();
}

void ReplicaSet::ProbeOne(size_t index) {
  std::string host;
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    host = replicas_[index].host;
    port = replicas_[index].port;
  }
  // Probe on a fresh connection: proves the replica still accepts dials,
  // not just that an old socket is warm.
  Result<net::NetClient> client = net::NetClient::Connect(
      host, port, options_.client);
  Result<std::string> listed =
      client.ok() ? client.value().Command("list")
                  : Result<std::string>(client.status());

  std::lock_guard<std::mutex> lock(mu_);
  Replica& replica = replicas_[index];
  ++replica.probes;
  if (!listed.ok()) {
    ++replica.probe_failures;
    replica.healthy = false;
    replica.pool.clear();
    XCLUSTER_COUNTER_INC("cluster.probes.failed");
  } else {
    replica.healthy = true;
    replica.role = client.value().server_role();
    replica.generations = ParseListGenerations(listed.value());
    replica.max_generation = 0;
    for (const auto& [name, generation] : replica.generations) {
      (void)name;
      replica.max_generation = std::max(replica.max_generation, generation);
    }
    XCLUSTER_COUNTER_INC("cluster.probes.ok");
  }
  UpdateHealthyGauge();
}

void ReplicaSet::ProbeNow() {
  for (size_t i = 0; i < replicas_.size(); ++i) ProbeOne(i);
}

void ReplicaSet::ProbeLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    const auto interval =
        std::chrono::milliseconds(std::max<uint64_t>(
            1, options_.probe_interval_ms));
    if (stop_cv_.wait_for(lock, interval, [this] { return stopping_; })) {
      return;
    }
    lock.unlock();
    ProbeNow();
    lock.lock();
  }
}

Status ReplicaSet::Call(
    size_t index, const std::function<Status(net::NetClient&)>& round_trip) {
  std::optional<net::NetClient> client;
  std::string host;
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Replica& replica = replicas_[index];
    if (!replica.pool.empty()) {
      // One that died while idle is dropped for a fresh dial.
      if (replica.pool.back().connected()) {
        client.emplace(std::move(replica.pool.back()));
      }
      replica.pool.pop_back();
    }
    host = replica.host;
    port = replica.port;
  }
  if (!client.has_value()) {
    Result<net::NetClient> dialed =
        net::NetClient::Connect(host, port, options_.client);
    if (!dialed.ok()) {
      MarkUnhealthy(index);
      return dialed.status();
    }
    client.emplace(std::move(dialed).value());
  }
  Status status = round_trip(*client);
  if (!status.ok() && status.code() != Status::Code::kUnavailable) {
    MarkUnhealthy(index);  // the connection is dropped with `client`
    return status;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<net::NetClient>& pool = replicas_[index].pool;
  if (client->connected() && pool.size() < kPoolPerReplica) {
    pool.push_back(std::move(*client));
  }
  return status;
}

}  // namespace cluster
}  // namespace xcluster
