#include "cluster/router.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <utility>

#include "cluster/hash_ring.h"
#include "cluster/merge.h"
#include "common/io/file_io.h"
#include "common/telemetry/telemetry.h"
#include "service/harness.h"
#include "storage/xcsf_reader.h"

namespace xcluster {
namespace cluster {

namespace {

constexpr char kRouterHelp[] =
    "ok help router commands: estimate <name> <query> | load <name> <path> "
    "| replicate <name> <path> | drop <name> | quota ... | list | stats | "
    "help | quit; batches and estimates of base@N scatter-gather across "
    "shards, other names route by collection hash (load rejects sharded "
    "names — use replicate or load each shard)";

bool Contains(const std::vector<size_t>& haystack, size_t needle) {
  return std::find(haystack.begin(), haystack.end(), needle) !=
         haystack.end();
}

/// "a, b, c" for error messages naming skipped replicas.
std::string JoinAddresses(const std::vector<std::string>& addresses) {
  std::string joined;
  for (const std::string& address : addresses) {
    if (!joined.empty()) joined += ", ";
    joined += address;
  }
  return joined;
}

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      replicas_(options_.peers, options_.replicas),
      flight_(std::max<size_t>(1, options_.flight_capacity)) {
  server_ = std::make_unique<net::NetServer>(nullptr, options_.server);
  server_->set_frame_handler(this);
}

Router::~Router() { Stop(); }

Status Router::Start() {
  XC_RETURN_IF_ERROR(replicas_.Start());
  ExecutorOptions pool_options;
  pool_options.num_threads = std::max<size_t>(1, options_.workers);
  pool_options.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  pool_ = std::make_unique<Executor>(pool_options);
  return server_->Start();
}

void Router::AwaitTermination() {
  server_->AwaitTermination();
  if (pool_ != nullptr) pool_->Shutdown();
  replicas_.Stop();
}

void Router::Stop() {
  server_->Stop();
  if (pool_ != nullptr) pool_->Shutdown();
  replicas_.Stop();
}

void Router::Post(uint64_t conn_id, net::FrameType type, std::string payload,
                  bool close) {
  net::Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  std::vector<net::Frame> frames;
  frames.push_back(std::move(frame));
  server_->PostFrames(conn_id, std::move(frames), close);
}

void Router::PostError(uint64_t conn_id, const std::string& message) {
  XCLUSTER_COUNTER_INC("cluster.protocol_errors");
  Post(conn_id, net::FrameType::kError, message, /*close=*/true);
}

void Router::PostShed(uint64_t conn_id, uint64_t retry_after_ms,
                      const std::string& message) {
  XCLUSTER_COUNTER_INC("cluster.sheds");
  net::ShedFrame shed;
  shed.retry_after_ms = static_cast<uint32_t>(
      retry_after_ms == 0 ? 50 : std::min<uint64_t>(retry_after_ms, ~0u));
  shed.message = message;
  Post(conn_id, net::FrameType::kShed, net::EncodeShed(shed));
}

void Router::Submit(uint64_t conn_id, bool shed_when_full,
                    std::function<void()> work) {
  Status submitted = pool_->Submit(
      [work = std::move(work)](const Executor::TaskContext& context) {
        if (!context.cancelled) work();
      });
  if (submitted.ok()) return;
  if (shed_when_full) {
    // Queue full is load, not corruption: shed with a hint.
    PostShed(conn_id, 50,
             "router forwarding queue full: " + submitted.message());
  } else {
    PostError(conn_id, "router overloaded: " + submitted.message());
  }
}

void Router::OnFrame(uint64_t conn_id, const std::string& peer,
                     net::Frame frame) {
  const bool batch = frame.type == net::FrameType::kBatch;
  Submit(conn_id, batch, [this, conn_id, peer, frame = std::move(frame)] {
    if (frame.type == net::FrameType::kCommand) {
      HandleCommand(conn_id, frame.payload, peer);
    } else if (frame.type == net::FrameType::kBatch) {
      HandleBatch(conn_id, frame.payload);
    } else {
      HandleFlight(conn_id, frame.payload);
    }
  });
}

void Router::OnInstall(uint64_t conn_id, net::InstallSnapshot snapshot) {
  Submit(conn_id, /*shed_when_full=*/false,
         [this, conn_id, snapshot = std::move(snapshot)] {
           Post(conn_id, net::FrameType::kInstallReply,
                net::EncodeInstallReply(ReplicateBytes(
                    snapshot.name, snapshot.bytes, snapshot.generation)));
         });
}

uint64_t Router::NextGeneration(uint64_t floor) {
  std::lock_guard<std::mutex> lock(generation_mu_);
  generation_counter_ =
      std::max({generation_counter_, floor, replicas_.MaxKnownGeneration()}) +
      1;
  return generation_counter_;
}

Status Router::Walk(
    const std::string& key,
    const std::function<Status(net::NetClient&)>& round_trip) {
  const std::vector<size_t> healthy = replicas_.HealthyIndices();
  Status last = Status::Unavailable("no healthy replica for " + key);
  bool preferred = true;
  for (const size_t index :
       RankReplicas(CollectionHash(key), replicas_.seeds())) {
    if (!Contains(healthy, index)) {
      // Skipping a ranked-out replica is a failover even though no request
      // ever reached it: the prober can demote a dead replica before the
      // data path does, and the key's traffic still moves down the
      // preference order either way.
      preferred = false;
      continue;
    }
    if (!preferred) XCLUSTER_COUNTER_INC("cluster.failovers");
    preferred = false;
    Status status = replicas_.Call(index, round_trip);
    if (status.ok()) return status;
    last = Status::WithContext(status, "replica " + replicas_.address(index));
  }
  return last;
}

std::vector<std::pair<size_t, Status>> Router::FanOut(
    const std::function<Status(size_t, net::NetClient&)>& round_trip,
    std::vector<std::string>* skipped) {
  const std::vector<size_t> healthy = replicas_.HealthyIndices();
  std::vector<std::pair<size_t, Status>> outcomes;
  for (size_t index = 0; index < replicas_.size(); ++index) {
    if (!Contains(healthy, index)) {
      skipped->push_back(replicas_.address(index));
      continue;
    }
    outcomes.emplace_back(
        index, replicas_.Call(index, [&](net::NetClient& client) {
          return round_trip(index, client);
        }));
  }
  return outcomes;
}

Result<std::string> Router::ForwardCommand(const std::string& key,
                                           const std::string& line) {
  // A replica's "err ..." answer is a successful round trip, so only a
  // transport or protocol fault fails over.
  std::string response;
  XC_RETURN_IF_ERROR(Walk(key, [&](net::NetClient& client) {
    XCLUSTER_ASSIGN_OR_RETURN(response, client.Command(line));
    return Status::OK();
  }));
  return response;
}

std::vector<std::pair<std::string, std::string>> Router::ForwardToAll(
    const std::string& line, std::vector<std::string>* skipped) {
  std::vector<std::string> responses(replicas_.size());
  std::vector<std::pair<std::string, std::string>> outcomes;
  for (const auto& [index, status] : FanOut(
           [&](size_t index, net::NetClient& client) {
             XCLUSTER_ASSIGN_OR_RETURN(responses[index], client.Command(line));
             return Status::OK();
           },
           skipped)) {
    outcomes.emplace_back(replicas_.address(index),
                          status.ok() ? responses[index]
                                      : "err " + status.ToString() + "\n");
  }
  return outcomes;
}

std::string Router::RouterStatsText() const {
  const std::vector<ReplicaStatus> statuses = replicas_.Snapshot();
  size_t healthy = 0;
  for (const ReplicaStatus& status : statuses) {
    if (status.healthy) ++healthy;
  }
  std::ostringstream out;
  out << "ok stats role=router replicas=" << statuses.size()
      << " healthy=" << healthy << "\n";
  for (const ReplicaStatus& status : statuses) {
    out << "replica " << status.address << " healthy=" << (status.healthy ? 1 : 0)
        << " role=" << (status.role.empty() ? "unknown" : status.role)
        << " synopses=" << status.generations.size()
        << " gen=" << status.max_generation << " probes=" << status.probes
        << " failures=" << status.probe_failures << "\n";
  }
  return out.str();
}

std::string Router::AggregatedListText() {
  // Live fan-out (not the probe cache): `list` right after a load must
  // already see it.
  std::vector<std::pair<std::string, uint64_t>> merged;  // name -> max gen
  std::vector<std::pair<std::string, size_t>> counts;
  std::vector<std::string> skipped;
  for (const auto& [address, response] : ForwardToAll("list", &skipped)) {
    (void)address;
    if (response.rfind("ok list", 0) != 0) continue;
    for (const auto& [name, generation] : ParseListGenerations(response)) {
      bool found = false;
      for (size_t i = 0; i < merged.size(); ++i) {
        if (merged[i].first == name) {
          merged[i].second = std::max(merged[i].second, generation);
          ++counts[i].second;
          found = true;
          break;
        }
      }
      if (!found) {
        merged.emplace_back(name, generation);
        counts.emplace_back(name, 1);
      }
    }
  }
  std::sort(merged.begin(), merged.end());
  std::sort(counts.begin(), counts.end());
  std::ostringstream out;
  out << "ok list " << merged.size() << "\n";
  for (size_t i = 0; i < merged.size(); ++i) {
    out << "synopsis " << merged[i].first << " gen=" << merged[i].second
        << " replicas=" << counts[i].second << "\n";
  }
  return out.str();
}

net::InstallReplyFrame Router::ReplicateBytes(const std::string& name,
                                              const std::string& bytes,
                                              uint64_t pinned) {
  // The generation is taken at the first healthy replica, so a push that
  // reaches none assigns none.
  uint64_t generation = pinned;
  // A replica that refuses the snapshot still answered: its reply is a
  // successful round trip, and it stays healthy.
  std::vector<net::InstallReplyFrame> replies(replicas_.size());
  std::vector<std::string> skipped;
  const std::vector<std::pair<size_t, Status>> outcomes = FanOut(
      [&](size_t index, net::NetClient& client) {
        if (generation == 0) generation = NextGeneration(0);
        XCLUSTER_ASSIGN_OR_RETURN(replies[index],
                                  client.Install(name, bytes, generation));
        return Status::OK();
      },
      &skipped);
  net::InstallReplyFrame aggregate;
  if (outcomes.empty()) {
    aggregate.message = "no healthy replicas to install " + name +
                        " (unhealthy: " + JoinAddresses(skipped) + ")";
    XCLUSTER_COUNTER_INC("cluster.installs.failed");
    return aggregate;
  }
  size_t installed = 0;
  std::string first_error;
  for (const auto& [index, status] : outcomes) {
    if (status.ok() && replies[index].ok) {
      ++installed;
      XCLUSTER_COUNTER_INC("cluster.installs.ok");
      continue;
    }
    XCLUSTER_COUNTER_INC("cluster.installs.failed");
    if (first_error.empty()) {
      first_error = "replica " + replicas_.address(index) + ": " +
                    (status.ok() ? replies[index].message : status.ToString());
    }
  }
  const size_t healthy = outcomes.size();
  aggregate.generation = generation;
  if (installed == healthy && skipped.empty()) {
    aggregate.ok = true;
    aggregate.message = "installed " + name + " gen=" +
                        std::to_string(generation) + " on " +
                        std::to_string(installed) + " replicas";
  } else if (installed == healthy) {
    // Every healthy replica landed it, but an unhealthy one missed the
    // push and will serve the old generation once a probe re-admits it —
    // not lockstep, so the fan-out as a whole did not succeed.
    aggregate.message = "installed " + name + " gen=" +
                        std::to_string(generation) + " on " +
                        std::to_string(installed) +
                        " healthy replicas, but skipped " +
                        std::to_string(skipped.size()) + " unhealthy (" +
                        JoinAddresses(skipped) +
                        "); re-replicate once they recover";
  } else {
    aggregate.message = std::to_string(healthy - installed) + " of " +
                        std::to_string(healthy) +
                        " replicas failed; first: " + first_error;
    if (!skipped.empty()) {
      aggregate.message += "; also skipped " +
                           std::to_string(skipped.size()) + " unhealthy (" +
                           JoinAddresses(skipped) + ")";
    }
  }
  return aggregate;
}

void Router::HandleCommand(uint64_t conn_id, const std::string& line,
                           const std::string& peer) {
  std::istringstream tokens(line);
  std::string command;
  tokens >> command;
  if (command.empty() || command[0] == '#') {
    Post(conn_id, net::FrameType::kResponse, "");
    return;
  }
  if (command == "quit") {
    Post(conn_id, net::FrameType::kResponse, "ok bye\n", /*close=*/true);
    return;
  }
  if (command == "help") {
    Post(conn_id, net::FrameType::kResponse, std::string(kRouterHelp) + "\n");
    return;
  }
  if (command == "stats") {
    Post(conn_id, net::FrameType::kResponse, RouterStatsText());
    return;
  }
  if (command == "list") {
    Post(conn_id, net::FrameType::kResponse, AggregatedListText());
    return;
  }
  if (command == "replicate") {
    std::string name, path;
    tokens >> name >> path;
    if (name.empty() || path.empty()) {
      Post(conn_id, net::FrameType::kResponse,
           "err replicate needs <name> <path>\n");
      return;
    }
    Result<std::string> bytes = ReadFileToString(path);
    if (!bytes.ok()) {
      Post(conn_id, net::FrameType::kResponse,
           "err " +
               Status::WithContext(bytes.status(),
                                   "replicate requested by " + peer)
                   .ToString() +
               "\n");
      return;
    }
    std::string report;
    Status verified = storage::VerifyXcsfBytes(bytes.value(), &report);
    if (!verified.ok()) {
      Post(conn_id, net::FrameType::kResponse,
           "err " + verified.ToString() + "\n");
      return;
    }
    const net::InstallReplyFrame outcome =
        ReplicateBytes(name, bytes.value(), /*pinned=*/0);
    if (outcome.ok) {
      Post(conn_id, net::FrameType::kResponse,
           "ok replicate " + name + " gen=" +
               std::to_string(outcome.generation) + " " + outcome.message +
               "\n");
    } else {
      Post(conn_id, net::FrameType::kResponse,
           "err replicate " + name + ": " + outcome.message + "\n");
    }
    return;
  }
  if (command == "estimate" || command == "load") {
    std::string name;
    tokens >> name;
    if (name.empty()) {
      Post(conn_id, net::FrameType::kResponse,
           "err " + command + " needs a collection name\n");
      return;
    }
    // A sharded name has no single home replica, so routing it by the
    // literal name's hash would answer "unknown collection" for data a
    // kBatch against the same name serves fine. Estimates scatter-gather
    // like batches do; a load (server-side file read) has no meaningful
    // fan-out and is rejected toward the per-shard / replicate paths.
    const ShardSpec spec = ParseShardSpec(name, options_.max_shards);
    if (spec.sharded()) {
      if (command == "load") {
        Post(conn_id, net::FrameType::kResponse,
             "err load of sharded name '" + name + "' is not routable; load " +
                 spec.base + "@0.." + spec.base + "@" +
                 std::to_string(spec.shard_count - 1) +
                 " individually or push snapshots with 'replicate'\n");
        return;
      }
      HandleShardedEstimate(conn_id, spec, line);
      return;
    }
    Result<std::string> response = ForwardCommand(name, line);
    if (response.ok()) {
      Post(conn_id, net::FrameType::kResponse, std::move(response).value());
    } else {
      Post(conn_id, net::FrameType::kResponse,
           "err " + response.status().ToString() + "\n");
    }
    return;
  }
  if (command == "drop" || command == "quota") {
    std::vector<std::string> skipped;
    const auto outcomes = ForwardToAll(line, &skipped);
    if (outcomes.empty()) {
      Post(conn_id, net::FrameType::kResponse,
           "err Unavailable: no healthy replicas" +
               (skipped.empty()
                    ? std::string()
                    : " (unhealthy: " + JoinAddresses(skipped) + ")") +
               "\n");
      return;
    }
    size_t succeeded = 0;
    std::string first_error;
    for (const auto& [address, response] : outcomes) {
      if (response.rfind("ok", 0) == 0) {
        ++succeeded;
      } else if (first_error.empty()) {
        std::string trimmed = response;
        while (!trimmed.empty() && trimmed.back() == '\n') trimmed.pop_back();
        first_error = address + ": " + trimmed;
      }
    }
    if (succeeded == outcomes.size() && skipped.empty()) {
      Post(conn_id, net::FrameType::kResponse,
           "ok " + command + " replicas=" + std::to_string(succeeded) + "\n");
    } else if (!skipped.empty()) {
      // The mutation cannot have reached the whole fleet: a replica that
      // missed it serves stale (or undropped) data once a probe re-admits
      // it, and there is no anti-entropy to reconcile — so the command
      // fails loudly instead of reporting an unqualified ok.
      std::string detail = "err " + command + " did not reach " +
                           std::to_string(skipped.size()) +
                           " unhealthy replica(s) (" + JoinAddresses(skipped) +
                           "); applied on " + std::to_string(succeeded) +
                           " of " + std::to_string(outcomes.size()) +
                           " healthy replicas";
      if (!first_error.empty()) detail += "; first error: " + first_error;
      Post(conn_id, net::FrameType::kResponse, detail + "\n");
    } else {
      Post(conn_id, net::FrameType::kResponse,
           "err " + command + " failed on " +
               std::to_string(outcomes.size() - succeeded) + " of " +
               std::to_string(outcomes.size()) +
               " replicas; first: " + first_error + "\n");
    }
    return;
  }
  Post(conn_id, net::FrameType::kResponse,
       "err unknown router command '" + command + "' (try help)\n");
}

void Router::HandleShardedEstimate(uint64_t conn_id, const ShardSpec& spec,
                                   const std::string& line) {
  const std::string query = RestOfLine(line, 2);
  if (query.empty()) {
    Post(conn_id, net::FrameType::kResponse,
         "err estimate needs <name> <query>\n");
    return;
  }
  // One logical estimate becomes a one-query batch per shard, merged with
  // the same machinery (and the same summed-estimate semantics) as a
  // routed kBatch against the sharded name.
  const uint64_t start_ns = telemetry::MonotonicNowNs();
  uint64_t retry_after_ms = 0;
  Result<net::BatchReplyFrame> merged =
      Scatter(spec, {query}, BatchOptions(), &retry_after_ms);
  if (!merged.ok() || merged.value().items.size() != 1) {
    Post(conn_id, net::FrameType::kResponse,
         "err " +
             (merged.ok() ? "sharded estimate merged to " +
                                std::to_string(merged.value().items.size()) +
                                " slots, expected 1"
                          : merged.status().ToString()) +
         "\n");
    return;
  }
  const net::BatchReplyItem& item = merged.value().items[0];
  if (item.ok) {
    std::ostringstream out;
    WriteEstimateLine(out, item.estimate,
                      telemetry::MonotonicNowNs() - start_ns);
    Post(conn_id, net::FrameType::kResponse, out.str());
    XCLUSTER_COUNTER_INC("cluster.estimates.scatter");
  } else {
    Post(conn_id, net::FrameType::kResponse, "err " + item.error + "\n");
  }
}

Result<net::BatchReplyFrame> Router::Scatter(
    const ShardSpec& spec, const std::vector<std::string>& queries,
    const BatchOptions& options, uint64_t* retry_after_ms) {
  const std::vector<std::string> shards = ShardNames(spec);
  std::vector<ShardReply> replies(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    replies[i].shard = shards[i];
    XC_RETURN_IF_ERROR(Walk(shards[i], [&](net::NetClient& client) {
      // The round trip is socket transit plus replica time; its own span
      // keeps it out of cluster.route's self time.
      Result<net::BatchReplyFrame> reply = [&] {
        XCLUSTER_TRACE_SPAN("cluster.forward");
        return client.Batch(shards[i], queries, options);
      }();
      if (client.last_attempts() > 1) {
        XCLUSTER_COUNTER_ADD("cluster.retries", client.last_attempts() - 1);
      }
      if (!reply.ok()) {
        // A shed outlasting the client's retry budget means the replica is
        // loaded, not broken: fail over with the hint.
        if (reply.status().code() == Status::Code::kUnavailable) {
          *retry_after_ms =
              std::max(*retry_after_ms, client.last_retry_after_ms());
        }
        return reply.status();
      }
      replies[i].reply = std::move(reply).value();
      return Status::OK();
    }));
  }
  // A lone shard's reply passes through field for field, estimates
  // keeping their exact bit patterns.
  if (replies.size() == 1) return std::move(replies[0].reply);
  return MergeShardReplies(replies);
}

void Router::HandleBatch(uint64_t conn_id, const std::string& payload) {
  const uint64_t start_ns = telemetry::MonotonicNowNs();
  Result<net::BatchRequestFrame> decoded = net::DecodeBatchRequest(payload);
  if (!decoded.ok()) {
    PostError(conn_id, decoded.status().ToString());
    return;
  }
  net::BatchRequestFrame request = std::move(decoded).value();
  // One trace id spans router -> replica: minted here when the client
  // sent none, forwarded either way.
  net::StampBatchTrace(payload.size(), options_.trace_sample,
                       &request.options);
  telemetry::ScopedTraceContext trace_scope(request.options.trace);
  XCLUSTER_TRACE_SPAN("cluster.route");

  const ShardSpec spec = ParseShardSpec(request.collection,
                                        options_.max_shards);
  uint64_t retry_after_ms = 0;
  Result<net::BatchReplyFrame> gathered =
      Scatter(spec, request.queries, request.options, &retry_after_ms);

  FlightRecord record;
  record.trace_id = request.options.trace.trace_id;
  record.collection = request.collection;
  record.lane = request.options.lane;
  record.queries = static_cast<uint32_t>(request.queries.size());
  record.bytes = payload.size();
  if (gathered.status().code() == Status::Code::kUnavailable) {
    record.status = FlightStatus::kShedOther;
    record.retry_after_ms =
        static_cast<uint32_t>(std::min<uint64_t>(retry_after_ms, ~0u));
    PostShed(conn_id, retry_after_ms, gathered.status().message());
  } else if (!gathered.ok()) {
    record.status = FlightStatus::kPartialError;
    PostError(conn_id, gathered.status().ToString());
  } else {
    net::BatchReplyFrame& merged = gathered.value();
    if (spec.sharded()) XCLUSTER_COUNTER_INC("cluster.batches.scatter");
    merged.trace_id = request.options.trace.trace_id;
    Post(conn_id, net::FrameType::kBatchReply,
         net::EncodeBatchReplyFrame(merged));
    XCLUSTER_COUNTER_INC("cluster.batches.routed");
    record.ok = static_cast<uint32_t>(merged.stats.ok);
    record.status = merged.stats.failed == 0 ? FlightStatus::kOk
                                             : FlightStatus::kPartialError;
  }
  record.end_ns = telemetry::MonotonicNowNs();
  record.wall_ns = record.end_ns - start_ns;
  flight_.Record(record);
  XCLUSTER_HISTOGRAM_RECORD_NS("cluster.route_latency_ns", record.wall_ns);
}

void Router::HandleFlight(uint64_t conn_id, const std::string& payload) {
  Result<uint32_t> max_records = net::DecodeFlightRequest(payload);
  if (!max_records.ok()) {
    PostError(conn_id, max_records.status().ToString());
    return;
  }
  Post(conn_id, net::FrameType::kFlightReply,
       flight_.ToJson(max_records.value()));
}

}  // namespace cluster
}  // namespace xcluster
