#include "cluster/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/merge.h"
#include "cluster/replica_set.h"
#include "common/io/crc32c.h"
#include "common/telemetry/telemetry.h"
#include "common/telemetry/trace.h"
#include "common/rng.h"
#include "core/xcluster.h"
#include "eval/evaluator.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "query/parser.h"
#include "random_twigs.h"
#include "raw_peer.h"
#include "service/service.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"

namespace xcluster {
namespace cluster {
namespace {

XCluster MakeFixture() {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 10.0);
  SynNodeId b = synopsis.AddNode("B", ValueType::kNone, 100.0);
  synopsis.AddEdge(r, a, 10.0);
  synopsis.AddEdge(a, b, 10.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

/// The fixture as the XCSF image a replication push carries.
std::string FixtureImage() {
  return std::string(MakeFixture().flat()->image());
}

bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 5000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// ---------------------------------------------------------------------------
// hash_ring

TEST(HashRing, CollectionHashIsStableAndSpreads) {
  // The routing hash must be process-invariant: a literal expectation would
  // overfit, but determinism and dispersion are the contract.
  EXPECT_EQ(CollectionHash("books"), CollectionHash("books"));
  EXPECT_NE(CollectionHash("books"), CollectionHash("book"));
  EXPECT_NE(CollectionHash("books"), CollectionHash("books@0"));
  EXPECT_NE(CollectionHash(""), CollectionHash("a"));
}

TEST(HashRing, RankReplicasIsATotalOrderAndMinimallyDisruptive) {
  std::vector<uint64_t> seeds;
  for (int i = 0; i < 5; ++i) {
    seeds.push_back(ReplicaSeed("10.0.0." + std::to_string(i) + ":9000"));
  }
  const uint64_t hash = CollectionHash("books");
  std::vector<size_t> order = RankReplicas(hash, seeds);
  ASSERT_EQ(order.size(), seeds.size());
  // A permutation of all indices.
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // Deterministic.
  EXPECT_EQ(order, RankReplicas(hash, seeds));

  // HRW's minimal-disruption property: dropping one replica preserves the
  // relative order of the survivors.
  const size_t removed = order[0];
  std::vector<uint64_t> remaining_seeds;
  std::vector<size_t> index_map;  // position in `seeds` for each survivor
  for (size_t i = 0; i < seeds.size(); ++i) {
    if (i == removed) continue;
    index_map.push_back(i);
    remaining_seeds.push_back(seeds[i]);
  }
  std::vector<size_t> reranked = RankReplicas(hash, remaining_seeds);
  std::vector<size_t> survivors;
  for (size_t index : order) {
    if (index != removed) survivors.push_back(index);
  }
  ASSERT_EQ(reranked.size(), survivors.size());
  for (size_t i = 0; i < reranked.size(); ++i) {
    EXPECT_EQ(index_map[reranked[i]], survivors[i]) << i;
  }
}

TEST(HashRing, DifferentCollectionsSpreadAcrossReplicas) {
  std::vector<uint64_t> seeds;
  for (int i = 0; i < 4; ++i) {
    seeds.push_back(ReplicaSeed("host" + std::to_string(i) + ":1"));
  }
  std::vector<size_t> owner_counts(seeds.size(), 0);
  for (int i = 0; i < 200; ++i) {
    const uint64_t hash = CollectionHash("col" + std::to_string(i));
    ++owner_counts[RankReplicas(hash, seeds)[0]];
  }
  // Every replica owns something — the hash isn't collapsing.
  for (size_t count : owner_counts) EXPECT_GT(count, 0u);
}

TEST(HashRing, ParseShardSpecGrammar) {
  EXPECT_FALSE(ParseShardSpec("books").sharded());
  EXPECT_FALSE(ParseShardSpec("books@0").sharded());
  EXPECT_FALSE(ParseShardSpec("books@1").sharded());
  EXPECT_FALSE(ParseShardSpec("books@007").sharded());  // leading zeros
  EXPECT_FALSE(ParseShardSpec("books@").sharded());     // trailing @
  EXPECT_FALSE(ParseShardSpec("@4").sharded());         // empty base
  EXPECT_FALSE(ParseShardSpec("a@b@4").sharded());      // base contains @
  EXPECT_FALSE(ParseShardSpec("books@4x").sharded());   // non-digit
  EXPECT_FALSE(ParseShardSpec("books@9", 8).sharded()); // above max_shards

  ShardSpec spec = ParseShardSpec("books@4");
  EXPECT_TRUE(spec.sharded());
  EXPECT_EQ(spec.base, "books");
  EXPECT_EQ(spec.shard_count, 4u);

  std::vector<std::string> names = ShardNames(spec);
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "books@0");
  EXPECT_EQ(names[3], "books@3");

  names = ShardNames(ParseShardSpec("books"));
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "books");
}

// ---------------------------------------------------------------------------
// merge

net::BatchReplyFrame MakeReply(std::vector<net::BatchReplyItem> items) {
  net::BatchReplyFrame reply;
  reply.items = std::move(items);
  reply.stats.ok = 0;
  for (const net::BatchReplyItem& item : reply.items) {
    if (item.ok) {
      ++reply.stats.ok;
    } else {
      ++reply.stats.failed;
    }
  }
  return reply;
}

net::BatchReplyItem OkItem(double estimate) {
  net::BatchReplyItem item;
  item.ok = true;
  item.estimate = estimate;
  return item;
}

net::BatchReplyItem ErrItem(const std::string& error) {
  net::BatchReplyItem item;
  item.ok = false;
  item.error = error;
  return item;
}

TEST(Merge, SumsEstimatesInShardOrderAndMaxesWallTime) {
  std::vector<ShardReply> shards(2);
  shards[0].shard = "books@0";
  shards[0].reply = MakeReply({OkItem(1.5), OkItem(10.0)});
  shards[0].reply.stats.wall_ns = 9000;
  shards[1].shard = "books@1";
  shards[1].reply = MakeReply({OkItem(2.25), OkItem(30.0)});
  shards[1].reply.stats.wall_ns = 4000;

  Result<net::BatchReplyFrame> merged = MergeShardReplies(shards);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.value().items.size(), 2u);
  EXPECT_EQ(merged.value().items[0].estimate, 3.75);  // exact in binary
  EXPECT_EQ(merged.value().items[1].estimate, 40.0);
  EXPECT_EQ(merged.value().stats.ok, 2u);
  EXPECT_EQ(merged.value().stats.failed, 0u);
  EXPECT_EQ(merged.value().stats.wall_ns, 9000u);
  EXPECT_EQ(merged.value().trace_id, 0u);
}

TEST(Merge, SlotFailsWhenAnyShardFailsWithAttributedError) {
  std::vector<ShardReply> shards(2);
  shards[0].shard = "books@0";
  shards[0].reply = MakeReply({OkItem(1.0), ErrItem("Parse: broken")});
  shards[1].shard = "books@1";
  shards[1].reply = MakeReply({OkItem(2.0), OkItem(5.0)});

  Result<net::BatchReplyFrame> merged = MergeShardReplies(shards);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.value().items.size(), 2u);
  EXPECT_TRUE(merged.value().items[0].ok);
  EXPECT_FALSE(merged.value().items[1].ok);
  EXPECT_EQ(merged.value().items[1].error, "shard books@0: Parse: broken");
  EXPECT_EQ(merged.value().stats.ok, 1u);
  EXPECT_EQ(merged.value().stats.failed, 1u);
}

TEST(Merge, SlotCountMismatchIsARoutingBugNotAPartialMerge) {
  std::vector<ShardReply> shards(2);
  shards[0].shard = "books@0";
  shards[0].reply = MakeReply({OkItem(1.0)});
  shards[1].shard = "books@1";
  shards[1].reply = MakeReply({OkItem(1.0), OkItem(2.0)});
  EXPECT_FALSE(MergeShardReplies(shards).ok());
  EXPECT_FALSE(MergeShardReplies({}).ok());
}

// ---------------------------------------------------------------------------
// replica_set parsing

TEST(ReplicaSetParsing, ParsesHarnessListOutput) {
  const std::string response =
      "ok list 3\n"
      "synopsis alpha gen=4 clusters=3 bytes=512\n"
      "synopsis beta gen=7 clusters=3 bytes=512 source=wire:1.2.3.4\n"
      "garbage line\n"
      "synopsis gamma notgen=9\n";
  std::vector<std::pair<std::string, uint64_t>> generations =
      ParseListGenerations(response);
  ASSERT_EQ(generations.size(), 2u);
  EXPECT_EQ(generations[0].first, "alpha");
  EXPECT_EQ(generations[0].second, 4u);
  EXPECT_EQ(generations[1].first, "beta");
  EXPECT_EQ(generations[1].second, 7u);
}

// ---------------------------------------------------------------------------
// end-to-end: router + replicas on loopback

/// One in-process replica daemon: an EstimationService with the fixture
/// installed under "books", served on an ephemeral loopback port.
struct Replica {
  std::unique_ptr<EstimationService> service;
  std::unique_ptr<net::NetServer> server;

  std::string address() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }
};

Replica StartReplica(size_t workers = 2, size_t max_install_bytes = 0) {
  Replica replica;
  ServiceOptions options;
  options.executor.num_threads = workers;
  replica.service = std::make_unique<EstimationService>(options);
  replica.service->store().Install("books", MakeFixture());
  net::NetServerOptions net_options;
  net_options.host = "127.0.0.1";
  net_options.port = 0;
  if (max_install_bytes != 0) {
    net_options.max_install_bytes = max_install_bytes;
  }
  replica.server =
      std::make_unique<net::NetServer>(replica.service.get(), net_options);
  Status started = replica.server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return replica;
}

/// An address that is guaranteed closed: bind an ephemeral listener, note
/// the port, shut it down.
std::string DeadAddress() {
  Replica ghost = StartReplica(1);
  const std::string address = ghost.address();
  ghost.server->Stop();
  return address;
}

std::unique_ptr<Router> StartRouter(const std::vector<std::string>& peers,
                                    uint64_t probe_ms = 100) {
  RouterOptions options;
  options.server.host = "127.0.0.1";
  options.server.port = 0;
  options.peers = peers;
  options.replicas.probe_interval_ms = probe_ms;
  options.replicas.client.recv_timeout_ms = 5000;
  options.replicas.client.connect_timeout_ms = 2000;
  options.workers = 2;
  auto router = std::make_unique<Router>(std::move(options));
  Status started = router->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return router;
}

net::NetClient ConnectOrDie(uint16_t port, net::NetClientOptions options = {}) {
  Result<net::NetClient> client =
      net::NetClient::Connect("127.0.0.1", port, options);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

TEST(ClusterE2E, RoutedBatchIsBitIdenticalToDirectAcrossWorkerCounts) {
  // One narrow and one wide replica: the determinism gate must hold both
  // through the router and regardless of replica parallelism.
  Replica narrow = StartReplica(1);
  Replica wide = StartReplica(8);
  std::unique_ptr<Router> router =
      StartRouter({narrow.address(), wide.address()});

  std::vector<std::string> queries;
  for (int i = 0; i < 100; ++i) {
    queries.push_back(i % 3 == 2 ? "][broken" : (i % 2 == 0 ? "/A" : "/A/B"));
  }

  net::NetClient routed = ConnectOrDie(router->port());
  EXPECT_EQ(routed.server_role(), "router");
  Result<net::BatchReplyFrame> via_router = routed.Batch("books", queries, {});
  ASSERT_TRUE(via_router.ok()) << via_router.status().ToString();

  for (Replica* replica : {&narrow, &wide}) {
    net::NetClient direct = ConnectOrDie(replica->server->port());
    EXPECT_EQ(direct.server_role(), "replica");
    Result<net::BatchReplyFrame> expected = direct.Batch("books", queries, {});
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_EQ(via_router.value().items.size(), expected.value().items.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const net::BatchReplyItem& routed_item = via_router.value().items[i];
      const net::BatchReplyItem& direct_item = expected.value().items[i];
      EXPECT_EQ(routed_item.ok, direct_item.ok) << queries[i];
      // Exact IEEE-754 bit equality, not approximate: the router forwards
      // the replica's encoded estimate without a text round-trip.
      EXPECT_EQ(routed_item.estimate, direct_item.estimate) << queries[i];
      if (!routed_item.ok) {
        EXPECT_EQ(routed_item.error, direct_item.error) << queries[i];
      }
    }
    EXPECT_EQ(via_router.value().stats.ok, expected.value().stats.ok);
    EXPECT_EQ(via_router.value().stats.failed, expected.value().stats.failed);
  }
}

TEST(ClusterE2E, RouterStatsAndAggregatedListSeeTheFleet) {
  Replica first = StartReplica();
  Replica second = StartReplica();
  std::unique_ptr<Router> router =
      StartRouter({first.address(), second.address()});

  net::NetClient client = ConnectOrDie(router->port());
  Result<std::string> stats = client.Command("stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().rfind("ok stats role=router replicas=2 healthy=2", 0),
            0u)
      << stats.value();
  EXPECT_NE(stats.value().find("role=replica"), std::string::npos)
      << stats.value();

  Result<std::string> list = client.Command("list");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().rfind("ok list 1\n", 0), 0u) << list.value();
  EXPECT_NE(list.value().find("synopsis books gen="), std::string::npos)
      << list.value();
  EXPECT_NE(list.value().find("replicas=2"), std::string::npos)
      << list.value();

  // Routed single-command estimate.
  Result<std::string> estimate = client.Command("estimate books /A");
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate.value().rfind("ok estimate 10 us=", 0), 0u)
      << estimate.value();
}

TEST(ClusterE2E, ReplicaDownAtStartupIsRoutedAround) {
  Replica alive = StartReplica();
  const std::string dead = DeadAddress();
  // Start() runs a synchronous probe round, so the dead peer is unhealthy
  // before the first request routes — no lost first batch.
  std::unique_ptr<Router> router = StartRouter({dead, alive.address()});
  EXPECT_EQ(router->replicas().HealthyIndices(), std::vector<size_t>{1});

  net::NetClient client = ConnectOrDie(router->port());
  Result<net::BatchReplyFrame> reply =
      client.Batch("books", {"/A", "/A/B"}, {});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().items.size(), 2u);
  EXPECT_EQ(reply.value().items[0].estimate, 10.0);
  EXPECT_EQ(reply.value().items[1].estimate, 100.0);
}

TEST(ClusterE2E, ReplicaDeathMidStreamFailsOverWithoutLosingBatches) {
  Replica first = StartReplica();
  Replica second = StartReplica();
  std::unique_ptr<Router> router =
      StartRouter({first.address(), second.address()});
  net::NetClient client = ConnectOrDie(router->port());

  // Warm the routed path (also warms the router's connection pool, so the
  // kill below poisons a pooled connection — the interesting case).
  Result<net::BatchReplyFrame> before = client.Batch("books", {"/A"}, {});
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Kill whichever replica owns "books"; the router must fail over and
  // every accepted batch must still come back complete, exactly once.
  const uint64_t hash = CollectionHash("books");
  const size_t owner = RankReplicas(hash, router->replicas().seeds())[0];
  (owner == 0 ? first : second).server->Stop();

  for (int round = 0; round < 3; ++round) {
    Result<net::BatchReplyFrame> after =
        client.Batch("books", {"/A", "/A/B", "/A"}, {});
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ASSERT_EQ(after.value().items.size(), 3u) << "lost or duplicated slots";
    EXPECT_EQ(after.value().items[0].estimate, 10.0);
    EXPECT_EQ(after.value().items[1].estimate, 100.0);
    EXPECT_EQ(after.value().items[2].estimate, 10.0);
  }

  // The data-path failure is enough to deprioritize the dead replica; the
  // prober eventually agrees.
  EXPECT_TRUE(WaitFor([&] {
    return router->replicas().HealthyIndices() ==
           std::vector<size_t>{owner == 0 ? size_t{1} : size_t{0}};
  }));
}

TEST(ClusterE2E, AllReplicasDeadShedsInsteadOfHanging) {
  const std::string dead = DeadAddress();
  std::unique_ptr<Router> router = StartRouter({dead});
  EXPECT_TRUE(router->replicas().HealthyIndices().empty());

  net::NetClient client = ConnectOrDie(router->port());
  Result<net::BatchReplyFrame> reply = client.Batch("books", {"/A"}, {});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), Status::Code::kUnavailable)
      << reply.status().ToString();
  // The shed frame keeps the connection usable — a later request (after
  // hypothetical recovery) reuses it.
  Result<std::string> stats = client.Command("stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().rfind("ok stats role=router", 0), 0u);
}

TEST(ClusterE2E, InstallThroughRouterLeavesFleetAtSameGeneration) {
  Replica first = StartReplica();
  Replica second = StartReplica();
  std::unique_ptr<Router> router =
      StartRouter({first.address(), second.address()});

  const std::string bytes = FixtureImage();
  net::NetClient client = ConnectOrDie(router->port());
  // Tiny chunk size forces the multi-chunk reassembly path end to end.
  Result<net::InstallReplyFrame> reply =
      client.Install("catalog", bytes, /*generation=*/0, /*chunk_bytes=*/64);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply.value().ok) << reply.value().message;
  const uint64_t generation = reply.value().generation;
  EXPECT_GT(generation, 0u);

  // Both replicas hot-swapped the same snapshot under the same pinned
  // generation — the fleet is in lockstep.
  for (Replica* replica : {&first, &second}) {
    auto stored = replica->service->store().Get("catalog");
    ASSERT_NE(stored, nullptr) << replica->address();
    EXPECT_EQ(stored->generation(), generation) << replica->address();
    EXPECT_EQ(stored->source().rfind("wire:", 0), 0u) << stored->source();
  }

  // A second install moves the whole fleet forward, again in lockstep.
  Result<net::InstallReplyFrame> again = client.Install("catalog", bytes);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(again.value().ok) << again.value().message;
  EXPECT_GT(again.value().generation, generation);
  EXPECT_EQ(first.service->store().Get("catalog")->generation(),
            second.service->store().Get("catalog")->generation());

  // The replicated collection serves through the router.
  Result<std::string> estimate = client.Command("estimate catalog /A");
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate.value().rfind("ok estimate 10 us=", 0), 0u)
      << estimate.value();
}

TEST(ClusterE2E, CorruptInstallPushIsRejectedWithoutInstalling) {
  Replica replica = StartReplica();
  std::unique_ptr<Router> router = StartRouter({replica.address()});

  std::string bytes = FixtureImage();
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-snapshot

  net::NetClient client = ConnectOrDie(router->port());
  Result<net::InstallReplyFrame> reply = client.Install("broken", bytes);
  // The router's whole-snapshot CRC check fires before any replica sees a
  // byte (surfaced as a reply with ok=false or a decode error).
  if (reply.ok()) {
    EXPECT_FALSE(reply.value().ok) << reply.value().message;
  }
  EXPECT_EQ(replica.service->store().Get("broken"), nullptr);
}

TEST(ClusterE2E, ScatterGatherSumsShardsAndMatchesDirectMath) {
  Replica first = StartReplica();
  Replica second = StartReplica();
  // Per-shard synopses installed directly (each replica holds every shard,
  // so HRW may send each shard anywhere).
  for (Replica* replica : {&first, &second}) {
    replica->service->store().Install("part@0", MakeFixture());
    replica->service->store().Install("part@1", MakeFixture());
  }
  std::unique_ptr<Router> router =
      StartRouter({first.address(), second.address()});

  net::NetClient client = ConnectOrDie(router->port());
  Result<net::BatchReplyFrame> reply =
      client.Batch("part@2", {"/A", "/A/B", "][broken"}, {});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().items.size(), 3u);
  EXPECT_TRUE(reply.value().items[0].ok);
  EXPECT_EQ(reply.value().items[0].estimate, 20.0);   // 10 + 10
  EXPECT_EQ(reply.value().items[1].estimate, 200.0);  // 100 + 100
  EXPECT_FALSE(reply.value().items[2].ok);
  EXPECT_EQ(reply.value().items[2].error.rfind("shard part@", 0), 0u)
      << reply.value().items[2].error;
  EXPECT_EQ(reply.value().stats.ok, 2u);
  EXPECT_EQ(reply.value().stats.failed, 1u);

  // A missing shard fails the whole batch (never a silent partial sum).
  Result<net::BatchReplyFrame> missing = client.Batch("part@3", {"/A"}, {});
  if (missing.ok()) {
    ASSERT_EQ(missing.value().items.size(), 1u);
    EXPECT_FALSE(missing.value().items[0].ok);
  }
}

TEST(ClusterE2E, StaleReplicatedInstallIsRejectedByReplica) {
  Replica replica = StartReplica();
  const std::string bytes = FixtureImage();

  net::NetClient client = ConnectOrDie(replica.server->port());
  Result<net::InstallReplyFrame> fresh =
      client.Install("catalog", bytes, /*generation=*/20);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_TRUE(fresh.value().ok) << fresh.value().message;
  EXPECT_EQ(fresh.value().generation, 20u);

  // A delayed or retried push with the same (or an older) pinned
  // generation must not roll the replica backwards — or sideways onto a
  // different snapshot of the same generation.
  for (const uint64_t stale : {uint64_t{20}, uint64_t{7}}) {
    Result<net::InstallReplyFrame> reply =
        client.Install("catalog", bytes, stale);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_FALSE(reply.value().ok) << "generation " << stale;
    EXPECT_NE(reply.value().message.find("stale install"), std::string::npos)
        << reply.value().message;
  }
  EXPECT_EQ(replica.service->store().Get("catalog")->generation(), 20u);

  // A strictly newer pinned generation still lands.
  Result<net::InstallReplyFrame> newer =
      client.Install("catalog", bytes, /*generation=*/21);
  ASSERT_TRUE(newer.ok()) << newer.status().ToString();
  EXPECT_TRUE(newer.value().ok) << newer.value().message;
  EXPECT_EQ(replica.service->store().Get("catalog")->generation(), 21u);
}

TEST(ClusterE2E, OversizedInstallDeclarationIsRejectedUpFront) {
  // A 64-byte install cap: the first chunk's declared total must be
  // refused before any buffering, so a hostile declaration can never
  // commit the daemon to an allocation it cannot afford.
  Replica replica = StartReplica(/*workers=*/2, /*max_install_bytes=*/64);
  const std::string bytes = FixtureImage();
  ASSERT_GT(bytes.size(), 64u);

  net::NetClient client = ConnectOrDie(replica.server->port());
  Result<net::InstallReplyFrame> reply = client.Install("big", bytes);
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().ToString().find("install cap"), std::string::npos)
      << reply.status().ToString();
  EXPECT_EQ(replica.service->store().Get("big"), nullptr);

  // The daemon survived and still serves (fresh connection — the server
  // closes the offending one with the error frame).
  net::NetClient again = ConnectOrDie(replica.server->port());
  Result<std::string> estimate = again.Command("estimate books /A");
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  EXPECT_EQ(estimate.value().rfind("ok estimate 10 us=", 0), 0u);
}

TEST(ClusterE2E, MutationsFailLoudlyWhenReplicasAreUnhealthy) {
  Replica alive = StartReplica();
  const std::string dead = DeadAddress();
  std::unique_ptr<Router> router = StartRouter({alive.address(), dead});
  EXPECT_EQ(router->replicas().HealthyIndices(), std::vector<size_t>{0});

  // drop fans out to the healthy replica but must not claim fleet-wide
  // success: the dead replica missed the mutation and would serve
  // undropped data once a probe re-admits it.
  net::NetClient client = ConnectOrDie(router->port());
  Result<std::string> drop = client.Command("drop books");
  ASSERT_TRUE(drop.ok()) << drop.status().ToString();
  EXPECT_EQ(drop.value().rfind("err drop did not reach 1 unhealthy", 0), 0u)
      << drop.value();
  EXPECT_NE(drop.value().find(dead), std::string::npos) << drop.value();
  // The healthy replica did apply it.
  EXPECT_EQ(alive.service->store().Get("books"), nullptr);

  // Replication through the router likewise refuses an unqualified ok.
  const std::string bytes = FixtureImage();
  Result<net::InstallReplyFrame> install = client.Install("books", bytes);
  ASSERT_TRUE(install.ok()) << install.status().ToString();
  EXPECT_FALSE(install.value().ok);
  EXPECT_NE(install.value().message.find("skipped 1 unhealthy"),
            std::string::npos)
      << install.value().message;
  // ... while still landing the snapshot on every healthy replica.
  ASSERT_NE(alive.service->store().Get("books"), nullptr);
}

TEST(ClusterE2E, ShardedNamesOnTheCommandPathMatchBatchSemantics) {
  Replica first = StartReplica();
  Replica second = StartReplica();
  for (Replica* replica : {&first, &second}) {
    replica->service->store().Install("part@0", MakeFixture());
    replica->service->store().Install("part@1", MakeFixture());
  }
  std::unique_ptr<Router> router =
      StartRouter({first.address(), second.address()});

  // A single text estimate against the sharded name scatter-gathers like
  // a kBatch would (sum across shards), instead of hashing the literal
  // name to one replica and answering "unknown collection".
  net::NetClient client = ConnectOrDie(router->port());
  Result<std::string> estimate = client.Command("estimate part@2 /A");
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  EXPECT_EQ(estimate.value().rfind("ok estimate 20 us=", 0), 0u)
      << estimate.value();
  Result<std::string> deep = client.Command("estimate part@2 /A/B");
  ASSERT_TRUE(deep.ok());
  EXPECT_EQ(deep.value().rfind("ok estimate 200 us=", 0), 0u) << deep.value();

  // A missing shard fails the estimate — never a silent partial sum.
  Result<std::string> missing = client.Command("estimate part@3 /A");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().rfind("err", 0), 0u) << missing.value();

  // load of a sharded name has no single home; the rejection points at
  // the per-shard and replicate paths instead of "unknown collection".
  Result<std::string> load = client.Command("load part@2 /tmp/x.xcsf");
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load.value().rfind("err load of sharded name", 0), 0u)
      << load.value();
  EXPECT_NE(load.value().find("replicate"), std::string::npos) << load.value();
}

TEST(ClusterE2E, RouterRefusesAHelloWithoutTheProtocolVersion) {
  Replica replica = StartReplica();
  std::unique_ptr<Router> router = StartRouter({replica.address()});

  Result<net::RawPeer> peer = net::RawPeer::Connect(router->port());
  ASSERT_TRUE(peer.ok()) << peer.status().ToString();
  net::Frame answer;
  ASSERT_TRUE(
      peer.value().Hello(1, net::kProtocolVersion - 1, &answer).ok());
  EXPECT_EQ(answer.type, net::FrameType::kError);
  EXPECT_NE(answer.payload.find("no common protocol version"),
            std::string::npos)
      << answer.payload;
}

// The router reassembles through the daemon's InstallAssembler and follows
// its reporting rule: a broken chunk sequence gets an error frame, a
// CRC-mismatched snapshot an install_reply with ok clear, and no replica
// sees a byte of either.
TEST(ClusterE2E, RouterErrorsABrokenInstallSequenceAndRepliesToABadCrc) {
  Replica replica = StartReplica();
  std::unique_ptr<Router> router = StartRouter({replica.address()});
  const uint64_t generation =
      replica.service->store().Get("books")->generation();
  const std::string image = FixtureImage();
  const size_t piece = image.size() / 2 + 1;
  auto chunk = [&](uint32_t index) {
    net::InstallFrame frame;
    frame.name = "books";
    frame.total_bytes = image.size();
    frame.chunk_index = index;
    frame.chunk_count = 2;
    frame.snapshot_crc =
        crc32c::Mask(crc32c::Value(image.data(), image.size())) ^ 1;
    frame.chunk = image.substr(index * piece, piece);
    return net::EncodeInstall(frame);
  };

  {
    Result<net::RawPeer> peer = net::RawPeer::Connect(router->port());
    ASSERT_TRUE(peer.ok()) << peer.status().ToString();
    net::Frame frame;
    ASSERT_TRUE(peer.value()
                    .Hello(net::kProtocolVersion, net::kProtocolVersion, &frame)
                    .ok());
    ASSERT_EQ(frame.type, net::FrameType::kHelloAck);
    ASSERT_TRUE(peer.value().Send(net::FrameType::kInstall, chunk(1)).ok());
    ASSERT_TRUE(peer.value().Read(&frame).ok());
    EXPECT_EQ(frame.type, net::FrameType::kError);
    EXPECT_NE(frame.payload.find("without a first chunk"), std::string::npos)
        << frame.payload;
  }

  Result<net::RawPeer> peer = net::RawPeer::Connect(router->port());
  ASSERT_TRUE(peer.ok()) << peer.status().ToString();
  net::Frame frame;
  ASSERT_TRUE(peer.value()
                  .Hello(net::kProtocolVersion, net::kProtocolVersion, &frame)
                  .ok());
  ASSERT_TRUE(peer.value().Send(net::FrameType::kInstall, chunk(0)).ok());
  ASSERT_TRUE(peer.value().Send(net::FrameType::kInstall, chunk(1)).ok());
  ASSERT_TRUE(peer.value().Read(&frame).ok());
  ASSERT_EQ(frame.type, net::FrameType::kInstallReply);
  Result<net::InstallReplyFrame> reply =
      net::DecodeInstallReply(frame.payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply.value().ok);
  EXPECT_NE(reply.value().message.find("snapshot checksum"),
            std::string::npos)
      << reply.value().message;
  EXPECT_EQ(replica.service->store().Get("books")->generation(), generation);
}

TEST(ClusterE2E, RouterTraceIdSpansRouterAndReplica) {
  Replica replica = StartReplica();
  std::unique_ptr<Router> router = StartRouter({replica.address()});

  net::NetClient client = ConnectOrDie(router->port());
  BatchOptions options;
  options.trace.trace_id = 0xabcdef12345678ull;
  options.trace.sampled = true;
  Result<net::BatchReplyFrame> reply =
      client.Batch("books", {"/A"}, options);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  // The router echoes the client's id, and files the batch under it in its
  // own flight ring; the replica leg carried the same id.
  EXPECT_EQ(reply.value().trace_id, options.trace.trace_id);
}

// Routed answers hold to the exact answer, not only to a replica's: a
// random document's reference synopsis estimates structural twigs exactly,
// so a batch and an `estimate` routed to either of two replicas must both
// reproduce ExactEvaluator.
TEST(ClusterE2E, RoutedEstimatesMatchTheExactAnswer) {
  Rng rng(2718);
  const XmlDocument doc = RandomDocument(&rng, 150);
  const GraphSynopsis reference =
      BuildReferenceSynopsis(doc, ReferenceOptions());
  const ExactEvaluator evaluator(doc, reference.term_dictionary().get());
  // Twigs travel as text, so only those whose text parses back to the same
  // twig are asked.
  std::vector<std::string> queries;
  std::vector<double> truth;
  for (int i = 0; i < 40; ++i) {
    const TwigQuery query = RandomStructuralQuery(&rng);
    const std::string text = query.ToString();
    const Result<TwigQuery> parsed = ParseTwig(text);
    if (!parsed.ok() || parsed.value().ToString() != text) continue;
    queries.push_back(text);
    truth.push_back(evaluator.Selectivity(query));
  }
  ASSERT_GE(queries.size(), 20u);
  std::string image;
  ASSERT_TRUE(storage::XcsfWriter::Encode(reference, &image).ok());

  Replica first = StartReplica();
  Replica second = StartReplica();
  std::unique_ptr<Router> router =
      StartRouter({first.address(), second.address()});
  net::NetClient client = ConnectOrDie(router->port());
  Result<net::InstallReplyFrame> installed = client.Install("random", image);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  ASSERT_TRUE(installed.value().ok) << installed.value().message;

  Result<net::BatchReplyFrame> batch = client.Batch("random", queries, {});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().items.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const double tolerance = 1e-6 * (1.0 + truth[i]);
    const net::BatchReplyItem& item = batch.value().items[i];
    ASSERT_TRUE(item.ok) << queries[i] << ": " << item.error;
    EXPECT_NEAR(item.estimate, truth[i], tolerance) << queries[i];

    Result<std::string> line = client.Command("estimate random " + queries[i]);
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    ASSERT_EQ(line.value().rfind("ok estimate ", 0), 0u) << line.value();
    // %.6g prints these integer counts exactly.
    EXPECT_NEAR(std::strtod(line.value().c_str() + 12, nullptr), truth[i],
                tolerance)
        << queries[i];
  }
}

#if XCLUSTER_TELEMETRY_ENABLED
// cluster.route's self time is the router's own work: the replica round
// trip sits in a cluster.forward span beneath it.
TEST(ClusterE2E, SampledRoutedBatchRecordsTheForwardSpan) {
  telemetry::TraceRecorder recorder(4096);
  telemetry::TraceRecorder* previous = telemetry::GlobalTraceRecorder();
  telemetry::InstallGlobalTraceRecorder(&recorder);
  const uint64_t trace_id = 0x5eedf00d;
  {
    Replica replica = StartReplica();
    std::unique_ptr<Router> router = StartRouter({replica.address()});
    net::NetClient client = ConnectOrDie(router->port());
    BatchOptions options;
    options.trace.trace_id = trace_id;
    options.trace.sampled = true;
    Result<net::BatchReplyFrame> reply =
        client.Batch("books", {"/A"}, options);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    client.Close();
    router->Stop();  // every routed span is closed before the snapshot
    replica.server->Stop();
  }
  telemetry::InstallGlobalTraceRecorder(previous);

  const telemetry::TraceRecorder::Event* route = nullptr;
  const telemetry::TraceRecorder::Event* forward = nullptr;
  bool replica_batch = false;
  const std::vector<telemetry::TraceRecorder::Event> events =
      recorder.SnapshotEvents();
  for (const telemetry::TraceRecorder::Event& event : events) {
    if (event.trace_id != trace_id) continue;
    const std::string name = event.name;
    if (name == "cluster.route") route = &event;
    if (name == "cluster.forward") forward = &event;
    if (name == "net.batch") replica_batch = true;
  }
  ASSERT_NE(route, nullptr);
  ASSERT_NE(forward, nullptr);
  EXPECT_TRUE(replica_batch);
  EXPECT_GE(forward->start_ns, route->start_ns);
  EXPECT_LE(forward->start_ns + forward->duration_ns,
            route->start_ns + route->duration_ns);
}
#endif  // XCLUSTER_TELEMETRY_ENABLED

}  // namespace
}  // namespace cluster
}  // namespace xcluster
