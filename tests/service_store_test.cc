#include "service/synopsis_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/io/file_io.h"
#include "estimate/compiled_twig.h"
#include "query/parser.h"
#include "service/service.h"
#include "storage/xcsf_writer.h"

namespace xcluster {
namespace {

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A tiny synopsis R -count-> A whose estimate for /A is `count` — each
/// generation installs a different count so tests can tell snapshots
/// apart by their estimates.
XCluster MakeSynopsis(double count) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, count);
  synopsis.AddEdge(root, a, count);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

/// Estimate through the serving hot path: the snapshot's FlatEstimator
/// over a plan compiled against its FlatSynopsis.
double FlatEstimate(const StoredSynopsis& snapshot, const std::string& query) {
  const CompiledTwig plan =
      CompiledTwig::Compile(MustParse(query), snapshot.flat());
  return snapshot.flat_estimator().Estimate(plan);
}

/// R -> A -> B with /A/B estimating 10 * a_count. `a_first` picks the
/// label interning order, so two chains compile A and B to swapped label
/// ids and a plan compiled against one answers 0 on the other.
XCluster MakeChain(bool a_first, double a_count) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = kNoSynNode;
  if (a_first) a = synopsis.AddNode("A", ValueType::kNone, a_count);
  SynNodeId b = synopsis.AddNode("B", ValueType::kNone, 10.0 * a_count);
  if (!a_first) a = synopsis.AddNode("A", ValueType::kNone, a_count);
  synopsis.AddEdge(root, a, a_count);
  synopsis.AddEdge(a, b, 10.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

/// EstimateOne and a one-query batch agree on `expected` for /A/B.
void ExpectChainEstimate(EstimationService* service,
                         const std::string& collection, double expected) {
  QueryResult one = service->EstimateOne(collection, "/A/B");
  ASSERT_TRUE(one.status.ok()) << one.status.ToString();
  EXPECT_EQ(one.estimate, expected) << collection << " via EstimateOne";
  BatchResult batch = service->EstimateBatch(collection, {"/A/B"});
  ASSERT_EQ(batch.results.size(), 1u);
  ASSERT_TRUE(batch.results[0].status.ok());
  EXPECT_EQ(batch.results[0].estimate, expected) << collection << " via batch";
}

TEST(SynopsisStoreTest, PlansNeverCrossSnapshotsThatShareAGeneration) {
  ServiceOptions options;
  options.executor.num_threads = 0;  // inline
  EstimationService service(options);

  // Two collections pinned to one generation, as replication can do.
  auto one = service.store().Install("one", MakeChain(true, 3.0), 7);
  auto two = service.store().Install("two", MakeChain(false, 9.0), 7);
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  ASSERT_EQ(one->generation(), two->generation());
  ExpectChainEstimate(&service, "one", 30.0);
  ExpectChainEstimate(&service, "two", 90.0);

  // Drop and re-push a name at its old generation, with other contents.
  ASSERT_TRUE(service.store().Remove("one"));
  auto again = service.store().Install("one", MakeChain(false, 5.0), 7);
  ASSERT_NE(again, nullptr);
  ASSERT_EQ(again->generation(), 7u);
  ExpectChainEstimate(&service, "one", 50.0);
}

TEST(SynopsisStoreTest, InstallGetRemove) {
  SynopsisStore store;
  EXPECT_EQ(store.Get("movies"), nullptr);
  EXPECT_EQ(store.size(), 0u);

  auto installed = store.Install("movies", MakeSynopsis(7.0));
  ASSERT_NE(installed, nullptr);
  EXPECT_EQ(installed->name(), "movies");

  auto fetched = store.Get("movies");
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(fetched.get(), installed.get());
  EXPECT_EQ(store.size(), 1u);

  EXPECT_TRUE(store.Remove("movies"));
  EXPECT_EQ(store.Get("movies"), nullptr);
  EXPECT_FALSE(store.Remove("movies"));
}

TEST(SynopsisStoreTest, GenerationsIncreaseAcrossReinstalls) {
  SynopsisStore store;
  auto first = store.Install("c", MakeSynopsis(1.0));
  auto second = store.Install("c", MakeSynopsis(2.0));
  auto other = store.Install("d", MakeSynopsis(3.0));
  EXPECT_LT(first->generation(), second->generation());
  EXPECT_LT(second->generation(), other->generation());
  EXPECT_EQ(store.Get("c")->generation(), second->generation());
}

TEST(SynopsisStoreTest, StalePinnedInstallIsRejected) {
  SynopsisStore store;
  auto current = store.Install("c", MakeSynopsis(1.0), /*generation=*/10);
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->generation(), 10u);

  // A pinned install that does not move the generation forward must not
  // replace the snapshot — delayed or reordered replication pushes would
  // otherwise roll a replica backwards.
  EXPECT_EQ(store.Install("c", MakeSynopsis(2.0), /*generation=*/10), nullptr);
  EXPECT_EQ(store.Install("c", MakeSynopsis(2.0), /*generation=*/7), nullptr);
  EXPECT_EQ(store.Get("c").get(), current.get());

  // A newer pinned generation still lands, and auto-assigned installs are
  // never rejected (they always draw a fresh, larger generation).
  auto newer = store.Install("c", MakeSynopsis(3.0), /*generation=*/11);
  ASSERT_NE(newer, nullptr);
  EXPECT_EQ(newer->generation(), 11u);
  auto autogen = store.Install("c", MakeSynopsis(4.0));
  ASSERT_NE(autogen, nullptr);
  EXPECT_GT(autogen->generation(), 11u);
}

TEST(SynopsisStoreTest, ListIsSortedAcrossShards) {
  SynopsisStore store(4);
  for (const char* name : {"zeta", "alpha", "mid", "beta"}) {
    store.Install(name, MakeSynopsis(1.0));
  }
  EXPECT_EQ(store.List(),
            (std::vector<std::string>{"alpha", "beta", "mid", "zeta"}));
  EXPECT_EQ(store.size(), 4u);
}

TEST(SynopsisStoreTest, SnapshotSurvivesReplaceAndRemove) {
  SynopsisStore store;
  store.Install("c", MakeSynopsis(5.0));
  auto held = store.Get("c");  // in-flight request holds the snapshot

  store.Install("c", MakeSynopsis(9.0));  // hot swap
  EXPECT_NE(store.Get("c").get(), held.get());
  // The old snapshot still answers queries with its own data.
  EXPECT_NEAR(FlatEstimate(*held, "/A"), 5.0, 1e-9);
  EXPECT_NEAR(FlatEstimate(*store.Get("c"), "/A"), 9.0, 1e-9);

  store.Remove("c");
  EXPECT_NEAR(FlatEstimate(*held, "/A"), 5.0, 1e-9);
}

TEST(SynopsisStoreTest, LoadFileFailureLeavesCatalogUntouched) {
  SynopsisStore store;
  store.Install("c", MakeSynopsis(4.0));
  auto before = store.Get("c");
  auto loaded = store.LoadFile("c", "/nonexistent/path.xcsf");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(store.Get("c").get(), before.get());
}

// RCU semantics under contention: readers estimate continuously while a
// writer hot-swaps the same name; every read sees a complete snapshot
// (estimate matches that snapshot's generation parity, never a torn mix).
TEST(SynopsisStoreTest, ConcurrentHotSwapNeverTearsReaders) {
  SynopsisStore store;
  store.Install("c", MakeSynopsis(100.0));

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snapshot = store.Get("c");
        if (snapshot == nullptr) continue;  // momentarily removed
        const double estimate = FlatEstimate(*snapshot, "/A");
        // Writers only ever install counts 100 or 200.
        EXPECT_TRUE(estimate == 100.0 || estimate == 200.0) << estimate;
        ++reads;
      }
    });
  }

  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      store.Install("c", MakeSynopsis(i % 2 == 0 ? 200.0 : 100.0));
      if (i % 50 == 0) {
        store.Remove("c");
        store.Install("c", MakeSynopsis(100.0));
      }
    }
    stop = true;
  });

  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0);
}

// --- XCSF (mapped) snapshots ---------------------------------------------

/// Writes MakeSynopsis(count) as an XCSF image and returns its path.
std::string WriteXcsf(const std::string& file, double count) {
  const std::string path = testing::TempDir() + "/" + file;
  EXPECT_TRUE(storage::XcsfWriter::WriteGraph(MakeSynopsis(count).synopsis(),
                                              path, /*sync=*/false)
                  .ok());
  return path;
}

TEST(SynopsisStoreTest, LoadFileAutoDetectsXcsf) {
  SynopsisStore store;
  const std::string path = WriteXcsf("store_autodetect.xcsf", 7.0);
  auto loaded = store.LoadFile("movies", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& snapshot = *loaded.value();
  EXPECT_EQ(snapshot.num_clusters(), 2u);
  EXPECT_EQ(snapshot.size_bytes(), snapshot.flat().image().size());
  EXPECT_EQ(snapshot.source(), path);
  EXPECT_NEAR(FlatEstimate(snapshot, "/A"), 7.0, 1e-9);
  // The same store also still takes graph installs under other names.
  auto graph = store.Install("graph", MakeSynopsis(3.0));
  EXPECT_NEAR(FlatEstimate(*graph, "/A"), 3.0, 1e-9);
}

TEST(SynopsisStoreTest, HotSwapOfMappedSnapshotBumpsGeneration) {
  SynopsisStore store;
  auto first =
      store.LoadFile("c", WriteXcsf("store_swap_1.xcsf", 5.0));
  ASSERT_TRUE(first.ok());
  auto held = store.Get("c");  // in-flight request pins the mapping

  auto second =
      store.LoadFile("c", WriteXcsf("store_swap_2.xcsf", 9.0));
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.value()->generation(), first.value()->generation());
  EXPECT_NE(store.Get("c").get(), held.get());
  // The replaced mapped snapshot still serves until released; the swap
  // unmaps only when the last holder lets go of the shared_ptr.
  EXPECT_NEAR(FlatEstimate(*held, "/A"), 5.0, 1e-9);
  EXPECT_NEAR(FlatEstimate(*store.Get("c"), "/A"), 9.0, 1e-9);
  store.Remove("c");
  EXPECT_NEAR(FlatEstimate(*held, "/A"), 5.0, 1e-9);
}

TEST(SynopsisStoreTest, FailedXcsfLoadLeavesCatalogUntouched) {
  SynopsisStore store;
  store.Install("c", MakeSynopsis(4.0));
  auto before = store.Get("c");
  // Right magic, garbage body: sniffed as XCSF, rejected by validation.
  const std::string path = testing::TempDir() + "/store_corrupt.xcsf";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("XCSF garbage that is not a real image", f);
  std::fclose(f);
  auto loaded = store.LoadFile("c", path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  EXPECT_EQ(store.Get("c").get(), before.get());
}

TEST(SynopsisStoreTest, TwoStoresMapTheSameFileConcurrently) {
  const std::string path = WriteXcsf("store_shared.xcsf", 6.0);
  SynopsisStore a;
  SynopsisStore b;
  ASSERT_TRUE(a.LoadFile("c", path).ok());
  ASSERT_TRUE(b.LoadFile("c", path).ok());
  EXPECT_NEAR(FlatEstimate(*a.Get("c"), "/A"), 6.0, 1e-9);
  EXPECT_NEAR(FlatEstimate(*b.Get("c"), "/A"), 6.0, 1e-9);
  // Dropping one store's snapshot must not disturb the other's mapping.
  EXPECT_TRUE(a.Remove("c"));
  EXPECT_NEAR(FlatEstimate(*b.Get("c"), "/A"), 6.0, 1e-9);
}

TEST(SynopsisStoreTest, WireXcsfInstallAdoptsBufferAndRespectsGenerations) {
  std::string image;
  ASSERT_TRUE(
      storage::XcsfWriter::Encode(MakeSynopsis(8.0).synopsis(), &image).ok());
  SynopsisStore store;
  auto installed = store.InstallFromWire("c", image, "peer-1", 5);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  EXPECT_EQ(installed.value()->generation(), 5u);
  EXPECT_EQ(installed.value()->source(), "wire:peer-1");
  EXPECT_NEAR(FlatEstimate(*installed.value(), "/A"), 8.0, 1e-9);
  // A stale pinned push must not roll the replica backwards.
  auto stale = store.InstallFromWire("c", image, "peer-2", 5);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(store.Get("c")->generation(), 5u);
}

TEST(SynopsisStoreTest, WireXcsfInstallSpoolsToDisk) {
  std::string image;
  ASSERT_TRUE(
      storage::XcsfWriter::Encode(MakeSynopsis(2.0).synopsis(), &image).ok());
  SynopsisStore store;
  store.SetSpoolDir(testing::TempDir());
  auto installed = store.InstallFromWire("c/with:odd chars", image, "peer", 0);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  // The spooled image is a complete, loadable XCSF file: a restarted
  // replica can cold-start straight from it.
  const std::string spooled =
      testing::TempDir() + "/c_with_odd_chars.xcsf";
  SynopsisStore restarted;
  auto reloaded = restarted.LoadFile("c", spooled);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_NEAR(FlatEstimate(*reloaded.value(), "/A"), 2.0, 1e-9);
}

/// MakeSynopsis(count) as the XCSF image a wire push carries.
std::string WireImage(double count) {
  return std::string(MakeSynopsis(count).flat()->image());
}

/// What a replica restarted on `spooled` would serve for /A.
double RestartedEstimate(const std::string& spooled) {
  SynopsisStore restarted;
  auto reloaded = restarted.LoadFile("c", spooled);
  EXPECT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  return reloaded.ok() ? FlatEstimate(*reloaded.value(), "/A") : -1.0;
}

/// Spool temp files of `name` still in the spool dir.
size_t LeftoverTempFiles(const std::string& dir, const std::string& name) {
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(name + ".xcsf.tmp.", 0) == 0) {
      ++count;
    }
  }
  return count;
}

TEST(SynopsisStoreTest, RejectedCorruptPushLeavesTheSpoolFile) {
  const std::string dir = testing::TempDir();
  const std::string good = WireImage(2.0);
  SynopsisStore store;
  store.SetSpoolDir(dir);
  ASSERT_TRUE(store.InstallFromWire("corrupt_push", good, "peer", 0).ok());

  std::string corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0x01;
  auto pushed = store.InstallFromWire("corrupt_push", corrupt, "peer", 0);
  ASSERT_FALSE(pushed.ok());
  EXPECT_EQ(pushed.status().code(), Status::Code::kCorruption);
  EXPECT_EQ(FlatEstimate(*store.Get("corrupt_push"), "/A"), 2.0);
  // The spool file still holds the served image, so a restart serves it
  // too instead of failing on the rejected bytes.
  const std::string spooled = dir + "/corrupt_push.xcsf";
  Result<std::string> on_disk = ReadFileToString(spooled);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_TRUE(on_disk.value() == good);
  EXPECT_EQ(RestartedEstimate(spooled), 2.0);
  EXPECT_EQ(LeftoverTempFiles(dir, "corrupt_push"), 0u);
}

TEST(SynopsisStoreTest, RejectedStalePushLeavesTheSpoolFile) {
  const std::string dir = testing::TempDir();
  SynopsisStore store;
  store.SetSpoolDir(dir);
  ASSERT_TRUE(store.InstallFromWire("stale_push", WireImage(5.0), "peer", 5)
                  .ok());
  auto stale = store.InstallFromWire("stale_push", WireImage(3.0), "peer", 3);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(store.Get("stale_push")->generation(), 5u);
  // A restart must not roll the replica back to the refused generation.
  EXPECT_EQ(RestartedEstimate(dir + "/stale_push.xcsf"), 5.0);
  EXPECT_EQ(LeftoverTempFiles(dir, "stale_push"), 0u);
}

TEST(SynopsisStoreTest, ConcurrentPushesSpoolWhatTheCatalogServes) {
  const std::string dir = testing::TempDir();
  SynopsisStore store;
  store.SetSpoolDir(dir);
  constexpr int kThreads = 4;
  constexpr int kPushesPerThread = 8;
  std::vector<std::thread> pushers;
  for (int t = 0; t < kThreads; ++t) {
    pushers.emplace_back([&store, t] {
      for (int i = 0; i < kPushesPerThread; ++i) {
        // Interleaved generations, so pushes race and some go stale.
        const uint64_t generation =
            static_cast<uint64_t>(i * kThreads + (kThreads - t));
        (void)store.InstallFromWire("racing_push",
                                    WireImage(static_cast<double>(generation)),
                                    "peer", generation);
      }
    });
  }
  for (std::thread& pusher : pushers) pusher.join();
  const auto served = store.Get("racing_push");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->generation(),
            static_cast<uint64_t>(kThreads * kPushesPerThread));
  EXPECT_EQ(RestartedEstimate(dir + "/racing_push.xcsf"),
            FlatEstimate(*served, "/A"));
  EXPECT_EQ(LeftoverTempFiles(dir, "racing_push"), 0u);
}

}  // namespace
}  // namespace xcluster
