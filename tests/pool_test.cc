#include "build/pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "data/imdb.h"
#include "data/treebank.h"
#include "data/xmark.h"
#include "oracle/merge_loop.h"
#include "oracle/merge_score.h"
#include "synopsis/reference.h"

namespace xcluster {
namespace {

/// BuildPool with a scorer of its own.
std::vector<MergeCandidate> Pool(const GraphSynopsis& synopsis,
                                 size_t pool_max, uint32_t level_cap,
                                 const DeltaOptions& options = DeltaOptions(),
                                 size_t pair_sample_cap = 0) {
  MergeScorer scorer(options);
  return BuildPool(synopsis, pool_max, level_cap, pair_sample_cap, &scorer);
}

/// Root with several leaf children in two label groups.
GraphSynopsis MakeSynopsis() {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  for (int i = 0; i < 4; ++i) {
    SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 2.0 + i);
    synopsis.AddEdge(root, a, 2.0 + i);
  }
  for (int i = 0; i < 3; ++i) {
    SynNodeId b = synopsis.AddNode("B", ValueType::kNone, 5.0);
    synopsis.AddEdge(root, b, 5.0);
  }
  return synopsis;
}

TEST(PoolTest, EnumeratesCompatiblePairsOnly) {
  GraphSynopsis synopsis = MakeSynopsis();
  std::vector<MergeCandidate> pool = Pool(synopsis, 100, 0);
  // A-pairs: C(4,2)=6; B-pairs: C(3,2)=3. The root (level 1) is excluded.
  EXPECT_EQ(pool.size(), 9u);
  for (const MergeCandidate& candidate : pool) {
    EXPECT_EQ(synopsis.node(candidate.u).label,
              synopsis.node(candidate.v).label);
  }
}

TEST(PoolTest, LevelFilterExcludesHighNodes) {
  GraphSynopsis synopsis = MakeSynopsis();
  // Add a second root-level A so that level-1 nodes exist in group A.
  SynNodeId root = synopsis.root();
  SynNodeId mid = synopsis.AddNode("A", ValueType::kNone, 1.0);
  SynNodeId leaf = synopsis.AddNode("L", ValueType::kNone, 1.0);
  synopsis.AddEdge(root, mid, 1.0);
  synopsis.AddEdge(mid, leaf, 1.0);
  std::vector<MergeCandidate> level0 = Pool(synopsis, 100, 0);
  std::vector<MergeCandidate> level1 = Pool(synopsis, 100, 1);
  // At level 1 the extra A (level 1) pairs with the four leaf As.
  EXPECT_EQ(level0.size(), 9u);
  EXPECT_EQ(level1.size(), 13u);
}

TEST(PoolTest, PoolMaxKeepsBestCandidates) {
  GraphSynopsis synopsis = MakeSynopsis();
  std::vector<MergeCandidate> full = Pool(synopsis, 100, 0);
  std::vector<MergeCandidate> capped = Pool(synopsis, 3, 0);
  EXPECT_EQ(capped.size(), 3u);
  // Every retained candidate is at least as good as the worst overall.
  double worst_full = 0.0;
  for (const MergeCandidate& candidate : full) {
    worst_full = std::max(worst_full, candidate.ratio());
  }
  for (const MergeCandidate& candidate : capped) {
    EXPECT_LE(candidate.ratio(), worst_full + 1e-12);
  }
}

TEST(PoolTest, TypeMismatchExcluded) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a1 = synopsis.AddNode("A", ValueType::kNumeric, 1.0);
  SynNodeId a2 = synopsis.AddNode("A", ValueType::kString, 1.0);
  synopsis.AddEdge(root, a1, 1.0);
  synopsis.AddEdge(root, a2, 1.0);
  EXPECT_TRUE(Pool(synopsis, 100, 0).empty());
}

TEST(PoolTest, DeadNodesExcluded) {
  GraphSynopsis synopsis = MakeSynopsis();
  // Merge two As; the pool must not reference the dead originals.
  std::vector<MergeCandidate> pool = Pool(synopsis, 100, 0);
  synopsis.MergeNodes(pool[0].u, pool[0].v);
  std::vector<MergeCandidate> after = Pool(synopsis, 100, 0);
  for (const MergeCandidate& candidate : after) {
    EXPECT_TRUE(synopsis.node(candidate.u).alive);
    EXPECT_TRUE(synopsis.node(candidate.v).alive);
  }
  // A-group shrank to 3 members: C(3,2)=3 plus B's 3.
  EXPECT_EQ(after.size(), 6u);
}

TEST(PoolTest, PairSamplingCapBoundsEvaluations) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  for (int i = 0; i < 40; ++i) {
    SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 1.0);
    synopsis.AddEdge(root, a, 1.0);
  }
  // 780 possible pairs, sampled down to ~100.
  std::vector<MergeCandidate> pool =
      Pool(synopsis, 10000, 0, DeltaOptions(), 100);
  EXPECT_LE(pool.size(), 150u);
  EXPECT_GE(pool.size(), 50u);
}

TEST(PoolTest, EvaluateCandidateRecordsVersions) {
  GraphSynopsis synopsis = MakeSynopsis();
  std::vector<MergeCandidate> pool = Pool(synopsis, 100, 0);
  MergeScorer scorer{DeltaOptions()};
  MergeCandidate refreshed =
      EvaluateCandidate(synopsis, pool[0].u, pool[0].v, &scorer);
  EXPECT_EQ(refreshed.version_u, synopsis.node(pool[0].u).version);
  EXPECT_EQ(refreshed.version_v, synopsis.node(pool[0].v).version);
  EXPECT_GT(refreshed.savings, 0u);
}

TEST(PoolTest, IdenticalNodesRankFirst) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId c = synopsis.AddNode("C", ValueType::kNone, 40.0);
  // Two identical As and one divergent A.
  SynNodeId a1 = synopsis.AddNode("A", ValueType::kNone, 4.0);
  SynNodeId a2 = synopsis.AddNode("A", ValueType::kNone, 4.0);
  SynNodeId a3 = synopsis.AddNode("A", ValueType::kNone, 4.0);
  synopsis.AddEdge(root, a1, 4.0);
  synopsis.AddEdge(root, a2, 4.0);
  synopsis.AddEdge(root, a3, 4.0);
  synopsis.AddEdge(a1, c, 2.0);
  synopsis.AddEdge(a2, c, 2.0);
  synopsis.AddEdge(a3, c, 6.0);
  std::vector<MergeCandidate> pool = Pool(synopsis, 100, 1);
  ASSERT_EQ(pool.size(), 3u);
  auto best = std::min_element(
      pool.begin(), pool.end(),
      [](const MergeCandidate& x, const MergeCandidate& y) {
        return x.ratio() < y.ratio();
      });
  EXPECT_TRUE((best->u == a1 && best->v == a2) ||
              (best->u == a2 && best->v == a1));
  EXPECT_NEAR(best->delta, 0.0, 1e-12);
}

/// Every pair BuildPool scores over `reference`, at every level cap, is
/// scored bit-identically to the map-based oracle: the same delta double
/// and the same byte savings. Sampling is capped as the builder caps it.
void ExpectPoolMatchesOracle(const GraphSynopsis& reference) {
  std::vector<uint32_t> levels = reference.ComputeLevels();
  uint32_t max_level = 0;
  for (SynNodeId id : reference.AliveNodes()) {
    max_level = std::max(max_level, levels[id]);
  }
  for (const bool use_values : {true, false}) {
    DeltaOptions options;
    options.use_value_summaries = use_values;
    for (uint32_t level_cap = 0; level_cap <= max_level; ++level_cap) {
      std::vector<MergeCandidate> pool =
          Pool(reference, std::numeric_limits<size_t>::max(), level_cap,
               options, /*pair_sample_cap=*/20000);
      for (const MergeCandidate& candidate : pool) {
        ASSERT_EQ(candidate.delta, OracleMergeDelta(reference, candidate.u,
                                                    candidate.v, options))
            << "level " << level_cap << " pair " << candidate.u << ","
            << candidate.v;
        ASSERT_EQ(candidate.savings,
                  OracleMergeSavings(reference, candidate.u, candidate.v))
            << "level " << level_cap << " pair " << candidate.u << ","
            << candidate.v;
      }
    }
  }
}

GraphSynopsis ReferenceOf(const GeneratedDataset& dataset) {
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  return BuildReferenceSynopsis(dataset.doc, ref_options);
}

TEST(PoolTest, XMarkScoresMatchOracle) {
  XMarkOptions options;
  options.scale = 0.05;
  ExpectPoolMatchesOracle(ReferenceOf(GenerateXMark(options)));
}

TEST(PoolTest, ImdbScoresMatchOracle) {
  ImdbOptions options;
  options.scale = 0.05;
  ExpectPoolMatchesOracle(ReferenceOf(GenerateImdb(options)));
}

TEST(PoolTest, TreebankScoresMatchOracle) {
  TreebankOptions options;
  options.scale = 0.05;
  ExpectPoolMatchesOracle(ReferenceOf(GenerateTreebank(options)));
}

/// The run queue pops what one std::priority_queue holding every candidate
/// pops, and counts the same unpopped candidates, over seeded interleavings
/// of runs of 0-200 candidates and bursts of pops. Ratios come from a few
/// values, so most ties fall to u and then v; v is unique, as a queued
/// pair's key is in the builder.
TEST(PoolTest, RunPoolPopsInHeapOrder) {
  for (const uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    Rng rng(seed);
    RunPool runs;
    std::priority_queue<MergeCandidate, std::vector<MergeCandidate>,
                        CandidateOrder>
        heap;
    SynNodeId next_v = 0;
    size_t pops = 0;
    auto pop_both = [&] {
      const RunPool::Entry got = runs.Pop();
      const MergeCandidate want = heap.top();
      heap.pop();
      ++pops;
      ASSERT_EQ(got.ratio, want.ratio()) << "seed " << seed << " pop " << pops;
      ASSERT_EQ(got.u, want.u) << "seed " << seed << " pop " << pops;
      ASSERT_EQ(got.v, want.v) << "seed " << seed << " pop " << pops;
      ASSERT_EQ(got.version_u, want.version_u);
      ASSERT_EQ(got.version_v, want.version_v);
    };
    for (int op = 0; op < 400; ++op) {
      const uint64_t roll = rng.Uniform(100);
      if (roll < 2) {
        runs.Clear();
        heap = {};
      } else if (roll < 45) {
        const size_t n = rng.Uniform(201);
        for (size_t i = 0; i < n; ++i) {
          MergeCandidate candidate;
          candidate.u = static_cast<SynNodeId>(rng.Uniform(40));
          candidate.v = next_v++;
          candidate.delta = static_cast<double>(rng.Uniform(4));
          candidate.savings = 16 * rng.Uniform(4);  // 0 reads as 1
          candidate.version_u = static_cast<uint32_t>(rng.Uniform(3));
          candidate.version_v = static_cast<uint32_t>(rng.Uniform(3));
          runs.Add(candidate);
          heap.push(candidate);
        }
        runs.CloseRun();
      } else {
        const size_t burst = 1 + rng.Uniform(150);
        for (size_t i = 0; i < burst && !heap.empty(); ++i) {
          ASSERT_FALSE(runs.empty());
          ASSERT_NO_FATAL_FAILURE(pop_both());
          ASSERT_EQ(runs.size(), heap.size());
        }
      }
      ASSERT_EQ(runs.size(), heap.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(runs.empty(), heap.empty()) << "seed " << seed << " op " << op;
    }
    while (!heap.empty()) {
      ASSERT_NO_FATAL_FAILURE(pop_both());
      ASSERT_EQ(runs.size(), heap.size());
    }
    EXPECT_TRUE(runs.empty());
    EXPECT_GT(pops, 10000u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace xcluster
