#include "summaries/pst.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/imdb.h"
#include "data/treebank.h"
#include "data/xmark.h"
#include "oracle/pst_prune.h"
#include "synopsis/reference.h"

namespace xcluster {
namespace {

/// True number of strings containing `qs`.
double TrueCount(const std::vector<std::string>& strings,
                 std::string_view qs) {
  double count = 0.0;
  for (const std::string& s : strings) {
    if (s.find(qs) != std::string::npos) count += 1.0;
  }
  return count;
}

TEST(PstTest, EmptyTree) {
  Pst pst;
  EXPECT_EQ(pst.total(), 0.0);
  EXPECT_EQ(pst.node_count(), 0u);
  EXPECT_EQ(pst.SizeBytes(), 0u);
  EXPECT_EQ(pst.EstimateCount("x"), 0.0);
}

TEST(PstTest, NoStrings) {
  Pst pst = Pst::Build({}, 4);
  EXPECT_EQ(pst.total(), 0.0);
  EXPECT_EQ(pst.Selectivity("a"), 0.0);
}

TEST(PstTest, ExactCountsForStoredSubstrings) {
  std::vector<std::string> strings = {"abc", "abd", "bc"};
  Pst pst = Pst::Build(strings, 4);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("a"), 2.0);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("b"), 3.0);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("bc"), 2.0);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("abc"), 1.0);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("abd"), 1.0);
}

TEST(PstTest, PresenceCountsNotOccurrenceCounts) {
  // "aaa" contains "a" three times but counts once.
  Pst pst = Pst::Build({"aaa"}, 3);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("a"), 1.0);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("aa"), 1.0);
}

TEST(PstTest, AbsentSymbolGivesZero) {
  Pst pst = Pst::Build({"abc"}, 3);
  EXPECT_EQ(pst.EstimateCount("xyz"), 0.0);
  EXPECT_EQ(pst.EstimateCount("ax"), 0.0);
}

TEST(PstTest, EmptyQueryMatchesEverything) {
  Pst pst = Pst::Build({"ab", "cd"}, 2);
  EXPECT_DOUBLE_EQ(pst.EstimateCount(""), 2.0);
  EXPECT_DOUBLE_EQ(pst.Selectivity(""), 1.0);
}

TEST(PstTest, MarkovEstimateForLongQueries) {
  // Depth-2 tree; the query "abc" requires a Markov extension step.
  std::vector<std::string> strings = {"abc", "abc", "abc", "abd"};
  Pst pst = Pst::Build(strings, 2);
  double estimate = pst.EstimateCount("abc");
  // P(ab) = 1, P(c | b) = C(bc)/C(b) = 3/4 -> estimate = 3.
  EXPECT_NEAR(estimate, 3.0, 1e-9);
}

TEST(PstTest, EstimateNeverExceedsTotal) {
  std::vector<std::string> strings = {"aaaa", "aaab", "aaba"};
  Pst pst = Pst::Build(strings, 2);
  EXPECT_LE(pst.EstimateCount("aaaa"), 3.0 + 1e-9);
}

TEST(PstTest, MonotonicityParentAtLeastChild) {
  std::vector<std::string> strings = {"hello", "help", "hold", "heap"};
  Pst pst = Pst::Build(strings, 4);
  EXPECT_GE(pst.EstimateCount("he"), pst.EstimateCount("hel"));
  EXPECT_GE(pst.EstimateCount("h"), pst.EstimateCount("he"));
}

TEST(PstTest, MergeSumsCounts) {
  Pst a = Pst::Build({"abc", "abd"}, 3);
  Pst b = Pst::Build({"abc", "xyz"}, 3);
  Pst merged = Pst::Merge(a, b);
  EXPECT_DOUBLE_EQ(merged.total(), 4.0);
  EXPECT_DOUBLE_EQ(merged.EstimateCount("abc"), 2.0);
  EXPECT_DOUBLE_EQ(merged.EstimateCount("ab"), 3.0);
  EXPECT_DOUBLE_EQ(merged.EstimateCount("xyz"), 1.0);
}

TEST(PstTest, MergeWithEmpty) {
  Pst a = Pst::Build({"ab"}, 2);
  Pst merged = Pst::Merge(a, Pst());
  EXPECT_DOUBLE_EQ(merged.EstimateCount("ab"), 1.0);
}

TEST(PstTest, PruneReducesNodesButKeepsSymbols) {
  std::vector<std::string> strings = {"abcdef", "abcxyz", "qrs"};
  Pst pst = Pst::Build(strings, 5);
  size_t before = pst.node_count();
  pst.Prune(before / 2);
  EXPECT_LT(pst.node_count(), before);
  // Depth-1 nodes survive: every symbol still yields a non-zero estimate.
  for (char c : std::string("abcdefxyzqrs")) {
    EXPECT_GT(pst.EstimateCount(std::string(1, c)), 0.0) << c;
  }
}

TEST(PstTest, PruneToMinimumLeavesDepthOne) {
  Pst pst = Pst::Build({"abc"}, 3);
  pst.Prune(1000);
  EXPECT_FALSE(pst.CanPrune());
  // Only depth-1 nodes remain: a, b, c.
  EXPECT_EQ(pst.node_count(), 3u);
}

TEST(PstTest, PrunedCopyLeavesOriginalIntact) {
  Pst pst = Pst::Build({"abcd", "abce"}, 4);
  size_t before = pst.node_count();
  Pst pruned = pst.Pruned(3);
  EXPECT_EQ(pst.node_count(), before);
  EXPECT_EQ(pruned.node_count(), before - 3);
}

TEST(PstTest, PrunePrefersRedundantLeaves) {
  // Strings where "ab" always extends to "abc": pruning "abc"'s leaf is
  // nearly free (the Markov estimate reconstructs it), while "xq" vs "xr"
  // leaves carry real information.
  std::vector<std::string> strings;
  for (int i = 0; i < 10; ++i) strings.push_back("abc");
  for (int i = 0; i < 5; ++i) strings.push_back("xq");
  for (int i = 0; i < 5; ++i) strings.push_back("xr");
  Pst pst = Pst::Build(strings, 3);
  Pst pruned = pst.Pruned(1);
  // After one pruning step, the estimate for "abc" should still be close.
  EXPECT_NEAR(pruned.EstimateCount("abc"), 10.0, 1.0);
}

TEST(PstTest, PruneByCountRemovesLowCountLeavesFirst) {
  std::vector<std::string> strings;
  for (int i = 0; i < 20; ++i) strings.push_back("abc");
  strings.push_back("xyz");  // low-count branch
  Pst pst = Pst::Build(strings, 3);
  Pst pruned = pst;
  pruned.PruneByCount(2);
  // The rare leaves ("xyz"-specific depth >= 2 nodes) go first; the
  // heavily supported "abc" path survives intact.
  EXPECT_DOUBLE_EQ(pruned.EstimateCount("abc"), 20.0);
  EXPECT_LT(pruned.node_count(), pst.node_count());
}

TEST(PstTest, PruneByCountKeepsDepthOneNodes) {
  Pst pst = Pst::Build({"abcd"}, 4);
  pst.PruneByCount(1000);
  EXPECT_EQ(pst.node_count(), 4u);  // a, b, c, d singles survive
}

TEST(PstTest, SampleSubstringsReturnsStoredStrings) {
  Pst pst = Pst::Build({"abc"}, 3);
  std::vector<std::string> sample = pst.SampleSubstrings(0);
  std::set<std::string> set(sample.begin(), sample.end());
  // All substrings of "abc" up to length 3.
  EXPECT_TRUE(set.count("a"));
  EXPECT_TRUE(set.count("ab"));
  EXPECT_TRUE(set.count("abc"));
  EXPECT_TRUE(set.count("bc"));
  EXPECT_TRUE(set.count("c"));
  EXPECT_EQ(set.size(), 6u);
}

TEST(PstTest, SampleSubstringsHonorsCap) {
  Pst pst = Pst::Build({"abcdefgh", "ijklmnop"}, 4);
  std::vector<std::string> sample = pst.SampleSubstrings(10);
  EXPECT_EQ(sample.size(), 10u);
}

TEST(PstTest, SizeBytesTracksNodes) {
  Pst pst = Pst::Build({"ab"}, 2);
  // Nodes: a, ab, b -> 3 nodes.
  EXPECT_EQ(pst.node_count(), 3u);
  EXPECT_EQ(pst.SizeBytes(), 4u + 3u * 9u);
}

TEST(PstTest, MaxDepthLimitsSubstrings) {
  Pst pst = Pst::Build({"abcdef"}, 2);
  // Substrings of length <= 2 only: 6 singles + 5 bigrams.
  EXPECT_EQ(pst.node_count(), 11u);
  EXPECT_EQ(pst.max_depth(), 2u);
}

TEST(PstTest, DumpRoundTrip) {
  Pst pst = Pst::Build({"abc", "abd", "xy"}, 3);
  Pst rebuilt =
      Pst::FromDump(pst.Dump(), pst.total(), pst.max_depth()).value();
  EXPECT_EQ(rebuilt.node_count(), pst.node_count());
  EXPECT_DOUBLE_EQ(rebuilt.EstimateCount("ab"), pst.EstimateCount("ab"));
  EXPECT_DOUBLE_EQ(rebuilt.EstimateCount("abc"), pst.EstimateCount("abc"));
  EXPECT_DOUBLE_EQ(rebuilt.EstimateCount("xy"), pst.EstimateCount("xy"));
}

// --- Observable order, pinned as literals --------------------------------
// Dump() order, pruning tie-breaks and the sampled strings follow the order
// in which children were inserted. These literals pin that order across
// changes to the node layout.

/// Dump() as "<parent><symbol><count>" entries, space-separated.
std::string DumpText(const Pst& pst) {
  std::string out;
  for (const Pst::DumpNode& node : pst.Dump()) {
    if (!out.empty()) out += ' ';
    char entry[64];
    std::snprintf(entry, sizeof(entry), "%d%c%.17g", node.parent, node.symbol,
                  node.count);
    out += entry;
  }
  return out;
}

/// Depth-3 trees over two small string sets, built in insertion order and
/// merged in symbol order.
Pst PinnedA() { return Pst::Build({"banana", "bandana", "cabana"}, 3); }
Pst PinnedB() { return Pst::Build({"canal", "nab", "panama"}, 3); }
Pst PinnedMerge() { return Pst::Merge(PinnedA(), PinnedB()); }

TEST(PstPinnedTest, BuildAndMergeDumps) {
  EXPECT_EQ(DumpText(PinnedA()),
            "-1b3 0a3 1n3 -1a3 3n3 4a3 4d1 3b1 7a1 -1n3 9a3 10n1 9d1 12a1 "
            "-1d1 14a1 15n1 -1c1 17a1 18b1");
  EXPECT_EQ(DumpText(PinnedB()),
            "-1c1 0a1 1n1 -1a3 3n2 4a2 3l1 3b1 3m1 8a1 -1n3 10a3 11l1 11b1 "
            "11m1 -1l1 -1b1 -1p1 17a1 18n1 -1m1 20a1");
  EXPECT_EQ(DumpText(PinnedMerge()),
            "-1a6 0b2 1a1 0l1 0m1 4a1 0n5 6a5 6d1 -1b4 9a3 10n3 -1c2 12a2 "
            "13b1 13n1 -1d1 16a1 17n1 -1l1 -1m1 20a1 -1n6 22a6 23b1 23l1 "
            "23m1 23n1 22d1 28a1 -1p1 30a1 31n1");
}

TEST(PstPinnedTest, PruneDumps) {
  const std::vector<std::pair<size_t, std::string>> merged = {
      {1,
       "-1a6 0b2 1a1 0l1 0m1 4a1 0n5 6a5 6d1 -1b4 9a3 10n3 -1c2 12a2 13b1 "
       "13n1 -1d1 16a1 17n1 -1l1 -1m1 20a1 -1n6 22a6 23b1 23l1 23m1 23n1 "
       "22d1 -1p1 29a1 30n1"},
      {4,
       "-1a6 0b2 1a1 0l1 0m1 4a1 0n5 6a5 6d1 -1b4 9a3 10n3 -1c2 12a2 13b1 "
       "13n1 -1d1 16a1 17n1 -1l1 -1m1 20a1 -1n6 22a6 23b1 23n1 -1p1 26a1 "
       "27n1"},
      {9,
       "-1a6 0b2 1a1 0n5 3d1 -1b4 5a3 6n3 -1c2 8a2 9b1 9n1 -1d1 12a1 13n1 "
       "-1l1 -1m1 -1n6 17a6 18b1 18n1 -1p1 21a1 22n1"},
      {20, "-1a6 0b2 0n5 -1b4 3a3 -1c2 -1d1 -1l1 -1m1 -1n6 9a6 10n1 -1p1"},
  };
  for (const auto& [k, expected] : merged) {
    Pst pst = PinnedMerge();
    pst.Prune(k);
    EXPECT_EQ(DumpText(pst), expected) << "merged, Prune(" << k << ")";
  }
  const std::vector<std::pair<size_t, std::string>> built = {
      {3,
       "-1b3 -1a3 1n3 2d1 1b1 4a1 -1n3 6a3 7n1 6d1 9a1 -1d1 11a1 12n1 -1c1 "
       "14a1 15b1"},
      {8, "-1b3 -1a3 1b1 2a1 -1n3 4a3 5n1 -1d1 7a1 -1c1 9a1 10b1"},
  };
  for (const auto& [k, expected] : built) {
    Pst pst = PinnedA();
    pst.Prune(k);
    EXPECT_EQ(DumpText(pst), expected) << "built, Prune(" << k << ")";
  }
  EXPECT_EQ(DumpText(PinnedA().Pruned(5)),
            "-1b3 -1a3 1b1 2a1 -1n3 4a3 5n1 4d1 7a1 -1d1 9a1 10n1 -1c1 12a1 "
            "13b1");
}

TEST(PstPinnedTest, PruneByCountDumps) {
  const std::vector<std::pair<size_t, std::string>> merged = {
      {1,
       "-1a6 0b2 1a1 0l1 0m1 4a1 0n5 6a5 6d1 -1b4 9a3 10n3 -1c2 12a2 13b1 "
       "13n1 -1d1 16a1 17n1 -1l1 -1m1 20a1 -1n6 22a6 23b1 23l1 23m1 23n1 "
       "22d1 28a1 -1p1 30a1"},
      {4,
       "-1a6 0b2 1a1 0l1 0m1 4a1 0n5 6a5 6d1 -1b4 9a3 10n3 -1c2 12a2 13b1 "
       "13n1 -1d1 16a1 17n1 -1l1 -1m1 20a1 -1n6 22a6 23b1 23l1 23m1 23n1 "
       "-1p1"},
      {9,
       "-1a6 0b2 1a1 0l1 0m1 4a1 0n5 6a5 6d1 -1b4 9a3 10n3 -1c2 12a2 13b1 "
       "13n1 -1d1 16a1 17n1 -1l1 -1m1 -1n6 21a6 -1p1"},
      {20, "-1a6 0n5 1a5 -1b4 3a3 4n3 -1c2 -1d1 -1l1 -1m1 -1n6 10a6 -1p1"},
  };
  for (const auto& [k, expected] : merged) {
    Pst pst = PinnedMerge();
    pst.PruneByCount(k);
    EXPECT_EQ(DumpText(pst), expected) << "merged, PruneByCount(" << k << ")";
  }
  const std::vector<std::pair<size_t, std::string>> built = {
      {3,
       "-1b3 0a3 1n3 -1a3 3n3 4a3 3b1 6a1 -1n3 8a3 8d1 -1d1 11a1 12n1 -1c1 "
       "14a1 15b1"},
      {8, "-1b3 0a3 1n3 -1a3 3n3 4a3 3b1 6a1 -1n3 8a3 -1d1 -1c1"},
  };
  for (const auto& [k, expected] : built) {
    Pst pst = PinnedA();
    pst.PruneByCount(k);
    EXPECT_EQ(DumpText(pst), expected) << "built, PruneByCount(" << k << ")";
  }
}

TEST(PstPinnedTest, SampleSubstrings) {
  using Strings = std::vector<std::string>;
  // Every string, depth first.
  EXPECT_EQ(PinnedA().SampleSubstrings(0),
            (Strings{"c", "ca", "cab", "d", "da", "dan", "n", "nd", "nda",
                     "na", "nan", "a", "ab", "aba", "an", "and", "ana", "b",
                     "ba", "ban"}));
  // Caps below the node count: a stride sample in (length, string) order.
  EXPECT_EQ(PinnedA().SampleSubstrings(7),
            (Strings{"a", "c", "ab", "ca", "nd", "and", "dan"}));
  EXPECT_EQ(PinnedMerge().SampleSubstrings(12),
            (Strings{"a", "c", "m", "ab", "an", "ca", "na", "aba", "and",
                     "cab", "nab", "nan"}));
  Pst pruned = PinnedMerge();
  pruned.Prune(9);
  EXPECT_EQ(pruned.SampleSubstrings(10),
            (Strings{"a", "c", "l", "p", "an", "da", "pa", "and", "can",
                     "nab"}));
}

/// Property sweep over random string collections: stored substrings are
/// counted exactly; estimates stay within [0, total]; pruning degrades
/// gracefully (never crashes, preserves monotonic bounds).
class PstPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PstPropertyTest, ExactnessAndBounds) {
  Rng rng(GetParam());
  std::vector<std::string> strings;
  const char alphabet[] = "abcd";
  for (int i = 0; i < 60; ++i) {
    std::string s;
    size_t len = 1 + rng.Uniform(8);
    for (size_t j = 0; j < len; ++j) {
      s += alphabet[rng.Uniform(4)];
    }
    strings.push_back(std::move(s));
  }
  Pst pst = Pst::Build(strings, 4);

  // Every substring of every string up to depth 4 is counted exactly.
  std::set<std::string> checked;
  for (const std::string& s : strings) {
    for (size_t i = 0; i < s.size(); ++i) {
      for (size_t len = 1; len <= 4 && i + len <= s.size(); ++len) {
        std::string sub = s.substr(i, len);
        if (!checked.insert(sub).second) continue;
        EXPECT_DOUBLE_EQ(pst.EstimateCount(sub), TrueCount(strings, sub))
            << sub;
      }
    }
  }

  // Longer queries: estimates bounded by [0, total].
  for (int i = 0; i < 50; ++i) {
    std::string q;
    size_t len = 5 + rng.Uniform(4);
    for (size_t j = 0; j < len; ++j) q += alphabet[rng.Uniform(4)];
    double estimate = pst.EstimateCount(q);
    EXPECT_GE(estimate, 0.0);
    EXPECT_LE(estimate, pst.total() + 1e-9);
  }

  // Prune half the nodes; single symbols still estimated exactly (their
  // depth-1 nodes are protected).
  Pst pruned = pst.Pruned(pst.node_count() / 2);
  for (char c : std::string("abcd")) {
    std::string q(1, c);
    EXPECT_DOUBLE_EQ(pruned.EstimateCount(q), TrueCount(strings, q));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PstPropertyTest,
                         ::testing::Values(7, 11, 19, 23, 31, 43));

// --- Cached pruning errors, sort-free sampling and carried Markov contexts
// against PstOracle ----------------------------------------------------------

/// Dumps agree entry by entry, counts bit for bit.
::testing::AssertionResult SameDump(const Pst& actual, const Pst& expected) {
  const std::vector<Pst::DumpNode> a = actual.Dump();
  const std::vector<Pst::DumpNode> e = expected.Dump();
  if (a.size() != e.size()) {
    return ::testing::AssertionFailure()
           << "dump sizes " << a.size() << " vs " << e.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].parent != e[i].parent || a[i].symbol != e[i].symbol ||
        std::memcmp(&a[i].count, &e[i].count, sizeof(double)) != 0) {
      return ::testing::AssertionFailure() << "dump entry " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// SampleSubstrings agrees with the sort-based oracle at every cap.
::testing::AssertionResult SameSamples(const Pst& pst) {
  for (size_t cap : {0, 1, 8, 16, 128, 400}) {
    if (pst.SampleSubstrings(cap) != PstOracle::SampleSubstrings(pst, cap)) {
      return ::testing::AssertionFailure() << "sample differs at cap " << cap;
    }
  }
  return ::testing::AssertionSuccess();
}

/// EstimateCount agrees bit for bit with the oracle's walk-everything
/// estimate on every stored substring, on 100 random probes over the
/// tree's symbols plus one it lacks, and on 100 chains of two to four
/// stored substrings (so most probes take Markov steps through stored
/// contexts).
::testing::AssertionResult SameEstimates(const Pst& pst, uint64_t seed) {
  const std::vector<std::string> stored = pst.SampleSubstrings(0);
  std::vector<std::string> queries = stored;
  std::string alphabet = "\x01";
  for (const std::string& s : stored) {
    if (s.size() == 1) alphabet += s;
  }
  Rng rng(seed);
  for (int probe = 0; probe < 100; ++probe) {
    std::string q;
    const size_t len = 1 + rng.Uniform(pst.max_depth() + 4);
    for (size_t j = 0; j < len; ++j) {
      q += alphabet[rng.Uniform(alphabet.size())];
    }
    queries.push_back(std::move(q));
  }
  for (int probe = 0; probe < 100 && !stored.empty(); ++probe) {
    std::string q;
    const size_t parts = 2 + rng.Uniform(3);
    for (size_t k = 0; k < parts; ++k) {
      q += stored[rng.Uniform(stored.size())];
    }
    queries.push_back(std::move(q));
  }
  for (const std::string& q : queries) {
    const double actual = pst.EstimateCount(q);
    const double expected = PstOracle::EstimateCount(pst, q);
    if (std::memcmp(&actual, &expected, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "estimate of \"" << q << "\": " << actual << " vs "
             << expected;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Prunes `start` down to its depth-1 nodes the way phase 2 compresses a
/// string summary: every step copies the tree, prunes `step` leaves off the
/// copy and keeps the copy, so cached errors ride along from step to step.
/// The oracle prunes its own copies from `start` without a cache; the two
/// must Dump() the same and sample the same after every step.
void CheckPruneChain(const Pst& start, size_t step, const std::string& name) {
  ASSERT_TRUE(SameSamples(start)) << name;
  ASSERT_TRUE(SameEstimates(start, step)) << name;
  Pst cached = start;
  Pst oracle = start;
  for (int i = 0; cached.CanPrune(); ++i) {
    Pst next = cached;
    next.Prune(step);
    cached = next;
    Pst oracle_next = oracle;
    PstOracle::Prune(&oracle_next, step);
    oracle = oracle_next;
    ASSERT_TRUE(SameDump(cached, oracle)) << name << " step " << i;
    ASSERT_TRUE(SameSamples(cached)) << name << " step " << i;
    ASSERT_TRUE(SameEstimates(cached, i)) << name << " step " << i;
  }
  EXPECT_FALSE(oracle.CanPrune()) << name;
}

/// The string summaries of a generated dataset's reference synopsis.
std::vector<Pst> DatasetPsts(const GeneratedDataset& dataset) {
  ReferenceOptions options;
  options.value_paths = dataset.value_paths;
  GraphSynopsis reference = BuildReferenceSynopsis(dataset.doc, options);
  std::vector<Pst> psts;
  for (SynNodeId id : reference.AliveNodes()) {
    const ValueSummary& vsumm = reference.node(id).vsumm;
    if (vsumm.type() == ValueType::kString) psts.push_back(vsumm.pst());
  }
  return psts;
}

void CheckDatasetChains(const GeneratedDataset& dataset) {
  std::vector<Pst> psts = DatasetPsts(dataset);
  ASSERT_FALSE(psts.empty()) << dataset.name;
  for (size_t i = 0; i < psts.size(); ++i) {
    const std::string name = dataset.name + " pst " + std::to_string(i);
    const size_t step = std::max<size_t>(1, psts[i].node_count() / 12);
    CheckPruneChain(psts[i], step, name);
  }
}

/// FromDump(Dump(x)) estimates exactly what x estimates: on every stored
/// substring and on 200 random probes over x's symbols plus one it lacks.
void CheckDumpRoundTrips(const GeneratedDataset& dataset) {
  std::vector<Pst> psts = DatasetPsts(dataset);
  ASSERT_FALSE(psts.empty()) << dataset.name;
  Rng rng(0x9e37);
  for (size_t i = 0; i < psts.size(); ++i) {
    const Pst& pst = psts[i];
    const std::string name = dataset.name + " pst " + std::to_string(i);
    Result<Pst> rebuilt =
        Pst::FromDump(pst.Dump(), pst.total(), pst.max_depth());
    ASSERT_TRUE(rebuilt.ok()) << name << ": " << rebuilt.status().ToString();
    const Pst& copy = rebuilt.value();
    ASSERT_TRUE(SameDump(copy, pst)) << name;
    const std::vector<std::string> stored = pst.SampleSubstrings(0);
    for (const std::string& s : stored) {
      EXPECT_EQ(copy.EstimateCount(s), pst.EstimateCount(s)) << name << " " << s;
    }
    std::string alphabet = "\x01";
    for (const std::string& s : stored) {
      if (s.size() == 1) alphabet += s;
    }
    for (int probe = 0; probe < 200; ++probe) {
      std::string q;
      const size_t len = 1 + rng.Uniform(pst.max_depth() + 3);
      for (size_t j = 0; j < len; ++j) {
        q += alphabet[rng.Uniform(alphabet.size())];
      }
      EXPECT_EQ(copy.EstimateCount(q), pst.EstimateCount(q)) << name << " " << q;
    }
  }
}

TEST(PstDumpRoundTripTest, XMark) {
  XMarkOptions options;
  options.scale = 0.05;
  CheckDumpRoundTrips(GenerateXMark(options));
}

TEST(PstDumpRoundTripTest, Imdb) {
  ImdbOptions options;
  options.scale = 0.05;
  CheckDumpRoundTrips(GenerateImdb(options));
}

TEST(PstDumpRoundTripTest, Treebank) {
  TreebankOptions options;
  options.scale = 0.05;
  CheckDumpRoundTrips(GenerateTreebank(options));
}

TEST(PstOracleTest, XMarkChainsMatchOracle) {
  XMarkOptions options;
  options.scale = 0.05;
  CheckDatasetChains(GenerateXMark(options));
}

TEST(PstOracleTest, ImdbChainsMatchOracle) {
  ImdbOptions options;
  options.scale = 0.05;
  CheckDatasetChains(GenerateImdb(options));
}

TEST(PstOracleTest, TreebankChainsMatchOracle) {
  TreebankOptions options;
  options.scale = 0.05;
  CheckDatasetChains(GenerateTreebank(options));
}

/// Random byte strings over a small alphabet that mixes ASCII with bytes
/// >= 0x80 and NUL, so unsigned and signed symbol order differ and packed
/// strings carry zero bytes.
std::vector<std::string> RandomByteStrings(Rng* rng, size_t count) {
  const unsigned char alphabet[] = {'a', 'b', 'c', 0x00, 0x7f,
                                    0x80, 0xc3, 0xfe, 0xff};
  std::vector<std::string> strings;
  for (size_t i = 0; i < count; ++i) {
    std::string s;
    const size_t len = 1 + rng->Uniform(12);
    for (size_t j = 0; j < len; ++j) {
      s += static_cast<char>(alphabet[rng->Uniform(sizeof(alphabet))]);
    }
    strings.push_back(std::move(s));
  }
  return strings;
}

class PstRandomOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PstRandomOracleTest, ChainsMatchOracle) {
  Rng rng(GetParam());
  const size_t depth = 2 + GetParam() % 6;  // 2..7
  const std::string name = "depth " + std::to_string(depth);
  Pst small = Pst::Build(RandomByteStrings(&rng, 12), depth);
  CheckPruneChain(small, 1, name + " step 1");
  Pst large = Pst::Build(RandomByteStrings(&rng, 60), depth);
  CheckPruneChain(large, 1 + large.node_count() / 10, name + " step n/10");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PstRandomOracleTest,
                         ::testing::Range<uint64_t>(1, 25));

// Decoded trees need not keep counts monotone or positive: a context or
// extension may be stored with a count <= 0, or an extension may outcount
// its context. Pruned trees need not store every suffix of a stored
// string. The estimate must still match the oracle's.
TEST(PstOracleTest, EstimatesMatchOracleOnArbitraryCounts) {
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed);
    Pst built = Pst::Build(RandomByteStrings(&rng, 40), 3 + seed % 6);
    if (seed % 2 == 0) built.Prune(built.node_count() / 3);
    std::vector<Pst::DumpNode> dump = built.Dump();
    for (Pst::DumpNode& node : dump) {
      switch (rng.Uniform(6)) {
        case 0:
          node.count = 0.0;
          break;
        case 1:
          node.count = -1.0;
          break;
        case 2:
          node.count *= 5.0;
          break;
        default:
          break;
      }
    }
    Result<Pst> pst = Pst::FromDump(dump, built.total(), built.max_depth());
    ASSERT_TRUE(pst.ok()) << pst.status().ToString();
    for (uint64_t probes = 0; probes < 4; ++probes) {
      EXPECT_TRUE(SameEstimates(pst.value(), seed * 4 + probes))
          << "seed " << seed;
    }
  }
}

// Strings deeper than 8 symbols do not fit the cache's packed keys.
TEST(PstOracleTest, DeepTreesMatchOracle) {
  for (size_t depth : {9, 12}) {
    Rng rng(depth);
    Pst pst = Pst::Build(RandomByteStrings(&rng, 24), depth);
    CheckPruneChain(pst, 4, "depth " + std::to_string(depth));
  }
}

}  // namespace
}  // namespace xcluster
