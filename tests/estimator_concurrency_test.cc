// Regression tests for concurrent use of one FlatEstimator, the engine
// every served snapshot shares across request threads. The descendant
// reach memo and the lazily decoded value summaries are shared mutable
// state; these tests drive descendant-heavy and predicate queries from
// many threads at once, hold every answer bit-identical to the
// graph-walking oracle in tests/oracle, and are part of the TSan suite in
// CI.
#include "estimate/flat_estimator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "build/builder.h"
#include "data/imdb.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_synopsis.h"
#include "oracle/xcluster_estimator.h"
#include "query/parser.h"
#include "storage/xcsf_writer.h"
#include "synopsis/graph.h"
#include "synopsis/reference.h"

namespace xcluster {
namespace {

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A deep chain R -> A -> B -> C -> D -> E with side branches, so `//`
/// steps require multi-hop reachability DP (cache-miss heavy on first
/// touch, cache-hit heavy afterwards).
GraphSynopsis MakeDeepSynopsis() {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId prev = r;
  double count = 4.0;
  for (const char* label : {"A", "B", "C", "D", "E"}) {
    SynNodeId node = synopsis.AddNode(label, ValueType::kNone, count);
    synopsis.AddEdge(prev, node, count);
    SynNodeId side =
        synopsis.AddNode(std::string(label) + "side", ValueType::kNone, 2.0);
    synopsis.AddEdge(node, side, 2.0);
    prev = node;
    count *= 2.0;
  }
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return synopsis;
}

const std::vector<std::string> kDescendantQueries = {
    "//E",       "//C//E",  "//A//D",     "//B//Eside", "/A//E",
    "//A//Cside", "//D",    "//A//B//C", "//Bside",    "//C//Dside",
};

TEST(EstimatorConcurrencyTest, ParallelDescendantQueriesMatchSerial) {
  GraphSynopsis synopsis = MakeDeepSynopsis();

  // Serial baseline from the oracle (cold cache).
  std::vector<double> expected;
  {
    XClusterEstimator oracle(synopsis);
    for (const std::string& query : kDescendantQueries) {
      expected.push_back(oracle.Estimate(MustParse(query)));
    }
  }
  // //E: the product of the chain's edge counts.
  EXPECT_EQ(expected[0], 4.0 * 8 * 16 * 32 * 64);

  // One shared estimator, many threads, repeated passes: the first pass
  // races cache fills, later passes race reads against late writers.
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  const FlatEstimator shared(flat);
  constexpr int kThreads = 8;
  constexpr int kPasses = 25;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different offset so writers collide.
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t i = 0; i < kDescendantQueries.size(); ++i) {
          const size_t index = (i + static_cast<size_t>(t)) %
                               kDescendantQueries.size();
          const double estimate = shared.Estimate(CompiledTwig::Compile(
              MustParse(kDescendantQueries[index]), flat));
          if (pass == 0) continue;  // warm-up
          got[t].push_back(estimate - expected[index]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (double delta : got[t]) {
      // Bit-identical to the oracle's cold-cache serial answer.
      EXPECT_EQ(delta, 0.0) << "thread " << t;
    }
  }
}

TEST(EstimatorConcurrencyTest, ExplainIsSafeAlongsideEstimate) {
  GraphSynopsis synopsis = MakeDeepSynopsis();
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  const FlatEstimator shared(flat);
  const TwigQuery query = MustParse("//C//E");
  const CompiledTwig probe = CompiledTwig::Compile(query, flat);
  const XClusterEstimator oracle(synopsis);
  const double expected = oracle.Estimate(query);
  const std::string expected_explanation = oracle.Explain(query).ToString();
  // 4*8*16 C elements under the root, each with 32*64 E descendants.
  EXPECT_EQ(expected, 4.0 * 8 * 16 * 32 * 64);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(shared.Estimate(probe), expected);
        EXPECT_EQ(shared.Explain(probe).ToString(), expected_explanation);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// A budget-built IMDB synopsis with `numeric` summaries on years and
/// ratings, PSTs on titles and names, and term histograms on plots.
GraphSynopsis MakeValueSynopsis(NumericSummaryKind numeric) {
  ImdbOptions options;
  options.scale = 0.02;
  const GeneratedDataset dataset = GenerateImdb(options);
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  ref_options.numeric_summary = numeric;
  const GraphSynopsis reference =
      BuildReferenceSynopsis(dataset.doc, ref_options);
  BuildOptions build_options;
  build_options.structural_budget = 4 * 1024;
  build_options.value_budget = reference.ValueBytes() / 2;
  return XClusterBuild(reference, build_options, nullptr);
}

const std::vector<std::string> kValueQueries = {
    "//year[range(1950,1980)]",
    "//movie[/rating[range(50,80)]]/year[range(1990,2010)]",
    "//series/year[range(1960,2000)]",
    "//title[contains(the)]",
    "//actor/name[contains(an)]",
    "//movie[/title[contains(of)]]/rating[range(0,60)]",
    "//plot[ftcontains(the)]",
    "//episode/plot[ftcontains(the)]",
    "//movie[/plot[ftcontains(the)]]/title[contains(a)]",
};

// Summaries decode lazily, on the first estimate that touches their pool
// entry, and are published by compare-and-swap: the only summary path.
// Eight threads start together on a freshly compiled synopsis, so their
// first touches of the same summaries race. Histogram and wavelet
// numeric summaries both; every answer equals the oracle's over the graph.
TEST(EstimatorConcurrencyTest, FirstTouchesOfLazySummariesRaceSafely) {
  for (const NumericSummaryKind numeric :
       {NumericSummaryKind::kHistogram, NumericSummaryKind::kWavelet}) {
    const GraphSynopsis synopsis = MakeValueSynopsis(numeric);
    std::vector<TwigQuery> queries;
    std::vector<double> expected;
    {
      const XClusterEstimator oracle(synopsis);
      for (const std::string& text : kValueQueries) {
        queries.push_back(MustParse(text));
        expected.push_back(oracle.Estimate(queries.back()));
      }
    }
    for (int trial = 0; trial < 3; ++trial) {
      const std::shared_ptr<const FlatSynopsis> flat =
          storage::CompileXcsf(synopsis);
      const FlatEstimator shared(*flat);
      constexpr int kThreads = 8;
      std::atomic<int> waiting{kThreads};
      std::vector<std::vector<double>> got(
          kThreads, std::vector<double>(queries.size()));
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          waiting.fetch_sub(1);
          while (waiting.load() > 0) std::this_thread::yield();
          for (size_t i = 0; i < queries.size(); ++i) {
            const size_t index = (i + static_cast<size_t>(t)) % queries.size();
            got[t][index] =
                shared.Estimate(CompiledTwig::Compile(queries[index], *flat));
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (int t = 0; t < kThreads; ++t) {
        for (size_t i = 0; i < queries.size(); ++i) {
          EXPECT_EQ(got[t][i], expected[i])
              << kValueQueries[i] << " thread " << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xcluster
