// Engineering micro-benchmarks (google-benchmark) for the value-summary
// substrates: build, estimate, merge, and compress throughput of the
// histogram / PST / term-histogram structures, and a PST's decode from its
// pool record and its copy.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_json.h"

#include "common/io/bytes.h"
#include "common/rng.h"
#include "core/serialize.h"
#include "summaries/histogram.h"
#include "summaries/pst.h"
#include "summaries/value_summary.h"
#include "summaries/term_histogram.h"
#include "text/corpus.h"
#include "text/dictionary.h"

namespace xcluster {
namespace {

std::vector<int64_t> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(static_cast<int64_t>(rng.Uniform(10000)));
  }
  return values;
}

std::vector<std::string> RandomStrings(size_t n, uint64_t seed) {
  Rng rng(seed);
  TextGenerator text(0.8);
  std::vector<std::string> strings;
  strings.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    strings.push_back(text.Generate(&rng, 2 + rng.Uniform(3)));
  }
  return strings;
}

std::vector<TermSet> RandomTexts(size_t n, uint64_t seed,
                                 TermDictionary* dict) {
  Rng rng(seed);
  TextGenerator text(0.8);
  std::vector<TermSet> texts;
  texts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    texts.push_back(dict->InternText(text.Generate(&rng, 20)));
  }
  return texts;
}

void BM_HistogramBuild(benchmark::State& state) {
  auto values = RandomValues(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Histogram::Build(values, 64));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HistogramBuild)->Range(1 << 8, 1 << 14);

void BM_HistogramEstimate(benchmark::State& state) {
  Histogram hist = Histogram::Build(RandomValues(10000, 2), 64);
  Rng rng(3);
  for (auto _ : state) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(10000));
    benchmark::DoNotOptimize(hist.EstimateRange(lo, lo + 500));
  }
}
BENCHMARK(BM_HistogramEstimate);

void BM_HistogramMerge(benchmark::State& state) {
  Histogram a = Histogram::Build(RandomValues(10000, 4), 64);
  Histogram b = Histogram::Build(RandomValues(10000, 5), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Histogram::Merge(a, b));
  }
}
BENCHMARK(BM_HistogramMerge);

void BM_PstBuild(benchmark::State& state) {
  auto strings = RandomStrings(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Pst::Build(strings, 5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PstBuild)->Range(1 << 6, 1 << 11);

void BM_PstEstimate(benchmark::State& state) {
  Pst pst = Pst::Build(RandomStrings(1000, 7), 5);
  std::vector<std::string> queries = pst.SampleSubstrings(64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pst.EstimateCount(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_PstEstimate);

void BM_PstMerge(benchmark::State& state) {
  Pst a = Pst::Build(RandomStrings(500, 8), 5);
  Pst b = Pst::Build(RandomStrings(500, 9), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Pst::Merge(a, b));
  }
}
BENCHMARK(BM_PstMerge);

// A PST of a few thousand nodes, as the value-summary pool stores it.
void BM_PstDecode(benchmark::State& state) {
  const ValueSummary vsumm =
      ValueSummary::FromStrings(RandomStrings(1000, 7), 5);
  std::string record;
  StringSink sink(&record);
  EncodeValueSummary(vsumm, &sink);
  for (auto _ : state) {
    StringSource src(record);
    ValueSummary decoded;
    if (!DecodeValueSummary(&src, &decoded).ok()) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["nodes"] = static_cast<double>(vsumm.pst().node_count());
}
BENCHMARK(BM_PstDecode);

void BM_PstCopy(benchmark::State& state) {
  const Pst pst = Pst::Build(RandomStrings(1000, 7), 5);
  for (auto _ : state) {
    Pst copy = pst;
    benchmark::DoNotOptimize(copy);
  }
  state.counters["nodes"] = static_cast<double>(pst.node_count());
}
BENCHMARK(BM_PstCopy);

void BM_PstPrune(benchmark::State& state) {
  Pst pst = Pst::Build(RandomStrings(500, 10), 5);
  for (auto _ : state) {
    Pst copy = pst;
    copy.Prune(copy.node_count() / 4);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_PstPrune);

void BM_TermHistogramBuild(benchmark::State& state) {
  TermDictionary dict;
  auto texts = RandomTexts(static_cast<size_t>(state.range(0)), 11, &dict);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TermHistogram::Build(texts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TermHistogramBuild)->Range(1 << 7, 1 << 12);

void BM_TermHistogramFrequency(benchmark::State& state) {
  TermDictionary dict;
  TermHistogram hist = TermHistogram::Build(RandomTexts(2000, 12, &dict));
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hist.Frequency(static_cast<TermId>(rng.Uniform(dict.size()))));
  }
}
BENCHMARK(BM_TermHistogramFrequency);

void BM_TermHistogramMerge(benchmark::State& state) {
  TermDictionary dict;
  TermHistogram a = TermHistogram::Build(RandomTexts(1000, 14, &dict));
  TermHistogram b = TermHistogram::Build(RandomTexts(1000, 15, &dict));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TermHistogram::Merge(a, 1000.0, b, 1000.0));
  }
}
BENCHMARK(BM_TermHistogramMerge);

}  // namespace
}  // namespace xcluster

int main(int argc, char** argv) {
  return xcluster::bench::RunBenchmarksWithJson("micro_summaries", argc,
                                                argv);
}
