// Scenario example: full-text + structure search over a movie catalogue —
// the heterogeneous-content workload from the paper's introduction, where
// one query mixes numeric ranges, substring matching, and IR-style keyword
// predicates.
//
// Builds an IMDB-like catalogue, a 150 KB-class synopsis, and answers a
// set of "search form" style questions, printing estimated vs. exact hit
// counts and the estimation error.

#include <cmath>
#include <cstdio>

#include "core/xcluster.h"
#include "data/imdb.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "eval/evaluator.h"
#include "query/parser.h"

int main() {
  using namespace xcluster;

  ImdbOptions data_options;
  data_options.scale = 1.0;
  GeneratedDataset dataset = GenerateImdb(data_options);
  std::printf("catalogue: %zu elements, %zu valued\n", dataset.doc.size(),
              dataset.doc.CountValued());

  XCluster::Options options;
  options.reference.value_paths = dataset.value_paths;
  options.build.structural_budget = 30 * 1024;
  options.build.value_budget = 120 * 1024;
  XCluster synopsis = XCluster::Build(dataset.doc, options);
  std::printf("synopsis: %zu KB (data is ~%zux larger)\n\n",
              synopsis.SizeBytes() / 1024,
              dataset.doc.size() * 40 / std::max<size_t>(1, synopsis.SizeBytes()));

  ExactEvaluator evaluator(dataset.doc,
                           synopsis.synopsis().term_dictionary().get());

  struct Search {
    const char* description;
    const char* query;
  };
  const Search searches[] = {
      {"golden-age movies (1930-1950)",
       "//movie/year[range(1930,1950)]"},
      {"highly rated modern movies",
       "//movie[/year[range(1990,2005)]]/rating[range(75,100)]"},
      {"titles mentioning 'The'", "//title[contains(The)]"},
      {"plots about love and war", "//movie/plot[ftcontains(love,war)]"},
      {"rated movies with a large cast",
       "//movie[/cast/performer][/rating]/title"},
      {"episodes of any series", "//series/episode/title"},
      {"movies with story-driven plots",
       "//movie[/plot[ftcontains(story)]]/year[range(1960,2005)]"},
  };

  std::printf("%-42s %10s %8s %8s\n", "search", "estimate", "true",
              "rel.err");
  for (const Search& search : searches) {
    Result<double> estimate = synopsis.EstimateSelectivity(search.query);
    if (!estimate.ok()) {
      std::fprintf(stderr, "bad query: %s\n",
                   estimate.status().ToString().c_str());
      return 1;
    }
    Result<TwigQuery> query = ParseTwig(search.query);
    query.value().ResolveTerms(*synopsis.synopsis().term_dictionary());
    const double truth = evaluator.Selectivity(query.value());
    const double rel_err =
        std::abs(truth - estimate.value()) / std::max(truth, 1.0);
    std::printf("%-42s %10.1f %8.0f %7.1f%%\n", search.description,
                estimate.value(), truth, 100.0 * rel_err);
  }

  // EXPLAIN-style breakdown for one query: how many elements the synopsis
  // expects at each step of the twig (what an optimizer would look at when
  // choosing a join order).
  const char* explained = "//movie[/year[range(1990,2005)]]/rating[range(75,100)]";
  Result<TwigQuery> query = ParseTwig(explained);
  const FlatSynopsis& flat = *synopsis.flat();
  const FlatEstimator estimator(flat);
  const CompiledTwig plan = CompiledTwig::Compile(query.value(), flat);
  std::printf("\nexplain %s\n%s", explained,
              estimator.Explain(plan).ToString().c_str());
  return 0;
}
