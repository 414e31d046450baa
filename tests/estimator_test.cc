// Tests for the estimation engine (Sec. 5): every case runs the serving
// path — FlatEstimator over a compiled FlatSynopsis — asserts the paper's
// expected value, and asserts the double is bit-identical to the
// graph-walking reference estimator in tests/oracle.
#include "estimate/flat_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "estimate/compiled_twig.h"
#include "estimate/flat_synopsis.h"
#include "oracle/xcluster_estimator.h"
#include "query/parser.h"
#include "storage/xcsf_writer.h"

namespace xcluster {
namespace {

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Estimates `query` with FlatEstimator and checks it equals the oracle's
/// double exactly.
double Estimate(const GraphSynopsis& synopsis, const TwigQuery& query,
                EstimateOptions options = EstimateOptions()) {
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  const FlatEstimator estimator(flat, options);
  const double estimate =
      estimator.Estimate(CompiledTwig::Compile(query, flat));
  EXPECT_EQ(estimate, XClusterEstimator(synopsis, options).Estimate(query))
      << query.ToString();
  return estimate;
}

double Estimate(const GraphSynopsis& synopsis, std::string_view twig,
                EstimateOptions options = EstimateOptions()) {
  return Estimate(synopsis, MustParse(twig), options);
}

/// FlatEstimator::Explain, checked against the oracle's breakdown: the
/// same doubles and the same rendering.
EstimateExplanation Explain(const GraphSynopsis& synopsis,
                            std::string_view twig) {
  const std::shared_ptr<const FlatSynopsis> compiled =
      storage::CompileXcsf(synopsis);
  const FlatSynopsis& flat = *compiled;
  const FlatEstimator estimator(flat);
  const TwigQuery query = MustParse(twig);
  EstimateExplanation explanation =
      estimator.Explain(CompiledTwig::Compile(query, flat));
  const EstimateExplanation oracle = XClusterEstimator(synopsis).Explain(query);
  EXPECT_EQ(explanation.selectivity, oracle.selectivity) << twig;
  EXPECT_EQ(explanation.ToString(), oracle.ToString()) << twig;
  return explanation;
}

/// The synopsis of Figure 7(a): R -10-> A; A -10-> B -5-> C (C carries a
/// value summary with sigma 0.1 for the test predicate); A -5-> Da -2-> E.
struct Fig7 {
  GraphSynopsis synopsis;
  SynNodeId r, a, b, c, da, e;

  Fig7() {
    r = synopsis.AddNode("R", ValueType::kNone, 1.0);
    a = synopsis.AddNode("A", ValueType::kNone, 10.0);
    b = synopsis.AddNode("B", ValueType::kNone, 100.0);
    c = synopsis.AddNode("C", ValueType::kNumeric, 500.0);
    da = synopsis.AddNode("D", ValueType::kNone, 50.0);
    e = synopsis.AddNode("E", ValueType::kNone, 100.0);
    synopsis.AddEdge(r, a, 10.0);
    synopsis.AddEdge(a, b, 10.0);
    synopsis.AddEdge(b, c, 5.0);
    synopsis.AddEdge(a, da, 5.0);
    synopsis.AddEdge(da, e, 2.0);
    // sigma_C(range(0,0)) = 0.1: values 0..9, one each.
    std::vector<int64_t> values;
    for (int64_t v = 0; v < 10; ++v) values.push_back(v);
    synopsis.node(c).vsumm = ValueSummary::FromNumeric(std::move(values), 16);
    synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  }

  double Estimate(std::string_view twig) {
    return xcluster::Estimate(synopsis, twig);
  }
};

TEST(EstimatorTest, PaperFigure7Example) {
  // Per element of A: 10*5*0.1 = 5 bindings in q2, 5*2 = 10 in q3, so 50
  // tuples; 10 elements of A under the root give 500 (Sec. 5).
  Fig7 f;
  EXPECT_NEAR(f.Estimate("//A[/B/C[range(0,0)]]//E"), 500.0, 1e-6);
}

TEST(EstimatorTest, SingleChildStep) {
  Fig7 f;
  EXPECT_NEAR(f.Estimate("/A"), 10.0, 1e-9);
  EXPECT_NEAR(f.Estimate("/A/B"), 100.0, 1e-9);
  EXPECT_NEAR(f.Estimate("/A/B/C"), 500.0, 1e-9);
}

TEST(EstimatorTest, PathValueIndependenceFormula) {
  // |u| sigma_p(u) count(u, c) chained along the path.
  Fig7 f;
  EXPECT_NEAR(f.Estimate("/A/B/C[range(0,4)]"), 250.0, 1e-9);
}

TEST(EstimatorTest, DescendantReachSumsOverPaths) {
  Fig7 f;
  // //C from the root: only via A/B: 10*10*5 = 500.
  EXPECT_NEAR(f.Estimate("//C"), 500.0, 1e-9);
  // //E: via A/Da: 10*5*2 = 100.
  EXPECT_NEAR(f.Estimate("//E"), 100.0, 1e-9);
}

TEST(EstimatorTest, WildcardMatchesAllChildren) {
  Fig7 f;
  // Children of A: B (10) + D (5) per element, 10 elements of A.
  EXPECT_NEAR(f.Estimate("/A/*"), 150.0, 1e-9);
}

TEST(EstimatorTest, MissingLabelIsZero) {
  Fig7 f;
  EXPECT_EQ(f.Estimate("/Z"), 0.0);
  EXPECT_EQ(f.Estimate("//A/Q"), 0.0);
}

TEST(EstimatorTest, MismatchedPredicateTypeIsZero) {
  Fig7 f;
  EXPECT_EQ(f.Estimate("/A/B/C[contains(x)]"), 0.0);
}

TEST(EstimatorTest, TypeIncompatiblePredicateOnSummarylessNodeIsZero) {
  Fig7 f;
  // B has no value type at all: a range predicate can never hold.
  EXPECT_EQ(f.Estimate("/A/B[range(0,100)]"), 0.0);
}

TEST(EstimatorTest, DefaultSelectivityFallbackOnUnsummarizedCluster) {
  // A NUMERIC cluster without a value summary (not on a summarized path)
  // estimates range predicates with the default-selectivity constant.
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId y = synopsis.AddNode("Y", ValueType::kNumeric, 40.0);
  synopsis.AddEdge(root, y, 40.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  EstimateOptions options;
  options.default_selectivity = 0.25;
  EXPECT_NEAR(Estimate(synopsis, "/Y[range(0,10)]", options), 10.0, 1e-9);
  // Kind-incompatible predicates still estimate zero.
  EXPECT_EQ(Estimate(synopsis, "/Y[contains(x)]", options), 0.0);
}

TEST(EstimatorTest, FtAnyUsesInclusionExclusion) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId t = synopsis.AddNode("T", ValueType::kText, 4.0);
  synopsis.AddEdge(root, t, 4.0);
  auto dict = std::make_shared<TermDictionary>();
  TermId love = dict->Intern("love");
  TermId war = dict->Intern("war");
  synopsis.node(t).vsumm =
      ValueSummary::FromTexts({{love}, {love}, {war}, {}});
  synopsis.set_term_dictionary(dict);
  // w[love] = 0.5, w[war] = 0.25 -> 4 * (1 - 0.5*0.75) = 2.5.
  EXPECT_NEAR(Estimate(synopsis, "/T[ftany(love,war)]"), 2.5, 1e-9);
  // Unknown terms drop out of a disjunction.
  EXPECT_NEAR(Estimate(synopsis, "/T[ftany(love,unseen)]"), 2.0, 1e-9);
}

TEST(EstimatorTest, FtSimilarUsesPoissonBinomial) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId t = synopsis.AddNode("T", ValueType::kText, 8.0);
  synopsis.AddEdge(root, t, 8.0);
  auto dict = std::make_shared<TermDictionary>();
  TermId a = dict->Intern("alpha");
  TermId b = dict->Intern("beta");
  synopsis.node(t).vsumm = ValueSummary::FromTexts(
      {{a, b}, {a, b}, {a}, {a}, {b}, {b}, {}, {}});  // w[a]=w[b]=0.5
  synopsis.set_term_dictionary(dict);
  // >= 50% of {alpha, beta} = at least 1 match: 8 * 0.75 = 6.
  EXPECT_NEAR(Estimate(synopsis, "/T[ftsimilar(50,alpha,beta)]"), 6.0, 1e-9);
  // 100%: both terms: 8 * 0.25 = 2.
  EXPECT_NEAR(Estimate(synopsis, "/T[ftsimilar(100,alpha,beta)]"), 2.0,
              1e-9);
}

TEST(EstimatorTest, UnknownFtTermIsZero) {
  Fig7 f;
  EXPECT_EQ(f.Estimate("//C[ftcontains(neverseen)]"), 0.0);
}

TEST(EstimatorTest, EmptySynopsis) {
  GraphSynopsis synopsis;
  EXPECT_EQ(Estimate(synopsis, TwigQuery()), 0.0);
  EXPECT_EQ(Estimate(synopsis, "//A"), 0.0);
}

TEST(EstimatorTest, CycleSafeDescendant) {
  // Recursive schema: parlist -0.5-> parlist, parlist -1-> text. The
  // geometric series 1 + 0.5 + 0.25 + ... converges to 2 within the hop
  // bound.
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId parlist = synopsis.AddNode("parlist", ValueType::kNone, 20.0);
  SynNodeId text = synopsis.AddNode("text", ValueType::kNone, 40.0);
  synopsis.AddEdge(root, parlist, 10.0);
  synopsis.AddEdge(parlist, parlist, 0.5);
  synopsis.AddEdge(parlist, text, 1.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  // //text: sum over depths: 10 * (1 + 0.5 + 0.25 + ...) * 1 = 20.
  EXPECT_NEAR(Estimate(synopsis, "//text"), 20.0, 1e-3);
}

TEST(EstimatorTest, HopLimitBoundsDivergentCycles) {
  // A pathological synopsis whose cycle gain is >= 1 must not hang or
  // produce infinity.
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId loop = synopsis.AddNode("L", ValueType::kNone, 10.0);
  synopsis.AddEdge(root, loop, 1.0);
  synopsis.AddEdge(loop, loop, 1.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  EstimateOptions options;
  options.max_descendant_hops = 8;
  EXPECT_NEAR(Estimate(synopsis, "//L", options), 8.0,
              1e-9);  // one unit per hop, capped at 8
}

TEST(EstimatorTest, BranchesMultiply) {
  Fig7 f;
  // est(A) = count(A,B) * count(A,D) per element = 10*5; times 10 A's.
  EXPECT_NEAR(f.Estimate("/A[/B]/D"), 500.0, 1e-9);
}

TEST(EstimatorTest, ExplainReportsPerVariableCardinalities) {
  Fig7 f;
  EstimateExplanation explanation = Explain(f.synopsis, "/A/B/C[range(0,4)]");
  EXPECT_NEAR(explanation.selectivity, 250.0, 1e-9);
  ASSERT_EQ(explanation.vars.size(), 4u);
  EXPECT_NEAR(explanation.vars[0].expected_bindings, 1.0, 1e-9);   // root
  EXPECT_NEAR(explanation.vars[1].expected_bindings, 10.0, 1e-9);  // A
  EXPECT_NEAR(explanation.vars[2].expected_bindings, 100.0, 1e-9); // B
  // C: 500 reached, sigma 0.5.
  EXPECT_NEAR(explanation.vars[3].expected_bindings, 250.0, 1e-9);
  EXPECT_NEAR(explanation.vars[3].predicate_selectivity, 0.5, 1e-9);
  EXPECT_EQ(explanation.vars[3].step, "/C");
  EXPECT_NE(explanation.ToString().find("q3 /C"), std::string::npos);
}

TEST(EstimatorTest, ExplainBranchesDoNotMultiplySiblings) {
  Fig7 f;
  EstimateExplanation explanation = Explain(f.synopsis, "/A[/B]/D");
  // Per-variable counts: B = 100 reached, D = 50 reached — independent of
  // the tuple count (500).
  ASSERT_EQ(explanation.vars.size(), 4u);
  EXPECT_NEAR(explanation.selectivity, 500.0, 1e-9);
  EXPECT_NEAR(explanation.vars[2].expected_bindings, 100.0, 1e-9);
  EXPECT_NEAR(explanation.vars[3].expected_bindings, 50.0, 1e-9);
}

TEST(EstimatorTest, ExplainRowsKeepTheirColumnsForLongStepLabels) {
  // A 200-byte step label: longer than any fixed-size row buffer. Every
  // variable row must still end in its expected and sigma columns and a
  // newline, so rows never run into each other.
  const std::string label(200, 'x');
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId x = synopsis.AddNode(label, ValueType::kNone, 3.0);
  SynNodeId b = synopsis.AddNode("b", ValueType::kNone, 6.0);
  synopsis.AddEdge(root, x, 3.0);
  synopsis.AddEdge(x, b, 2.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());

  const EstimateExplanation explanation =
      Explain(synopsis, "/" + label + "/b");
  EXPECT_NEAR(explanation.selectivity, 6.0, 1e-9);
  ASSERT_EQ(explanation.vars.size(), 3u);
  const std::string text = explanation.ToString();
  // The estimate line, the header, and one row per variable.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);
  std::getline(lines, line);
  for (const EstimateExplanation::VarStats& var : explanation.vars) {
    ASSERT_TRUE(std::getline(lines, line));
    char numbers[64];
    std::snprintf(numbers, sizeof(numbers), " %14.6g %12.6g",
                  var.expected_bindings, var.predicate_selectivity);
    ASSERT_GE(line.size(), std::strlen(numbers)) << line;
    EXPECT_EQ(line.substr(line.size() - std::strlen(numbers)), numbers)
        << line;
    EXPECT_NE(line.find(var.step.empty() ? "(root)" : var.step),
              std::string::npos);
  }
}

TEST(EstimatorTest, SelfLoopChildStep) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId p = synopsis.AddNode("p", ValueType::kNone, 30.0);
  synopsis.AddEdge(root, p, 10.0);
  synopsis.AddEdge(p, p, 2.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  EXPECT_NEAR(Estimate(synopsis, "/p/p"), 20.0, 1e-9);
}

}  // namespace
}  // namespace xcluster
