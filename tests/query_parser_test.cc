#include "query/parser.h"

#include <gtest/gtest.h>

namespace xcluster {
namespace {

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << " for " << input;
  return std::move(result).value();
}

TEST(QueryParserTest, SimpleChildPath) {
  TwigQuery query = MustParse("/site/people/person");
  EXPECT_EQ(query.size(), 4u);
  EXPECT_EQ(query.var(1).step.label, "site");
  EXPECT_EQ(query.var(1).step.axis, TwigStep::Axis::kChild);
  EXPECT_EQ(query.var(3).step.label, "person");
}

TEST(QueryParserTest, PathLongerThanTheReservation) {
  // The parser reserves at most 16 variables up front, counting slashes
  // (the quoted ones too); a 40-step path grows the array past that.
  std::string path;
  for (int i = 0; i < 40; ++i) path += (i % 2 == 0 ? "/a" : "//b");
  TwigQuery query = MustParse(path + "[contains(\"" +
                              std::string(64, '/') + "\")]");
  ASSERT_EQ(query.size(), 41u);
  EXPECT_EQ(query.var(40).step.label, "b");
  EXPECT_EQ(query.var(40).step.axis, TwigStep::Axis::kDescendant);
  EXPECT_EQ(query.var(40).parent, 39u);
  EXPECT_EQ(query.var(40).predicates.size(), 1u);
}

TEST(QueryParserTest, DescendantAxis) {
  TwigQuery query = MustParse("//item/name");
  EXPECT_EQ(query.var(1).step.axis, TwigStep::Axis::kDescendant);
  EXPECT_EQ(query.var(2).step.axis, TwigStep::Axis::kChild);
}

TEST(QueryParserTest, Wildcard) {
  TwigQuery query = MustParse("/site/*/item");
  EXPECT_TRUE(query.var(2).step.wildcard);
}

TEST(QueryParserTest, RangePredicate) {
  TwigQuery query = MustParse("//year[range(2000,2005)]");
  ASSERT_EQ(query.var(1).predicates.size(), 1u);
  const ValuePredicate& pred = query.var(1).predicates[0];
  EXPECT_EQ(pred.kind, ValuePredicate::Kind::kRange);
  EXPECT_EQ(pred.lo, 2000);
  EXPECT_EQ(pred.hi, 2005);
}

TEST(QueryParserTest, NegativeRangeBounds) {
  TwigQuery query = MustParse("//t[range(-5,-1)]");
  EXPECT_EQ(query.var(1).predicates[0].lo, -5);
  EXPECT_EQ(query.var(1).predicates[0].hi, -1);
}

TEST(QueryParserTest, ContainsWithQuotedString) {
  TwigQuery query = MustParse("//title[contains(\"Tree Models\")]");
  const ValuePredicate& pred = query.var(1).predicates[0];
  EXPECT_EQ(pred.kind, ValuePredicate::Kind::kContains);
  EXPECT_EQ(pred.substring, "Tree Models");
}

TEST(QueryParserTest, ContainsWithBareToken) {
  TwigQuery query = MustParse("//title[contains(Tree)]");
  EXPECT_EQ(query.var(1).predicates[0].substring, "Tree");
}

TEST(QueryParserTest, FtContainsMultipleTerms) {
  TwigQuery query = MustParse("//abstract[ftcontains(xml, synopsis)]");
  const ValuePredicate& pred = query.var(1).predicates[0];
  EXPECT_EQ(pred.kind, ValuePredicate::Kind::kFtContains);
  ASSERT_EQ(pred.terms.size(), 2u);
  EXPECT_EQ(pred.terms[0], "xml");
  EXPECT_EQ(pred.terms[1], "synopsis");
}

TEST(QueryParserTest, FtAnyDisjunction) {
  TwigQuery query = MustParse("//plot[ftany(love, war, honor)]");
  const ValuePredicate& pred = query.var(1).predicates[0];
  EXPECT_EQ(pred.kind, ValuePredicate::Kind::kFtAny);
  ASSERT_EQ(pred.terms.size(), 3u);
  EXPECT_EQ(pred.terms[2], "honor");
}

TEST(QueryParserTest, FtSimilarPredicate) {
  TwigQuery query = MustParse("//plot[ftsimilar(60, love, war, honor)]");
  const ValuePredicate& pred = query.var(1).predicates[0];
  EXPECT_EQ(pred.kind, ValuePredicate::Kind::kFtSimilar);
  EXPECT_EQ(pred.similarity_percent, 60);
  ASSERT_EQ(pred.terms.size(), 3u);
  EXPECT_EQ(pred.RequiredMatches(), 2u);  // ceil(0.6 * 3)
}

TEST(QueryParserTest, FtSimilarErrors) {
  EXPECT_FALSE(ParseTwig("//plot[ftsimilar(150,a)]").ok());
  EXPECT_FALSE(ParseTwig("//plot[ftsimilar(50)]").ok());
}

TEST(QueryParserTest, BranchPredicate) {
  TwigQuery query = MustParse("//paper[/year[range(2000,2005)]]/title");
  // Vars: root, paper, year (branch), title (spine).
  EXPECT_EQ(query.size(), 4u);
  EXPECT_EQ(query.var(1).children.size(), 2u);
  EXPECT_EQ(query.var(2).step.label, "year");
  EXPECT_EQ(query.var(2).predicates.size(), 1u);
  EXPECT_EQ(query.var(3).step.label, "title");
}

TEST(QueryParserTest, NestedBranches) {
  TwigQuery query = MustParse("//a[/b[/c]]/d");
  EXPECT_EQ(query.size(), 5u);
  EXPECT_EQ(query.var(2).step.label, "b");
  EXPECT_EQ(query.var(3).step.label, "c");
  EXPECT_EQ(query.var(3).parent, 2u);
}

TEST(QueryParserTest, DescendantBranch) {
  TwigQuery query = MustParse("//item[//text[ftcontains(gold)]]");
  EXPECT_EQ(query.var(2).step.axis, TwigStep::Axis::kDescendant);
}

TEST(QueryParserTest, PaperExampleQuery) {
  // The running example of Sec. 1, in this library's syntax.
  TwigQuery query = MustParse(
      "//paper[/year[range(2001,9999)]]"
      "[/abstract[ftcontains(synopsis,XML)]]"
      "/title[contains(Tree)]");
  EXPECT_EQ(query.size(), 5u);
  EXPECT_EQ(query.PredicateCount(), 3u);
}

TEST(QueryParserTest, AttributeLabels) {
  TwigQuery query = MustParse("//incategory/@category");
  EXPECT_EQ(query.var(2).step.label, "@category");
}

TEST(QueryParserTest, WhitespaceTolerated) {
  TwigQuery query = MustParse("  //a [ range( 1 , 2 ) ] / b ");
  EXPECT_EQ(query.size(), 3u);
  EXPECT_EQ(query.var(1).predicates.size(), 1u);
}

TEST(QueryParserTest, RoundTripThroughToString) {
  const char* inputs[] = {
      "//paper/title",
      "//a[range(1,2)]/b",
      "//a[contains(xy)][/c]/b",
  };
  for (const char* input : inputs) {
    TwigQuery query = MustParse(input);
    TwigQuery reparsed = MustParse(query.ToString());
    EXPECT_EQ(reparsed.ToString(), query.ToString()) << input;
  }
}

TEST(QueryParserTest, ErrorOnEmptyInput) {
  EXPECT_FALSE(ParseTwig("").ok());
}

TEST(QueryParserTest, ErrorOnMissingStep) {
  EXPECT_FALSE(ParseTwig("title").ok());
}

TEST(QueryParserTest, ErrorOnUnknownPredicate) {
  EXPECT_FALSE(ParseTwig("//a[like(x)]").ok());
}

TEST(QueryParserTest, ErrorOnUnclosedBracket) {
  EXPECT_FALSE(ParseTwig("//a[range(1,2)").ok());
}

TEST(QueryParserTest, ErrorOnUnterminatedString) {
  EXPECT_FALSE(ParseTwig("//a[contains(\"x)]").ok());
}

TEST(QueryParserTest, ErrorOnTrailingInput) {
  EXPECT_FALSE(ParseTwig("//a extra").ok());
}

TEST(QueryParserTest, ErrorOnMissingName) {
  EXPECT_FALSE(ParseTwig("//[range(1,2)]").ok());
}

TEST(QueryParserTest, ErrorOnBadRangeArgs) {
  EXPECT_FALSE(ParseTwig("//a[range(x,y)]").ok());
  EXPECT_FALSE(ParseTwig("//a[range(1)]").ok());
}

}  // namespace
}  // namespace xcluster
