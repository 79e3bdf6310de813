// Tests for StreamEngine::ExplainQuery.

#include <gtest/gtest.h>

#include <cmath>

#include "expr/canonical.h"
#include "expr/parser.h"
#include "query/stream_engine.h"
#include "test_helpers.h"

namespace setsketch {
namespace {

StreamEngine::Options ExplainOptions() {
  StreamEngine::Options options;
  options.params = TestParams();
  options.copies = 64;
  options.seed = 2718;
  return options;
}

TEST(ExplainTest, InvalidIdNotOk) {
  StreamEngine engine(ExplainOptions());
  EXPECT_FALSE(engine.ExplainQuery(0).ok);
  EXPECT_FALSE(engine.ExplainQuery(-3).ok);
}

TEST(ExplainTest, ReportsSimplification) {
  // The report shows the canonical plan: duplicates dropped, nesting
  // flattened.
  StreamEngine engine(ExplainOptions());
  const auto q = engine.RegisterQuery("(A | A) & (B & B)");
  ASSERT_TRUE(q.ok());
  const auto explanation = engine.ExplainQuery(q.id);
  ASSERT_TRUE(explanation.ok);
  EXPECT_EQ(explanation.expression, "((A | A) & (B & B))");
  EXPECT_FALSE(explanation.provably_empty);
  const std::string canonical =
      Canonicalize(*ParseExpression("A & B").expression).ToString();
  EXPECT_NE(explanation.report.find("canonical plan: " + canonical + "\n"),
            std::string::npos)
      << explanation.report;
}

TEST(ExplainTest, DetectsProvablyEmptyQueries) {
  StreamEngine engine(ExplainOptions());
  const auto q = engine.RegisterQuery("(A & B) - A");
  ASSERT_TRUE(q.ok());
  const auto explanation = engine.ExplainQuery(q.id);
  ASSERT_TRUE(explanation.ok);
  EXPECT_TRUE(explanation.provably_empty);
  EXPECT_NE(explanation.report.find("provably empty"), std::string::npos);
}

TEST(ExplainTest, EmptyStreamsShortCircuit) {
  StreamEngine engine(ExplainOptions());
  const auto q = engine.RegisterQuery("A & B");
  ASSERT_TRUE(q.ok());
  const auto explanation = engine.ExplainQuery(q.id);
  ASSERT_TRUE(explanation.ok);
  EXPECT_NE(explanation.report.find("streams are empty"),
            std::string::npos);
}

TEST(ExplainTest, ReportsWitnessGeometryWithData) {
  StreamEngine engine(ExplainOptions());
  const auto q = engine.RegisterQuery("A & B");
  ASSERT_TRUE(q.ok());
  for (int e = 0; e < 2000; ++e) {
    const uint64_t elem = static_cast<uint64_t>(e) * 2654435761ULL;
    engine.Ingest("A", elem, 1);
    if (e % 2 == 0) engine.Ingest("B", elem, 1);
  }
  const auto explanation = engine.ExplainQuery(q.id);
  ASSERT_TRUE(explanation.ok);
  EXPECT_GT(explanation.union_estimate, 1000);
  EXPECT_GT(explanation.witness_level, 8);  // ~log2(4 * 2000 / 0.5).
  EXPECT_GT(explanation.expected_valid_fraction, 0.02);
  EXPECT_LT(explanation.expected_valid_fraction, 0.25);
  EXPECT_EQ(explanation.streams,
            (std::vector<std::string>{"A", "B"}));
  EXPECT_NE(explanation.report.find("witness level"), std::string::npos);
}

TEST(ExplainTest, WitnessOptionsWithoutALevelExplainWithoutAborting) {
  for (const double beta : {std::nan(""), 1.0}) {
    StreamEngine::Options options = ExplainOptions();
    options.witness.beta = beta;
    StreamEngine engine(options);
    const auto q = engine.RegisterQuery("A - B");
    ASSERT_TRUE(q.ok());
    for (uint64_t e = 0; e < 1000; ++e) {
      engine.Ingest("A", e, 1);
      if (e % 2 == 0) engine.Ingest("B", e, 1);
    }
    EXPECT_FALSE(engine.AnswerQuery(q.id).ok);
    const auto explanation = engine.ExplainQuery(q.id);
    EXPECT_EQ(explanation.witness_level, -1);
    EXPECT_NE(explanation.report.find("no witness level"), std::string::npos)
        << explanation.report;
  }
}

}  // namespace
}  // namespace setsketch
