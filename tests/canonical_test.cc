// Tests for the planner front end (expr/canonical.h): canonical-form
// equality of commuted/reassociated inputs, structural hashing, common
// sub-expression identification, pointwise Boolean equivalence of the
// rewrites, and the parser's typed error paths the planner depends on.

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expr/analysis.h"
#include "expr/canonical.h"
#include "expr/expression.h"
#include "expr/parser.h"

namespace setsketch {
namespace {

ExprPtr Parse(const std::string& text) {
  const ParseResult p = ParseExpression(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.error;
  return p.expression;
}

CanonicalPlan Canon(const std::string& text) {
  return Canonicalize(*Parse(text));
}

// --- Canonical equality of equivalent inputs ----------------------------

TEST(CanonicalTest, CommutedAndReassociatedFormsShareOnePlan) {
  // Every pair is the same query written differently; the planner must
  // produce byte-identical plans with equal structural hashes, since the
  // plan cache keys on exactly that.
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"A | (B & C)", "(C & B) | A"},
      {"A | B | C", "C | (B | A)"},
      {"(A | B) | (C | D)", "D | C | B | A"},
      {"A & B & C", "(C & A) & B"},
      {"(A & B) | (B & A)", "B & A"},
      {"A - (B | C)", "A - (C | B)"},
      {"(A | A) & B", "B & A"},
  };
  for (const auto& [left, right] : pairs) {
    const CanonicalPlan a = Canon(left);
    const CanonicalPlan b = Canon(right);
    ASSERT_TRUE(a.ok() && b.ok()) << left << " / " << right;
    EXPECT_EQ(a.hash(), b.hash()) << left << " vs " << right;
    EXPECT_EQ(a.ToString(), b.ToString()) << left << " vs " << right;
  }
}

TEST(CanonicalTest, DistinctQueriesGetDistinctPlans) {
  const std::vector<std::string> queries = {
      "A", "B", "A | B", "A & B", "A - B", "B - A",
      "A | (B & C)", "(A | B) & C", "A - (B | C)", "(A - B) | C",
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = i + 1; j < queries.size(); ++j) {
      const CanonicalPlan a = Canon(queries[i]);
      const CanonicalPlan b = Canon(queries[j]);
      EXPECT_NE(a.ToString(), b.ToString())
          << queries[i] << " vs " << queries[j];
      EXPECT_NE(a.hash(), b.hash()) << queries[i] << " vs " << queries[j];
    }
  }
}

TEST(CanonicalTest, NestedUnionsFlattenToOneNaryNode) {
  const CanonicalPlan plan = Canon("((A | B) | (C | D)) | B");
  ASSERT_TRUE(plan.ok());
  const CanonicalNode& root = plan.nodes[static_cast<size_t>(plan.root)];
  EXPECT_EQ(root.kind, Expression::Kind::kUnion);
  EXPECT_EQ(root.children.size(), 4u);  // B deduplicated.
  for (const int child : root.children) {
    EXPECT_EQ(plan.nodes[static_cast<size_t>(child)].kind,
              Expression::Kind::kStream);
  }
  EXPECT_EQ(plan.streams,
            (std::vector<std::string>{"A", "B", "C", "D"}));
}

TEST(CanonicalTest, DifferenceChainsPushDownIntoOneSubtrahendUnion) {
  // (X - Y) - Z == X - (Y u Z) pointwise, so both spellings must compile
  // to the same plan.
  const CanonicalPlan chained = Canon("(A - B) - C");
  const CanonicalPlan pushed = Canon("A - (B | C)");
  ASSERT_TRUE(chained.ok() && pushed.ok());
  EXPECT_EQ(chained.ToString(), pushed.ToString());
  EXPECT_EQ(chained.hash(), pushed.hash());
  // Longer chains collapse too.
  EXPECT_EQ(Canon("((A - B) - C) - D").ToString(),
            Canon("A - (B | C | D)").ToString());
}

TEST(CanonicalTest, SharedSubExpressionsAreInternedOnce) {
  const CanonicalPlan plan = Canon("(A & B) | ((A & B) - C)");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.SharedNodeCount(), 1);
  int shared = -1;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    if (plan.nodes[i].kind != Expression::Kind::kStream &&
        plan.nodes[i].uses > 1) {
      EXPECT_EQ(shared, -1) << "only (A & B) should be shared";
      shared = static_cast<int>(i);
    }
  }
  ASSERT_NE(shared, -1);
  EXPECT_EQ(plan.nodes[static_cast<size_t>(shared)].kind,
            Expression::Kind::kIntersect);
  EXPECT_EQ(plan.nodes[static_cast<size_t>(shared)].uses, 2);
  EXPECT_EQ(plan.NodeToString(shared), "(A & B)");
}

TEST(CanonicalTest, NoSharingWhenSubtreesDiffer) {
  EXPECT_EQ(Canon("(A & B) | (A & C)").SharedNodeCount(), 0);
  EXPECT_EQ(Canon("A | B").SharedNodeCount(), 0);
}

// --- Pointwise Boolean equivalence --------------------------------------

/// Evaluates `expr` and its canonical plan on every truth assignment of
/// the plan's streams and asserts pointwise equality; this is the property
/// that makes planned estimates bit-identical to direct ones. Assignment
/// `mask` is bit `mask` of the bitsets, so one EvaluatePlan call covers
/// them all.
void ExpectPlanMatchesTreeOnAllAssignments(const Expression& expr) {
  const CanonicalPlan plan = Canonicalize(expr);
  ASSERT_TRUE(plan.ok());
  const int n = static_cast<int>(plan.streams.size());
  ASSERT_LE(n, 12);
  const uint32_t points = 1u << n;
  const size_t words = (points + 63) / 64;
  std::vector<std::vector<uint64_t>> leaves(
      static_cast<size_t>(n), std::vector<uint64_t>(words, 0));
  std::vector<const uint64_t*> leaf_words;
  for (int c = 0; c < n; ++c) {
    for (uint32_t mask = 0; mask < points; ++mask) {
      if (((mask >> c) & 1u) != 0) {
        leaves[static_cast<size_t>(c)][mask / 64] |= uint64_t{1}
                                                     << (mask % 64);
      }
    }
    leaf_words.push_back(leaves[static_cast<size_t>(c)].data());
  }
  std::vector<uint64_t> scratch;
  const uint64_t* root = EvaluatePlan(plan, leaf_words, words, &scratch);
  for (uint32_t mask = 0; mask < points; ++mask) {
    const auto name_occupied = [&](const std::string& name) {
      for (int c = 0; c < n; ++c) {
        if (plan.streams[static_cast<size_t>(c)] == name) {
          return ((mask >> c) & 1u) != 0;
        }
      }
      ADD_FAILURE() << "unknown stream " << name;
      return false;
    };
    EXPECT_EQ(((root[mask / 64] >> (mask % 64)) & 1) != 0,
              expr.Evaluate(name_occupied))
        << expr.ToString() << " mask=" << mask;
  }
}

TEST(CanonicalTest, PlanEvaluationMatchesTreeEvaluation) {
  const std::vector<std::string> queries = {
      "A", "A | B", "A & B", "A - B", "(A - B) - C",
      "A | (B & C)", "(A | B) & (C | D)", "((A - B) - C) - D",
      "(A & B) | ((A & B) - C)", "A - (A - B)", "(A | B) - (A & B)",
  };
  for (const std::string& text : queries) {
    ExpectPlanMatchesTreeOnAllAssignments(*Parse(text));
  }
}

/// Uniformly random expression tree over `names`, depth-bounded.
ExprPtr RandomExpression(std::mt19937_64& rng,
                         const std::vector<std::string>& names, int depth) {
  std::uniform_int_distribution<int> pick_kind(0, depth <= 0 ? 0 : 3);
  std::uniform_int_distribution<size_t> pick_name(0, names.size() - 1);
  switch (pick_kind(rng)) {
    case 1:
      return Expression::Union(RandomExpression(rng, names, depth - 1),
                               RandomExpression(rng, names, depth - 1));
    case 2:
      return Expression::Intersect(RandomExpression(rng, names, depth - 1),
                                   RandomExpression(rng, names, depth - 1));
    case 3:
      return Expression::Difference(RandomExpression(rng, names, depth - 1),
                                    RandomExpression(rng, names, depth - 1));
    default:
      return Expression::Stream(names[pick_name(rng)]);
  }
}

TEST(CanonicalTest, RandomizedPlansStayPointwiseEquivalent) {
  std::mt19937_64 rng(0xC0FFEE);
  const std::vector<std::string> names = {"A", "B", "C", "D"};
  for (int trial = 0; trial < 200; ++trial) {
    const ExprPtr expr = RandomExpression(rng, names, 4);
    ExpectPlanMatchesTreeOnAllAssignments(*expr);
    // Round-tripping the plan back to a tree preserves semantics too.
    const CanonicalPlan plan = Canonicalize(*expr);
    const ExprPtr back = CanonicalToExpression(plan);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(SemanticallyEqual(*back, *expr))
        << expr->ToString() << " vs " << back->ToString();
    // Canonicalization is a fixed point: re-canonicalizing the rebuilt
    // tree changes nothing.
    EXPECT_EQ(Canonicalize(*back).ToString(), plan.ToString());
    EXPECT_EQ(Canonicalize(*back).hash(), plan.hash());
  }
}

TEST(CanonicalTest, UsesCountsOnlyReachableParents) {
  // "A - A" simplifies structurally: both leaves intern to one node used
  // by one reachable parent, not by dead intermediates.
  const CanonicalPlan plan = Canon("A - A");
  ASSERT_TRUE(plan.ok());
  for (const CanonicalNode& node : plan.nodes) {
    EXPECT_LE(node.uses, 2);
  }
  EXPECT_EQ(plan.streams, std::vector<std::string>{"A"});
}

// --- Parser typed error paths -------------------------------------------

TEST(CanonicalTest, ParserRejectsEmptyInputWithTypedError) {
  for (const std::string text : {"", "   ", "\t\n  "}) {
    const ParseResult p = ParseExpression(text);
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.code, ParseErrorCode::kEmptyInput) << "'" << text << "'";
    EXPECT_NE(p.error.find("position"), std::string::npos) << p.error;
  }
}

TEST(CanonicalTest, ParserRejectsUnbalancedParensWithTypedError) {
  for (const std::string text : {"(A", "((A | B)", "A)", "(A | B))",
                                 "(", ")"}) {
    const ParseResult p = ParseExpression(text);
    EXPECT_FALSE(p.ok()) << text;
    EXPECT_TRUE(p.code == ParseErrorCode::kUnbalancedParens ||
                p.code == ParseErrorCode::kUnexpectedToken)
        << text << " -> " << static_cast<int>(p.code);
    EXPECT_NE(p.error.find("position"), std::string::npos) << p.error;
  }
  EXPECT_EQ(ParseExpression("(A").code, ParseErrorCode::kUnbalancedParens);
  EXPECT_EQ(ParseExpression("A)").code, ParseErrorCode::kUnbalancedParens);
}

TEST(CanonicalTest, ParserRejectsMalformedOperatorsWithTypedError) {
  for (const std::string text : {"A &", "| B", "A & & B", "&"}) {
    const ParseResult p = ParseExpression(text);
    EXPECT_FALSE(p.ok()) << text;
    EXPECT_EQ(p.code, ParseErrorCode::kUnexpectedToken) << text;
  }
  // A well-formed prefix followed by junk is classified as trailing input.
  for (const std::string text : {"A B", "A $ B"}) {
    const ParseResult p = ParseExpression(text);
    EXPECT_FALSE(p.ok()) << text;
    EXPECT_EQ(p.code, ParseErrorCode::kTrailingInput) << text;
  }
}

TEST(CanonicalTest, ParserCapsNestingDepthWithTypedError) {
  // Balanced but absurdly deep input must be refused, not overflow the
  // stack. 256 levels is the documented cap; 300 exceeds it.
  std::string deep;
  for (int i = 0; i < 300; ++i) deep += "(";
  deep += "A";
  for (int i = 0; i < 300; ++i) deep += ")";
  const ParseResult p = ParseExpression(deep);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.code, ParseErrorCode::kTooDeep);
  EXPECT_NE(p.error.find("position"), std::string::npos) << p.error;

  // Just under the cap still parses.
  std::string shallow;
  for (int i = 0; i < 200; ++i) shallow += "(";
  shallow += "A";
  for (int i = 0; i < 200; ++i) shallow += ")";
  EXPECT_TRUE(ParseExpression(shallow).ok());
}

TEST(CanonicalTest, ParseSuccessReportsNoErrorCode) {
  const ParseResult p = ParseExpression("(A - B) & C");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.code, ParseErrorCode::kNone);
  EXPECT_TRUE(p.error.empty());
}

}  // namespace
}  // namespace setsketch
