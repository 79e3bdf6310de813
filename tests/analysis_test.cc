// Tests for expression static analysis: simplification, structural and
// semantic equality, Venn-region evaluation.

#include <gtest/gtest.h>

#include "expr/analysis.h"
#include "expr/parser.h"

namespace setsketch {
namespace {

ExprPtr P(const std::string& text) {
  const ParseResult result = ParseExpression(text);
  EXPECT_TRUE(result.ok()) << result.error;
  return result.expression;
}

/// "S0 <op> S1 <op> ... S<n-1>".
std::string Chain(int n, const std::string& op) {
  std::string text = "S0";
  for (int k = 1; k < n; ++k) text += " " + op + " S" + std::to_string(k);
  return text;
}

std::string SimplifyText(const std::string& text) {
  const ExprPtr simplified = Simplify(P(text));
  return simplified ? simplified->ToString() : "{}";
}

// ---------------------------------------------------------------------------
// Structural equality

TEST(StructuralEqualityTest, MatchesShapeAndNames) {
  EXPECT_TRUE(StructurallyEqual(*P("A & B"), *P("A & B")));
  EXPECT_FALSE(StructurallyEqual(*P("A & B"), *P("B & A")));
  EXPECT_FALSE(StructurallyEqual(*P("A & B"), *P("A | B")));
  EXPECT_FALSE(StructurallyEqual(*P("A"), *P("B")));
  EXPECT_TRUE(StructurallyEqual(*P("(A - B) & C"), *P("(A - B) & C")));
}

// ---------------------------------------------------------------------------
// Simplification

TEST(SimplifyTest, Idempotents) {
  EXPECT_EQ(SimplifyText("A | A"), "A");
  EXPECT_EQ(SimplifyText("A & A"), "A");
  EXPECT_EQ(SimplifyText("A - A"), "{}");
}

TEST(SimplifyTest, Absorption) {
  EXPECT_EQ(SimplifyText("A | (A & B)"), "A");
  EXPECT_EQ(SimplifyText("(A & B) | A"), "A");
  EXPECT_EQ(SimplifyText("A & (A | B)"), "A");
  EXPECT_EQ(SimplifyText("(A | B) & A"), "A");
}

TEST(SimplifyTest, DifferenceIdentities) {
  EXPECT_EQ(SimplifyText("A - (A | B)"), "{}");
  EXPECT_EQ(SimplifyText("A - (B | A)"), "{}");
  EXPECT_EQ(SimplifyText("(A - B) - A"), "{}");
}

TEST(SimplifyTest, EmptySetPropagation) {
  // (A - A) vanishes and the enclosing operators fold it away.
  EXPECT_EQ(SimplifyText("(A - A) | B"), "B");
  EXPECT_EQ(SimplifyText("B | (A - A)"), "B");
  EXPECT_EQ(SimplifyText("(A - A) & B"), "{}");
  EXPECT_EQ(SimplifyText("B - (A - A)"), "B");
  EXPECT_EQ(SimplifyText("(A - A) - B"), "{}");
}

TEST(SimplifyTest, NestedCascades) {
  EXPECT_EQ(SimplifyText("((A | A) & (A | B))"), "A");
  EXPECT_EQ(SimplifyText("(A & A) - (A | B)"), "{}");
}

TEST(SimplifyTest, LeavesIrreducibleExpressionsAlone) {
  EXPECT_EQ(SimplifyText("A & B"), "(A & B)");
  EXPECT_EQ(SimplifyText("(A - B) & C"), "((A - B) & C)");
}

TEST(SimplifyTest, PreservesSemantics) {
  // Every rewrite must agree with the original on all Venn regions.
  const std::vector<std::string> cases = {
      "A | (A & B)", "A & (A | B)", "A - (A | B)", "(A - B) - A",
      "((A | A) & (A | B)) - (C - C)", "(A & B) | (B & A)"};
  for (const std::string& text : cases) {
    const ExprPtr original = P(text);
    const ExprPtr simplified = Simplify(original);
    if (!simplified) {
      EXPECT_TRUE(ProvablyEmpty(*original)) << text;
    } else {
      EXPECT_TRUE(SemanticallyEqual(*original, *simplified)) << text;
    }
  }
}

// ---------------------------------------------------------------------------
// Semantic equality / emptiness

TEST(SemanticEqualityTest, CommutativityAndDeMorganStyle) {
  EXPECT_TRUE(SemanticallyEqual(*P("A & B"), *P("B & A")));
  EXPECT_TRUE(SemanticallyEqual(*P("A | B"), *P("B | A")));
  EXPECT_TRUE(SemanticallyEqual(*P("A - B"), *P("A - (A & B)")));
  EXPECT_TRUE(SemanticallyEqual(*P("(A | B) - B"), *P("A - B")));
  EXPECT_FALSE(SemanticallyEqual(*P("A - B"), *P("B - A")));
  EXPECT_FALSE(SemanticallyEqual(*P("A & B"), *P("A | B")));
}

TEST(SemanticEqualityTest, DisjointStreamUniverses) {
  EXPECT_FALSE(SemanticallyEqual(*P("A"), *P("B")));
  EXPECT_TRUE(SemanticallyEqual(*P("A | A"), *P("A")));
}

TEST(ProvablyEmptyTest, DetectsContradictions) {
  EXPECT_TRUE(ProvablyEmpty(*P("A - A")));
  EXPECT_TRUE(ProvablyEmpty(*P("(A & B) - A")));
  EXPECT_TRUE(ProvablyEmpty(*P("(A & B) - (A | C)")));
  EXPECT_FALSE(ProvablyEmpty(*P("A - B")));
  EXPECT_FALSE(ProvablyEmpty(*P("A & B")));
}

TEST(ProvablyEmptyTest, DecidesUpToTheEnumerationBound) {
  // 16 distinct streams: 2^16 regions, decided exactly (and quickly: one
  // truth-table word covers 64 regions).
  const int n = static_cast<int>(kMaxEnumeratedStreams);
  EXPECT_TRUE(ProvablyEmpty(*P("(" + Chain(n, "&") + ") - S" +
                               std::to_string(n - 1))));
  EXPECT_FALSE(ProvablyEmpty(*P("(" + Chain(n, "|") + ") - S0")));
  // Region 2^16 - 1 (every stream) is the only one in the intersection.
  EXPECT_FALSE(ProvablyEmpty(*P(Chain(n, "&"))));
}

TEST(ProvablyEmptyTest, AboveTheBoundNothingIsProvable) {
  // Empty for every input, but over 17 and 70 streams: the check answers
  // "not provable" instead of enumerating 2^n regions (or shifting a
  // 32-bit mask past its width).
  for (const int n : {17, 40, 70}) {
    const ExprPtr contradiction =
        P("(" + Chain(n, "&") + ") - S" + std::to_string(n - 1));
    EXPECT_FALSE(ProvablyEmpty(*contradiction)) << n;
    EXPECT_FALSE(ProvablySubset(*P(Chain(n, "&")), *P(Chain(n, "|")))) << n;
    EXPECT_FALSE(SemanticallyEqual(*P(Chain(n, "|")), *P(Chain(n, "|"))))
        << n;
  }
  // Simplify then leaves such an expression alone rather than proving it.
  EXPECT_NE(Simplify(P("(" + Chain(17, "&") + ") - S0")), nullptr);
}

// ---------------------------------------------------------------------------
// Venn regions

TEST(RegionTest, BinaryOperators) {
  const std::vector<std::string> order = {"A", "B"};
  // A & B: only region 3 (both bits).
  EXPECT_EQ(ResultRegions(*P("A & B"), order).masks,
            (std::vector<uint32_t>{3}));
  // A - B: only region 1.
  EXPECT_EQ(ResultRegions(*P("A - B"), order).masks,
            (std::vector<uint32_t>{1}));
  // A | B: regions 1, 2, 3.
  EXPECT_EQ(ResultRegions(*P("A | B"), order).masks,
            (std::vector<uint32_t>{1, 2, 3}));
}

TEST(RegionTest, PaperExpression) {
  // (A - B) & C over A=bit0, B=bit1, C=bit2 is exactly region 5.
  const std::vector<std::string> order = {"A", "B", "C"};
  EXPECT_EQ(ResultRegions(*P("(A - B) & C"), order).masks,
            (std::vector<uint32_t>{5}));
}

TEST(RegionTest, NamesAbsentFromOrderAreEmptyStreams) {
  // With only A in the order, B is always empty: A - B == A.
  const std::vector<std::string> order = {"A"};
  EXPECT_EQ(ResultRegions(*P("A - B"), order).masks,
            (std::vector<uint32_t>{1}));
  EXPECT_TRUE(ResultRegions(*P("A & B"), order).masks.empty());
}

TEST(RegionTest, RegionCountMatchesTruthTable) {
  // |regions(A | B | C)| = 7 (every non-empty region).
  const std::vector<std::string> order = {"A", "B", "C"};
  EXPECT_EQ(ResultRegions(*P("A | B | C"), order).masks.size(), 7u);
  // A & B & C: the single all-ones region.
  EXPECT_EQ(ResultRegions(*P("A & B & C"), order).masks,
            (std::vector<uint32_t>{7}));
}

TEST(RegionTest, ManyStreamsAcrossWords) {
  // Eight streams span four 64-region words; the intersection is the one
  // all-ones region and the union every non-empty one.
  std::vector<std::string> order;
  for (int k = 0; k < 8; ++k) order.push_back("S" + std::to_string(k));
  EXPECT_EQ(ResultRegions(*P(Chain(8, "&")), order).masks,
            (std::vector<uint32_t>{255}));
  EXPECT_EQ(ResultRegions(*P(Chain(8, "|")), order).masks.size(), 255u);
  const VennRegions s7_only = ResultRegions(*P("S7 - (" + Chain(7, "|") + ")"),
                                            order);
  EXPECT_EQ(s7_only.masks, (std::vector<uint32_t>{128}));
}

TEST(RegionTest, RefusesOrdersAboveTheBound) {
  std::vector<std::string> order;
  for (size_t k = 0; k <= kMaxRegionStreams; ++k) {
    order.push_back("S" + std::to_string(k));
  }
  const VennRegions refused = ResultRegions(*P("S0 & S1"), order);
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(refused.masks.empty());
  EXPECT_NE(refused.error.find("limited to 20"), std::string::npos)
      << refused.error;
  order.pop_back();
  const VennRegions at_bound = ResultRegions(*P("S0 & S1"), order);
  ASSERT_TRUE(at_bound.ok()) << at_bound.error;
  EXPECT_EQ(at_bound.masks.size(), size_t{1} << (kMaxRegionStreams - 2));
}

}  // namespace
}  // namespace setsketch
