// Tests for the planner front end (expr/canonical.h): canonical-form
// equality of commuted/reassociated inputs, structural hashing, common
// sub-expression identification, pointwise Boolean equivalence of the
// rewrites, emptiness proofs and Venn regions through the one plan
// evaluator, and the parser's typed error paths the planner depends on.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "expr/canonical.h"
#include "expr/expression.h"
#include "expr/parser.h"
#include "query/plan_cache.h"

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

/// The region masks (bit i: member of order[i]) on which Expression::
/// Evaluate holds, region by region — the pointwise reference for
/// ResultRegions and ProvablyEmpty. Names absent from the order are empty;
/// a repeated name is its first position.
std::vector<uint32_t> ReferenceRegions(const Expression& expr,
                                       const std::vector<std::string>& order) {
  std::unordered_map<std::string, int> position;
  for (size_t i = 0; i < order.size(); ++i) {
    position.emplace(order[i], static_cast<int>(i));
  }
  std::vector<uint32_t> regions;
  for (uint32_t mask = 0; mask < (uint32_t{1} << order.size()); ++mask) {
    const bool in = expr.Evaluate([&](const std::string& name) {
      const auto it = position.find(name);
      return it != position.end() && ((mask >> it->second) & 1u) != 0;
    });
    if (in) regions.push_back(mask);
  }
  return regions;
}

TEST(CanonicalTest, RandomizedPlansStayPointwiseEquivalent) {
  std::mt19937_64 rng(0xC0FFEE);
  const std::vector<std::string> names = {"A", "B", "C", "D"};
  for (int trial = 0; trial < 200; ++trial) {
    const ExprPtr expr = RandomExpression(rng, names, 4);
    ExpectPlanMatchesTreeOnAllAssignments(*expr);
    // The plan's rendering parses back to a tree with the same semantics.
    const CanonicalPlan plan = Canonicalize(*expr);
    const ExprPtr back = Parse(plan.ToString());
    ASSERT_NE(back, nullptr);
    // The rendering names no stream the tree lacks.
    const std::vector<std::string> order = expr->StreamNames();
    EXPECT_EQ(ReferenceRegions(*back, order), ReferenceRegions(*expr, order))
        << expr->ToString() << " vs " << back->ToString();
    // Canonicalization is a fixed point: re-canonicalizing the parsed
    // rendering changes nothing.
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

// --- Structural equality ------------------------------------------------

TEST(StructuralEqualityTest, MatchesShapeAndNames) {
  // The rendering is fully parenthesized, so equal strings are equal
  // trees: same shape, operators and leaf names.
  const auto render = [](const std::string& text) {
    return Parse(text)->ToString();
  };
  EXPECT_EQ(render("A & B"), render("A & B"));
  EXPECT_NE(render("A & B"), render("B & A"));
  EXPECT_NE(render("A & B"), render("A | B"));
  EXPECT_NE(render("A"), render("B"));
  EXPECT_EQ(render("(A - B) & C"), render("(A - B) & C"));
}

// --- Set identities, emptiness and semantic equality ---------------------

bool Empty(const std::string& text) { return ProvablyEmpty(Canon(text)); }

/// The Venn regions of `text` over A, B, C — equal region lists are equal
/// results for every possible stream contents.
std::vector<uint32_t> Regions(const std::string& text) {
  const VennRegions regions = ResultRegions(*Parse(text), {"A", "B", "C"});
  EXPECT_TRUE(regions.ok()) << regions.error;
  return regions.masks;
}

/// "S0 <op> S1 <op> ... S<n-1>".
std::string Chain(int n, const std::string& op) {
  std::string text = "S0";
  for (int k = 1; k < n; ++k) text += " " + op + " S" + std::to_string(k);
  return text;
}

TEST(SetIdentityTest, Idempotents) {
  EXPECT_EQ(Regions("A | A"), Regions("A"));
  EXPECT_EQ(Regions("A & A"), Regions("A"));
  EXPECT_TRUE(Empty("A - A"));
}

TEST(SetIdentityTest, Absorption) {
  EXPECT_EQ(Regions("A | (A & B)"), Regions("A"));
  EXPECT_EQ(Regions("(A & B) | A"), Regions("A"));
  EXPECT_EQ(Regions("A & (A | B)"), Regions("A"));
  EXPECT_EQ(Regions("(A | B) & A"), Regions("A"));
}

TEST(SetIdentityTest, DifferenceIdentities) {
  EXPECT_TRUE(Empty("A - (A | B)"));
  EXPECT_TRUE(Empty("A - (B | A)"));
  EXPECT_TRUE(Empty("(A - B) - A"));
}

TEST(SetIdentityTest, EmptySetPropagation) {
  // (A - A) is empty, and the enclosing operators fold it away.
  EXPECT_EQ(Regions("(A - A) | B"), Regions("B"));
  EXPECT_EQ(Regions("B | (A - A)"), Regions("B"));
  EXPECT_TRUE(Empty("(A - A) & B"));
  EXPECT_EQ(Regions("B - (A - A)"), Regions("B"));
  EXPECT_TRUE(Empty("(A - A) - B"));
}

TEST(SetIdentityTest, NestedCascades) {
  EXPECT_EQ(Regions("((A | A) & (A | B))"), Regions("A"));
  EXPECT_TRUE(Empty("(A & A) - (A | B)"));
}

TEST(SemanticEqualityTest, CommutativityAndDeMorganStyle) {
  EXPECT_EQ(Regions("A & B"), Regions("B & A"));
  EXPECT_EQ(Regions("A | B"), Regions("B | A"));
  EXPECT_EQ(Regions("A - B"), Regions("A - (A & B)"));
  EXPECT_EQ(Regions("(A | B) - B"), Regions("A - B"));
  EXPECT_NE(Regions("A - B"), Regions("B - A"));
  EXPECT_NE(Regions("A & B"), Regions("A | B"));
}

TEST(SemanticEqualityTest, DisjointStreamUniverses) {
  EXPECT_NE(Regions("A"), Regions("B"));
  EXPECT_EQ(Regions("A | A"), Regions("A"));
  // Containment is inclusion of region lists: A & B is within A, A is
  // not within B.
  const std::vector<uint32_t> a = Regions("A");
  const std::vector<uint32_t> ab = Regions("A & B");
  EXPECT_TRUE(std::includes(a.begin(), a.end(), ab.begin(), ab.end()));
  const std::vector<uint32_t> b = Regions("B");
  EXPECT_FALSE(std::includes(b.begin(), b.end(), a.begin(), a.end()));
}

TEST(ProvablyEmptyTest, DetectsContradictions) {
  EXPECT_TRUE(Empty("A - A"));
  EXPECT_TRUE(Empty("(A & B) - A"));
  EXPECT_TRUE(Empty("(A & B) - (A | C)"));
  EXPECT_FALSE(Empty("A - B"));
  EXPECT_FALSE(Empty("A & B"));
}

TEST(ProvablyEmptyTest, DecidesUpToTheEnumerationBound) {
  // 16 distinct streams: 2^16 regions, decided exactly (and quickly: one
  // truth-table word covers 64 regions).
  const int n = static_cast<int>(kMaxEnumeratedStreams);
  EXPECT_TRUE(Empty("(" + Chain(n, "&") + ") - S" + std::to_string(n - 1)));
  EXPECT_FALSE(Empty("(" + Chain(n, "|") + ") - S0"));
  // Region 2^16 - 1 (every stream) is the only one in the intersection.
  EXPECT_FALSE(Empty(Chain(n, "&")));
}

TEST(ProvablyEmptyTest, AboveTheBoundNothingIsProvable) {
  // Empty for every input, but over 17, 40 and 70 streams: the check
  // answers "not provable" instead of enumerating 2^n regions (or
  // shifting a 32-bit mask past its width), and region enumeration
  // refuses orders past its own bound.
  for (const int n : {17, 40, 70}) {
    EXPECT_FALSE(Empty("(" + Chain(n, "&") + ") - S" +
                       std::to_string(n - 1)))
        << n;
    std::vector<std::string> order;
    for (int k = 0; k < n; ++k) order.push_back("S" + std::to_string(k));
    EXPECT_EQ(ResultRegions(*Parse(Chain(n, "|")), order).ok(),
              static_cast<size_t>(n) <= kMaxRegionStreams)
        << n;
  }
}

TEST(ProvablyEmptyTest, LargeTextCompilesWithBoundedScratch) {
  // A balanced random tree of 2^15 leaves over 16 streams (65535 tree
  // nodes, over 10000 distinct plan nodes), compiled like a QUERY text.
  // The truth table is evaluated 64 words at a time, so the scratch arena
  // stays at nodes x 64 words; one full-width table (1024 words per node)
  // would take over 64 MiB by itself.
  std::mt19937_64 rng(0xB16);
  std::vector<std::string> names;
  for (int k = 0; k < 16; ++k) names.push_back("S" + std::to_string(k));
  const auto balanced = [&](auto&& self, int depth) -> std::string {
    if (depth == 0) return names[rng() % names.size()];
    const std::string left = self(self, depth - 1);
    const std::string right = self(self, depth - 1);
    return "(" + left + " " + "|&-"[rng() % 3] + " " + right + ")";
  };
  const std::string tree = balanced(balanced, 15);
  const std::string empty_text = "(" + tree + " & S3) - S3";

  // The proof alone, on a plan built beforehand: ru_maxrss (KiB) grows by
  // the arena and the leaf columns, far below a full-width table.
  const CanonicalPlan plan = Canon(empty_text);
  ASSERT_EQ(plan.streams.size(), 16u);
  ASSERT_GT(plan.nodes.size() * 1024 * sizeof(uint64_t), size_t{64} << 20);
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  EXPECT_TRUE(ProvablyEmpty(plan));
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 32 * 1024);

  // And through the compiler, which proves emptiness on its own plan.
  const auto empty = CompileQuery(empty_text);
  ASSERT_TRUE(empty->ok()) << empty->error;
  EXPECT_GE(empty->expression->NodeCount(), 10000);
  EXPECT_TRUE(empty->provably_empty);
  const auto nonempty = CompileQuery(tree + " | S3");
  ASSERT_TRUE(nonempty->ok()) << nonempty->error;
  EXPECT_FALSE(nonempty->provably_empty);
}

// --- Venn regions --------------------------------------------------------

TEST(RegionTest, BinaryOperators) {
  const std::vector<std::string> order = {"A", "B"};
  // A & B: only region 3 (both bits).
  EXPECT_EQ(ResultRegions(*Parse("A & B"), order).masks,
            (std::vector<uint32_t>{3}));
  // A - B: only region 1.
  EXPECT_EQ(ResultRegions(*Parse("A - B"), order).masks,
            (std::vector<uint32_t>{1}));
  // A | B: regions 1, 2, 3.
  EXPECT_EQ(ResultRegions(*Parse("A | B"), order).masks,
            (std::vector<uint32_t>{1, 2, 3}));
}

TEST(RegionTest, PaperExpression) {
  // (A - B) & C over A=bit0, B=bit1, C=bit2 is exactly region 5.
  const std::vector<std::string> order = {"A", "B", "C"};
  EXPECT_EQ(ResultRegions(*Parse("(A - B) & C"), order).masks,
            (std::vector<uint32_t>{5}));
}

TEST(RegionTest, NamesAbsentFromOrderAreEmptyStreams) {
  // With only A in the order, B is always empty: A - B == A.
  const std::vector<std::string> order = {"A"};
  EXPECT_EQ(ResultRegions(*Parse("A - B"), order).masks,
            (std::vector<uint32_t>{1}));
  EXPECT_TRUE(ResultRegions(*Parse("A & B"), order).masks.empty());
}

TEST(RegionTest, RegionCountMatchesTruthTable) {
  // |regions(A | B | C)| = 7 (every non-empty region).
  const std::vector<std::string> order = {"A", "B", "C"};
  EXPECT_EQ(ResultRegions(*Parse("A | B | C"), order).masks.size(), 7u);
  // A & B & C: the single all-ones region.
  EXPECT_EQ(ResultRegions(*Parse("A & B & C"), order).masks,
            (std::vector<uint32_t>{7}));
}

TEST(RegionTest, ManyStreamsAcrossWords) {
  // Eight streams span four 64-region words; the intersection is the one
  // all-ones region and the union every non-empty one.
  std::vector<std::string> order;
  for (int k = 0; k < 8; ++k) order.push_back("S" + std::to_string(k));
  EXPECT_EQ(ResultRegions(*Parse(Chain(8, "&")), order).masks,
            (std::vector<uint32_t>{255}));
  EXPECT_EQ(ResultRegions(*Parse(Chain(8, "|")), order).masks.size(), 255u);
  const VennRegions s7_only =
      ResultRegions(*Parse("S7 - (" + Chain(7, "|") + ")"), order);
  EXPECT_EQ(s7_only.masks, (std::vector<uint32_t>{128}));
}

TEST(RegionTest, RefusesOrdersAboveTheBound) {
  std::vector<std::string> order;
  for (size_t k = 0; k <= kMaxRegionStreams; ++k) {
    order.push_back("S" + std::to_string(k));
  }
  const VennRegions refused = ResultRegions(*Parse("S0 & S1"), order);
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(refused.masks.empty());
  EXPECT_NE(refused.error.find("limited to 20"), std::string::npos)
      << refused.error;
  order.pop_back();
  const VennRegions at_bound = ResultRegions(*Parse("S0 & S1"), order);
  ASSERT_TRUE(at_bound.ok()) << at_bound.error;
  EXPECT_EQ(at_bound.masks.size(), size_t{1} << (kMaxRegionStreams - 2));
}

TEST(RegionTest, ChunkedEvaluationMatchesPointwiseReference) {
  // Orders of 1 and 5 streams fill part of one truth-table word, 6 one
  // word, 7 and 12 several words of one 64-word chunk, and 13, 16 and 20
  // several chunks. Each trial draws its expression from the order's
  // names, from the order plus names it lacks, or from half the order
  // (the rest are extra names the expression never mentions).
  std::mt19937_64 rng(0x5EC7);
  for (const int n : {1, 5, 6, 7, 12, 13, 16, 20}) {
    std::vector<std::string> order;
    for (int k = 0; k < n; ++k) order.push_back("S" + std::to_string(k));
    std::shuffle(order.begin(), order.end(), rng);
    const int trials = n >= 16 ? 3 : 12;
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<std::string> pool = order;
      if (trial % 3 == 1) {
        pool.push_back("X0");
        pool.push_back("X1");
      } else if (trial % 3 == 2) {
        pool.resize(static_cast<size_t>(std::max(1, n / 2)));
      }
      const ExprPtr expr = RandomExpression(rng, pool, 6);
      const ExprPtr leaf = Expression::Stream(pool[rng() % pool.size()]);
      // Random expressions are rarely empty; (E & X) - X always is.
      for (const ExprPtr& e :
           {expr, Expression::Difference(Expression::Intersect(expr, leaf),
                                         leaf)}) {
        const VennRegions regions = ResultRegions(*e, order);
        ASSERT_TRUE(regions.ok()) << regions.error;
        EXPECT_EQ(regions.masks, ReferenceRegions(*e, order))
            << "n=" << n << " " << e->ToString();
        const std::vector<std::string> own = e->StreamNames();
        EXPECT_EQ(ProvablyEmpty(Canonicalize(*e)),
                  own.size() <= kMaxEnumeratedStreams &&
                      ReferenceRegions(*e, own).empty())
            << "n=" << n << " " << e->ToString();
      }
    }
  }
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
