// Canonical plan form for set expressions (the planner's front end).
//
// Canonicalize() rewrites a binary expression tree into a hash-consed DAG
// in which
//   * nested unions / intersections are flattened into n-ary nodes,
//   * n-ary children are deduplicated (X u X = X) and sorted by structural
//     hash, so commuted / reassociated inputs produce one plan,
//   * left-nested differences are pushed down:
//     (X - Y) - Z  ->  X - (Y u Z), pointwise Boolean-equivalent since
//     (x && !y) && !z == x && !(y || z), and
//   * structurally identical sub-expressions are interned once (common
//     sub-expression identification; `uses` counts DAG parents).
//
// Two semantically-commuted inputs such as "A | (B & C)" and "(C & B) | A"
// therefore canonicalize to byte-identical plans with equal structural
// hashes, which is what query/plan_cache.h keys its cache on. Every rewrite
// preserves the Boolean witness function pointwise, so estimates computed
// over the canonical plan are bit-identical to direct evaluation of the
// original tree (tests/plan_cache_test.cc asserts exactly this).

#ifndef SETSKETCH_EXPR_CANONICAL_H_
#define SETSKETCH_EXPR_CANONICAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "expr/expression.h"

namespace setsketch {

/// One node of a canonical plan DAG.
struct CanonicalNode {
  Expression::Kind kind = Expression::Kind::kStream;
  std::string name;           ///< Leaf stream name (kStream only).
  int column = -1;            ///< Index into CanonicalPlan::streams (leaf).
  /// Child node ids (always smaller than this node's id). kUnion and
  /// kIntersect hold >= 2 sorted distinct children; kDifference holds
  /// exactly {base, subtrahend}.
  std::vector<int> children;
  uint64_t hash = 0;          ///< Structural hash of the subtree.
  int uses = 0;               ///< DAG parents (> 1 == shared / CSE hit).
};

/// A canonicalized expression: hash-consed nodes in bottom-up order.
struct CanonicalPlan {
  std::vector<CanonicalNode> nodes;   ///< Children precede parents.
  int root = -1;
  std::vector<std::string> streams;   ///< Sorted distinct leaf names.

  bool ok() const { return root >= 0; }
  /// Structural hash of the whole plan (the plan-cache key).
  uint64_t hash() const;
  /// Canonical rendering, e.g. "(A | (B & C))". Equal plans render
  /// equally; the cache uses the text as its hash-collision guard.
  std::string ToString() const;
  std::string NodeToString(int node) const;
  /// Internal (non-leaf) nodes referenced by more than one parent.
  int SharedNodeCount() const;
};

/// Canonicalizes an expression tree. Always succeeds for a well-formed
/// tree (the factories in expr/expression.h enforce non-null children).
CanonicalPlan Canonicalize(const Expression& expr);

/// Rebuilds a (binary, left-nested) expression tree with the canonical
/// shape — for tests and algebraic analysis over the canonical form.
ExprPtr CanonicalToExpression(const CanonicalPlan& plan);

/// Evaluates the plan's Boolean witness function bottom-up over bitsets
/// of `words` words: bit i of leaves[c] is the truth value of streams[c]
/// at point i (the probe table's cells). Each node is one OR / AND /
/// AND-NOT pass over whole bitsets, and bit i of the result is
/// Expression::Evaluate on the original tree at point i. `scratch` is
/// resized to nodes.size() * words and reused across calls (the plan
/// cache's scratch arena); the result points into it.
const uint64_t* EvaluatePlan(const CanonicalPlan& plan,
                             std::span<const uint64_t* const> leaves,
                             size_t words, std::vector<uint64_t>* scratch);

}  // namespace setsketch

#endif  // SETSKETCH_EXPR_CANONICAL_H_
