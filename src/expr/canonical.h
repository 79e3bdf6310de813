// Canonical plan form for set expressions, and the one Boolean evaluator
// over it.
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
//
// EvaluatePlan is the only bitset evaluator of set expressions: Section
// 4's map of union / intersection / difference to OR / AND / AND-NOT, run
// word-wise over the DAG. The planner feeds it the probe table's cells
// (B(E) per (copy, level) cell); ProvablyEmpty and ResultRegions feed it
// truth-table columns, one bit per Venn region, so the same pass decides
// emptiness and lists the regions an expression's result covers (the
// inclusion-exclusion baseline's region sum). Expression::Evaluate stays
// the pointwise reference behind the exact evaluator and the tests.

#ifndef SETSKETCH_EXPR_CANONICAL_H_
#define SETSKETCH_EXPR_CANONICAL_H_

#include <cstddef>
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

/// Largest number of distinct streams ProvablyEmpty enumerates (2^16 Venn
/// regions, 1024 words of 64). Above it the check answers "not
/// provable": deciding emptiness of a union/intersection/difference
/// formula is NP-complete in general, and every caller treats a "true" as
/// an optimization or a proof, never as a requirement.
inline constexpr size_t kMaxEnumeratedStreams = 16;

/// Largest stream order ResultRegions enumerates (2^20 regions).
inline constexpr size_t kMaxRegionStreams = 20;

/// True iff the plan denotes the empty set for every possible stream
/// contents, decided exactly by evaluating it over all 2^n Venn regions
/// when it names at most kMaxEnumeratedStreams streams; false above that.
bool ProvablyEmpty(const CanonicalPlan& plan);

/// The Venn regions of an expression's result.
struct VennRegions {
  /// Region bitmasks in E, ascending: bit i of a mask means "member of
  /// stream_order[i]". The empty region (mask 0) is never in E.
  std::vector<uint32_t> masks;
  /// Set (and `masks` empty) when the order names more than
  /// kMaxRegionStreams streams.
  std::string error;
  bool ok() const { return error.empty(); }
};

/// All region bitmasks (over stream_order, 1 .. 2^n - 1) that belong to
/// E — the exact counterpart of PartitionedDataset::CountWhere — from
/// EvaluatePlan over the canonical plan of `expr`. Names of `expr` absent
/// from the order are treated as empty streams; a name the order repeats
/// is its first position.
VennRegions ResultRegions(const Expression& expr,
                          const std::vector<std::string>& stream_order);

}  // namespace setsketch

#endif  // SETSKETCH_EXPR_CANONICAL_H_
