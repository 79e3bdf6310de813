// Static analysis utilities over set-expression trees: algebraic
// simplification, structural equality, emptiness detection, and
// Venn-region evaluation (which regions of the n-stream Venn diagram
// belong to the expression's result).
//
// Venn-region analysis connects expressions to the controlled data
// generator of Section 5.1: a PartitionedDataset assigns every element to
// a region bitmask, and |E| is exactly the number of elements whose
// region satisfies the expression — giving O(2^n) exact cardinalities
// instead of per-element evaluation.

#ifndef SETSKETCH_EXPR_ANALYSIS_H_
#define SETSKETCH_EXPR_ANALYSIS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "expr/expression.h"

namespace setsketch {

/// Structural equality of two expression trees (same shape, operators and
/// leaf names; no algebraic reasoning).
bool StructurallyEqual(const Expression& a, const Expression& b);

/// Algebraic simplification with set-identities that need no stream data:
///   X | X = X,  X & X = X,  X - X = 0,
///   X | (X & Y) = X,  X & (X | Y) = X (absorption, both orders),
///   X - (X | Y) = 0, (X - Y) - X = 0,
/// plus recursive constant propagation of the empty set (0 | Y = Y,
/// 0 & Y = 0, 0 - Y = 0, Y - 0 = Y). Returns nullptr if the whole
/// expression simplifies to the empty set. Identities are applied
/// bottom-up once; the result is not guaranteed minimal, but every
/// rewrite preserves semantics for all inputs.
ExprPtr Simplify(const ExprPtr& expr);

/// Largest number of distinct streams the emptiness, subset and
/// equivalence checks enumerate (2^16 Venn regions, 1024 words of 64).
/// Above it they answer "not provable": deciding emptiness of a
/// union/intersection/difference formula is NP-complete in general, and
/// every caller treats a "true" as an optimization or a proof, never as
/// a requirement.
inline constexpr size_t kMaxEnumeratedStreams = 16;

/// Largest stream order ResultRegions enumerates (2^20 regions).
inline constexpr size_t kMaxRegionStreams = 20;

/// True iff `expr` denotes the empty set for every possible stream
/// contents, decided exactly by evaluating all 2^n Venn regions when it
/// names at most kMaxEnumeratedStreams streams; false above that.
bool ProvablyEmpty(const Expression& expr);

/// True iff the two expressions agree on every Venn region of their
/// combined stream set (at most kMaxEnumeratedStreams streams; false
/// above that).
bool SemanticallyEqual(const Expression& a, const Expression& b);

/// True iff a's result is contained in b's result for every possible
/// stream contents (every Venn region in a is in b; at most
/// kMaxEnumeratedStreams combined streams, false above that).
bool ProvablySubset(const Expression& a, const Expression& b);

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
/// E — the exact counterpart of PartitionedDataset::CountWhere. Names of
/// `expr` absent from the order are treated as empty streams.
VennRegions ResultRegions(const Expression& expr,
                          const std::vector<std::string>& stream_order);

}  // namespace setsketch

#endif  // SETSKETCH_EXPR_ANALYSIS_H_
