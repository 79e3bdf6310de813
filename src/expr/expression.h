// Set-expression AST (Section 4).
//
// Expressions are trees over named stream leaves with the three standard
// set connectives: union, intersection, difference. Section 4's inductive
// definition maps them to OR, AND and AND-NOT, and that one Boolean
// structure decides
//   * element membership: e is in E iff Evaluate(member-of) is true, which
//     the exact evaluator uses for ground truth; and
//   * the paper's witness condition B(E): with "occupied" =
//     "bucket j non-empty in the stream's sketch", B(E) holds iff the
//     bucket's singleton element witnesses E.
// Evaluate is the pointwise reference, one assignment per call. Every
// bitset evaluation — B(E) over the probe table's cells, emptiness
// proofs, Venn regions — runs on the canonical plan instead, through
// EvaluatePlan (expr/canonical.h).

#ifndef SETSKETCH_EXPR_EXPRESSION_H_
#define SETSKETCH_EXPR_EXPRESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace setsketch {

class Expression;

/// Expressions are immutable and shared; sub-trees may be reused freely.
using ExprPtr = std::shared_ptr<const Expression>;

/// A node of a set-expression tree.
class Expression {
 public:
  enum class Kind {
    kStream,      ///< Leaf: a named input stream A_i.
    kUnion,       ///< E1 u E2.
    kIntersect,   ///< E1 n E2.
    kDifference,  ///< E1 - E2.
  };

  /// Leaf constructor.
  static ExprPtr Stream(std::string name);
  /// Connective constructors. Children must be non-null.
  static ExprPtr Union(ExprPtr left, ExprPtr right);
  static ExprPtr Intersect(ExprPtr left, ExprPtr right);
  static ExprPtr Difference(ExprPtr left, ExprPtr right);

  Kind kind() const { return kind_; }
  /// Leaf name; valid only for kStream.
  const std::string& name() const { return name_; }
  /// Children; null for kStream.
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  /// Distinct stream names referenced, in first-occurrence order.
  std::vector<std::string> StreamNames() const;

  /// Number of nodes in the tree.
  int NodeCount() const;

  /// Evaluates the expression's Boolean structure given a per-stream truth
  /// assignment. With `occupied(name)` = "element e is a member of stream
  /// `name`" this decides membership of e in E; with `occupied(name)` =
  /// "sketch bucket non-empty" this is the paper's witness condition B(E).
  bool Evaluate(
      const std::function<bool(const std::string&)>& occupied) const;

  /// Fully-parenthesized rendering, e.g. "((A - B) & C)".
  std::string ToString() const;

 private:
  Expression(Kind kind, std::string name, ExprPtr left, ExprPtr right)
      : kind_(kind),
        name_(std::move(name)),
        left_(std::move(left)),
        right_(std::move(right)) {}

  Kind kind_;
  std::string name_;
  ExprPtr left_;
  ExprPtr right_;
};

}  // namespace setsketch

#endif  // SETSKETCH_EXPR_EXPRESSION_H_
