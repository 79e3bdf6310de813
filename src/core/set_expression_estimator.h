// The general set-expression cardinality estimator of Section 4.
//
// For an expression E over streams A_1..A_n, pick a witness level slightly
// above log2 |U| (U = union of all participating streams, estimated with
// the Figure 5 union estimator over the same sketches), discard copies
// whose level-j bucket is not a singleton for U, and for the rest evaluate
// the Boolean witness condition B(E): "bucket non-empty in sketch of A_i"
// at the leaves, OR / AND / AND-NOT at union / intersection / difference
// nodes. The witness fraction times the union estimate is the estimate of
// |E| (the conditional witness probability is exactly |E| / |U|).

#ifndef SETSKETCH_CORE_SET_EXPRESSION_ESTIMATOR_H_
#define SETSKETCH_CORE_SET_EXPRESSION_ESTIMATOR_H_

#include <string>
#include <vector>

#include "core/estimator_kernel.h"
#include "core/property_checks.h"
#include "core/set_difference_estimator.h"  // WitnessOptions
#include "core/set_union_estimator.h"
#include "core/witness_estimate.h"
#include "expr/expression.h"

namespace setsketch {

class SketchBank;

/// Full outcome of a set-expression estimation.
struct ExpressionEstimate {
  WitnessEstimate expression;   ///< The |E| estimate (see .estimate, .ok).
  UnionEstimate union_part;     ///< The |U| estimate it was scaled by.
  bool ok = false;              ///< True iff both stages succeeded.
};

/// Estimates |E| from r aligned sketch groups.
///
/// `stream_names` gives the group column order: groups[i][k] is the i-th
/// sketch copy of stream stream_names[k]. Every stream referenced by `expr`
/// must appear in `stream_names`.
ExpressionEstimate EstimateSetExpression(
    const Expression& expr, const std::vector<std::string>& stream_names,
    const std::vector<SketchGroup>& groups,
    const WitnessOptions& options = {});

/// Convenience overload: pulls the groups for the expression's streams out
/// of a SketchBank.
ExpressionEstimate EstimateSetExpression(
    const Expression& expr, const SketchBank& bank,
    const WitnessOptions& options = {});

/// The expression strategy over a probe table: stage-1 union estimate
/// from the table, stage-2 witness counting over `witness` — B(E) per
/// cell, a table.words() bitset (EvaluatePlan over the table's occupancy
/// bitsets). This is the engine both EstimateSetExpression and the plan
/// cache's compiled plans run on — given bit-identical tables it produces
/// bit-identical estimates. Callers validate their own inputs; the
/// witness bits are only read at union-singleton cells.
ExpressionEstimate EstimateExpressionWithKernel(
    const ProbeTable& table, const uint64_t* witness,
    const WitnessOptions& options);

}  // namespace setsketch

#endif  // SETSKETCH_CORE_SET_EXPRESSION_ESTIMATOR_H_
