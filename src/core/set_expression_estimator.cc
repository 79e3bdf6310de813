#include "core/set_expression_estimator.h"

#include <unordered_map>

#include "core/sketch_bank.h"
#include "expr/canonical.h"

namespace setsketch {

namespace {

bool ValidateGroups(const std::vector<SketchGroup>& groups,
                    size_t num_streams) {
  if (groups.empty() || num_streams == 0) return false;
  for (const SketchGroup& group : groups) {
    if (group.size() != num_streams || !GroupSeedsMatch(group)) return false;
    if (!(group[0]->seed().params() == groups[0][0]->seed().params())) {
      return false;
    }
  }
  return true;
}

}  // namespace

ExpressionEstimate EstimateExpressionWithKernel(
    const ProbeTable& table, const uint64_t* witness,
    const WitnessOptions& options) {
  ExpressionEstimate result;
  if (!options.Valid()) return result;

  // Stage 1: estimate |U| over all participating streams (Figure 5, or
  // the all-levels MLE extension when requested).
  result.union_part =
      KernelEstimateUnion(table, options.epsilon, options.mle_union);
  if (!result.union_part.ok) return result;

  WitnessEstimate& w = result.expression;
  if (result.union_part.estimate <= 0) {
    // Empty union: |E| is exactly 0 and no witness sampling is needed.
    w.copies = table.copies();
    w.union_estimate = result.union_part.estimate;
    w.estimate = 0;
    w.level = 0;
    w.ok = true;
    result.ok = true;
    return result;
  }

  // Stage 2: collect 0/1 witness observations from union-singleton buckets
  // (Section 4) — one bucket per copy in paper-faithful mode, every
  // singleton bucket in pooled mode.
  result.expression = KernelCountWitnesses(
      table, witness, result.union_part.estimate, options);
  result.ok = result.expression.ok;
  return result;
}

ExpressionEstimate EstimateSetExpression(
    const Expression& expr, const std::vector<std::string>& stream_names,
    const std::vector<SketchGroup>& groups, const WitnessOptions& options) {
  if (!ValidateGroups(groups, stream_names.size())) {
    return ExpressionEstimate{};
  }

  // Column lookup: expression stream name -> group index.
  std::unordered_map<std::string, size_t> column;
  for (size_t k = 0; k < stream_names.size(); ++k) {
    column.emplace(stream_names[k], k);
  }
  for (const std::string& name : expr.StreamNames()) {
    if (!column.contains(name)) return ExpressionEstimate{};  // Unknown.
  }

  // Thin strategy: the probe table of the groups plus the witness
  // condition B(E) over it — each stream's occupancy bitset at the
  // leaves, OR / AND / AND-NOT at the connectives of the canonical plan
  // (pointwise equal to the AST's).
  ProbeTable table;
  if (!table.Build(groups)) return ExpressionEstimate{};
  const CanonicalPlan plan = Canonicalize(expr);
  std::vector<const uint64_t*> leaves;
  for (const std::string& name : plan.streams) {
    leaves.push_back(table.occupancy(static_cast<int>(column.at(name))));
  }
  std::vector<uint64_t> scratch;
  return EstimateExpressionWithKernel(
      table, EvaluatePlan(plan, leaves, table.words(), &scratch), options);
}

ExpressionEstimate EstimateSetExpression(const Expression& expr,
                                         const SketchBank& bank,
                                         const WitnessOptions& options) {
  const std::vector<std::string> names = expr.StreamNames();
  const std::vector<SketchGroup> groups = bank.Groups(names);
  if (groups.empty()) return {};
  return EstimateSetExpression(expr, names, groups, options);
}

}  // namespace setsketch
