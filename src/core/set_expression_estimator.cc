#include "core/set_expression_estimator.h"

#include <unordered_map>

#include "core/sketch_bank.h"

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
    const UnionView& view, const WitnessPredicate& witness,
    const WitnessOptions& options) {
  ExpressionEstimate result;
  if (!options.Valid()) return result;

  // Stage 1: estimate |U| over all participating streams (Figure 5, or
  // the all-levels MLE extension when requested).
  result.union_part =
      KernelEstimateUnion(view, options.epsilon, options.mle_union);
  if (!result.union_part.ok) return result;

  WitnessEstimate& w = result.expression;
  if (result.union_part.estimate <= 0) {
    // Empty union: |E| is exactly 0 and no witness sampling is needed.
    w.copies = view.copies();
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
      view, witness, result.union_part.estimate, options);
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

  // Thin strategy: the direct (unmerged) view plus the AST's witness
  // condition B(E) — "bucket non-empty in the stream's sketch" at the
  // leaves, OR / AND / AND-NOT at the connectives.
  const GroupUnionView view(groups);
  return EstimateExpressionWithKernel(
      view,
      [&](int copy, int level) {
        const SketchGroup& group = groups[static_cast<size_t>(copy)];
        return expr.Evaluate([&](const std::string& name) {
          const TwoLevelHashSketch* sketch = group[column.at(name)];
          return !BucketEmpty(*sketch, level);
        });
      },
      options);
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
