#include "core/set_union_estimator.h"

#include "core/estimator_kernel.h"

namespace setsketch {

namespace {

// Validates that every group is non-empty, internally seed-consistent, and
// shaped like the others.
bool ValidateGroups(const std::vector<SketchGroup>& groups) {
  if (groups.empty()) return false;
  const size_t streams = groups[0].size();
  for (const SketchGroup& group : groups) {
    if (group.size() != streams || !GroupSeedsMatch(group)) return false;
    if (!(group[0]->seed().params() == groups[0][0]->seed().params())) {
      return false;
    }
  }
  return true;
}

}  // namespace

UnionEstimate EstimateSetUnion(const std::vector<SketchGroup>& groups,
                               double epsilon) {
  ProbeTable table;
  if (!ValidateGroups(groups) || !table.Build(groups)) return UnionEstimate{};
  return KernelEstimateUnion(table, epsilon, /*mle=*/false);
}

UnionEstimate EstimateSetUnionMle(const std::vector<SketchGroup>& groups,
                                  double epsilon) {
  ProbeTable table;
  if (!ValidateGroups(groups) || !table.Build(groups)) return UnionEstimate{};
  return KernelEstimateUnion(table, epsilon, /*mle=*/true);
}

}  // namespace setsketch
