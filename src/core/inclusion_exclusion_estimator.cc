#include "core/inclusion_exclusion_estimator.h"

#include <unordered_map>

#include "core/set_union_estimator.h"
#include "expr/canonical.h"

namespace setsketch {

InclusionExclusionEstimate EstimateByInclusionExclusion(
    const Expression& expr, const std::vector<std::string>& stream_names,
    const std::vector<SketchGroup>& groups,
    const InclusionExclusionOptions& options) {
  InclusionExclusionEstimate result;
  if (groups.empty()) return result;

  // Resolve the expression's streams to group columns.
  std::unordered_map<std::string, size_t> column;
  for (size_t k = 0; k < stream_names.size(); ++k) {
    column.emplace(stream_names[k], k);
  }
  const std::vector<std::string> names = expr.StreamNames();
  const size_t n = names.size();
  if (n == 0 || n > 16) return result;
  std::vector<size_t> columns;
  for (const std::string& name : names) {
    auto it = column.find(name);
    if (it == column.end()) return result;
    columns.push_back(it->second);
  }
  for (const SketchGroup& group : groups) {
    if (group.size() != stream_names.size()) return result;
  }

  // Estimate u_S for every non-empty subset S of the expression streams.
  // Each subset rides the shared estimator kernel's union strategy
  // (EstimateSetUnion[Mle] is a thin wrapper over KernelEstimateUnion);
  // inclusion-exclusion only contributes the subset structure and the
  // Moebius transform below.
  const uint32_t full = (1u << n) - 1;
  std::vector<double> u(static_cast<size_t>(full) + 1, 0.0);
  for (uint32_t subset = 1; subset <= full; ++subset) {
    std::vector<SketchGroup> sub_groups;
    sub_groups.reserve(groups.size());
    for (const SketchGroup& group : groups) {
      SketchGroup sub;
      for (size_t bit = 0; bit < n; ++bit) {
        if ((subset >> bit) & 1) sub.push_back(group[columns[bit]]);
      }
      sub_groups.push_back(std::move(sub));
    }
    const UnionEstimate estimate =
        options.mle_union ? EstimateSetUnionMle(sub_groups, options.epsilon)
                          : EstimateSetUnion(sub_groups, options.epsilon);
    if (!estimate.ok) return result;
    u[subset] = estimate.estimate;
    ++result.unions_estimated;
  }

  // g(C) = u_full - u_{complement(C)}; then the inverse zeta (subset
  // Moebius) transform turns g into the per-region sizes m_T in place.
  std::vector<double> m(static_cast<size_t>(full) + 1, 0.0);
  for (uint32_t c = 0; c <= full; ++c) {
    const uint32_t complement = full & ~c;
    m[c] = u[full] - (complement == 0 ? 0.0 : u[complement]);
  }
  for (size_t bit = 0; bit < n; ++bit) {
    for (uint32_t mask = 0; mask <= full; ++mask) {
      if ((mask >> bit) & 1) m[mask] -= m[mask ^ (1u << bit)];
    }
  }

  // Sum the regions belonging to E (n <= 16 is within the enumeration
  // bound).
  const VennRegions regions = ResultRegions(expr, names);
  if (!regions.ok()) return result;
  double total = 0.0;
  for (uint32_t region : regions.masks) {
    total += m[region];
  }
  result.raw = total;
  result.estimate = total < 0.0 ? 0.0 : total;
  result.ok = true;
  return result;
}

}  // namespace setsketch
