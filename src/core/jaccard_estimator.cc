#include "core/jaccard_estimator.h"

#include "core/set_intersection_estimator.h"
#include "core/set_union_estimator.h"

namespace setsketch {

JaccardEstimate EstimateJaccard(const std::vector<SketchGroup>& pairs,
                                const WitnessOptions& options) {
  JaccardEstimate result;
  if (pairs.empty() || !options.Valid()) return result;
  for (const SketchGroup& pair : pairs) {
    if (pair.size() != 2 || !GroupSeedsMatch(pair)) return result;
  }

  // Thin strategy over the shared kernel. Strict mode needs a union
  // estimate to pick its single witness level; pooled mode scans every
  // level, so the (unused) union estimate is pinned to 0.
  double union_estimate = 0.0;
  if (!options.pool_all_levels) {
    const UnionEstimate u = options.mle_union
                                ? EstimateSetUnionMle(pairs, options.epsilon)
                                : EstimateSetUnion(pairs, options.epsilon);
    if (!u.ok) return result;
    if (u.estimate <= 0) {
      // Both streams empty: J is conventionally 0.
      result.ok = true;
      return result;
    }
    union_estimate = u.estimate;
  }

  // J is the intersection's witness fraction: the same pairwise table
  // and witness bits.
  const WitnessEstimate counted =
      EstimateSetIntersection(pairs, union_estimate, options);
  result.valid_observations = counted.valid_observations;
  result.witnesses = counted.witnesses;
  if (result.valid_observations == 0) {
    // No singleton anywhere: either truly empty streams (J = 0 by
    // convention, ok) or too few copies for this workload (not ok).
    result.ok = pairs[0][0]->Empty() && pairs[0][1]->Empty();
    return result;
  }
  result.jaccard = static_cast<double>(result.witnesses) /
                   static_cast<double>(result.valid_observations);
  result.ok = true;
  return result;
}

Interval JaccardInterval(const JaccardEstimate& estimate, double z) {
  if (!estimate.ok) return {0.0, 0.0};
  return WilsonInterval(estimate.witnesses, estimate.valid_observations, z);
}

}  // namespace setsketch
