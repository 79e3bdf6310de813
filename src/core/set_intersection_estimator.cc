#include "core/set_intersection_estimator.h"

#include "core/estimator_kernel.h"

namespace setsketch {

std::optional<int> AtomicIntersectEstimate(const TwoLevelHashSketch& a,
                                           const TwoLevelHashSketch& b,
                                           int level) {
  if (!SingletonUnionBucket(a, b, level)) return std::nullopt;
  // Witness for A n B: the union singleton occupies both buckets
  // (Section 3.5's modified step 5).
  const bool witness =
      SingletonBucket(a, level) && SingletonBucket(b, level);
  return witness ? 1 : 0;
}

WitnessEstimate EstimateSetIntersection(
    const std::vector<SketchGroup>& pairs, double union_estimate,
    const WitnessOptions& options) {
  if (pairs.empty()) return WitnessEstimate{};
  for (const SketchGroup& pair : pairs) {
    if (pair.size() != 2 || !GroupSeedsMatch(pair)) return WitnessEstimate{};
  }
  // Thin strategy over the shared kernel; at a pairwise union singleton,
  // Section 3.5's modified step 5 (the singleton occupies both buckets)
  // is both columns occupied.
  ProbeTable table;
  if (!table.Build(pairs, /*pairwise=*/true)) return WitnessEstimate{};
  std::vector<uint64_t> witness(table.words());
  for (size_t w = 0; w < witness.size(); ++w) {
    witness[w] = table.occupancy(0)[w] & table.occupancy(1)[w];
  }
  return KernelCountWitnesses(table, witness.data(), union_estimate, options);
}

}  // namespace setsketch
