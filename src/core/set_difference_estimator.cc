#include "core/set_difference_estimator.h"

#include "core/estimator_kernel.h"

namespace setsketch {

namespace {

bool ValidatePairs(const std::vector<SketchGroup>& pairs) {
  if (pairs.empty()) return false;
  for (const SketchGroup& pair : pairs) {
    if (pair.size() != 2 || !GroupSeedsMatch(pair)) return false;
    if (!(pair[0]->seed().params() == pairs[0][0]->seed().params())) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<int> AtomicDiffEstimate(const TwoLevelHashSketch& a,
                                      const TwoLevelHashSketch& b,
                                      int level) {
  if (!SingletonUnionBucket(a, b, level)) return std::nullopt;
  // The single union element is a witness for A - B iff it lives in A's
  // bucket and B's bucket is empty (Figure 6, step 5).
  const bool witness = SingletonBucket(a, level) && BucketEmpty(b, level);
  return witness ? 1 : 0;
}

WitnessEstimate EstimateSetDifference(const std::vector<SketchGroup>& pairs,
                                      double union_estimate,
                                      const WitnessOptions& options) {
  // Thin strategy over the shared kernel: the pairwise table reproduces
  // AtomicDiffEstimate's SingletonUnionBucket gate; at a union singleton,
  // Figure 6's step 5 (A's bucket a singleton, B's empty) is A occupied
  // and B not.
  ProbeTable table;
  if (!ValidatePairs(pairs) || !table.Build(pairs, /*pairwise=*/true)) {
    return WitnessEstimate{};
  }
  std::vector<uint64_t> witness(table.words());
  for (size_t w = 0; w < witness.size(); ++w) {
    witness[w] = table.occupancy(0)[w] & ~table.occupancy(1)[w];
  }
  return KernelCountWitnesses(table, witness.data(), union_estimate, options);
}

}  // namespace setsketch
