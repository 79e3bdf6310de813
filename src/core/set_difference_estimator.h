// The set-difference cardinality estimator of Section 3.4 (Figure 6).
//
// Picks a first-level bucket slightly above log2 |A u B| so that the bucket
// is a singleton for the union with constant probability, then counts how
// often that singleton is a witness for A - B (present in A's bucket,
// absent from B's); the witness fraction times the union estimate is the
// set-difference estimate.

#ifndef SETSKETCH_CORE_SET_DIFFERENCE_ESTIMATOR_H_
#define SETSKETCH_CORE_SET_DIFFERENCE_ESTIMATOR_H_

#include <optional>
#include <vector>

#include "core/property_checks.h"
#include "core/witness_estimate.h"

namespace setsketch {

/// Tuning knobs for the witness-based estimators.
struct WitnessOptions {
  /// Relative-accuracy parameter epsilon of Figure 6 (affects only the
  /// witness-level choice; the achieved error is governed by r).
  double epsilon = 0.5;
  /// Over-shoot factor beta > 1 for the witness level; the Section 3.4
  /// analysis shows beta = 2 is optimal.
  double beta = 2.0;
  /// Paper-faithful mode (false): each sketch copy contributes at most one
  /// 0/1 observation, taken at the single witness level of Figure 6.
  /// Pooled mode (true): every first-level bucket that is a singleton for
  /// the union contributes an observation. Unbiased by the same argument —
  /// conditioned on *any* bucket being a union singleton, the singleton is
  /// a uniformly random union element, so the witness probability is
  /// |E| / |union| at every level — but the pool is ~10x larger
  /// (sum over levels of P[singleton] ~ 1.44 per copy), which matches the
  /// error magnitudes the paper's experiments report. See the
  /// bench_pooling ablation.
  bool pool_all_levels = false;
  /// Use the all-levels maximum-likelihood union estimator
  /// (EstimateSetUnionMle) instead of Figure 5's thresholded level when
  /// an estimator computes the union stage internally (the general
  /// expression estimator; binary estimators take u_hat from the
  /// caller). Extension beyond the paper; ablated in bench_union.
  bool mle_union = false;

  /// True iff the witness level is defined: beta > 1 and epsilon in
  /// (0, 1). Written as the positive test so NaN fails it.
  bool Valid() const { return beta > 1.0 && epsilon > 0 && epsilon < 1; }
};

/// One 0/1 witness observation from a single sketch-copy pair
/// (the paper's AtomicDiffEstimator). nullopt == "noEstimate".
std::optional<int> AtomicDiffEstimate(const TwoLevelHashSketch& a,
                                      const TwoLevelHashSketch& b,
                                      int level);

/// Estimates |A - B| from r aligned sketch pairs.
///
/// `pairs[i]` = {sketch of A, sketch of B} for copy i (see
/// SketchBank::Groups({"A", "B"})). `union_estimate` approximates |A u B|
/// (obtain it with EstimateSetUnion over the same pairs).
WitnessEstimate EstimateSetDifference(const std::vector<SketchGroup>& pairs,
                                      double union_estimate,
                                      const WitnessOptions& options = {});

}  // namespace setsketch

#endif  // SETSKETCH_CORE_SET_DIFFERENCE_ESTIMATOR_H_
