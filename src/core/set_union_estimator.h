// The set-union cardinality estimator of Section 3.3 (Figure 5).
//
// Scans first-level bucket indices from 0 upward for the smallest index at
// which at most a (1 + epsilon)/8 fraction of the r sketch copies has a
// non-empty bucket for the union, then inverts the occupancy probability
// p = 1 - (1 - 1/R)^u to recover u = |A_1 u ... u A_n|. Only first-level
// counters are consulted (set union never needs second-level hashing).

#ifndef SETSKETCH_CORE_SET_UNION_ESTIMATOR_H_
#define SETSKETCH_CORE_SET_UNION_ESTIMATOR_H_

#include <vector>

#include "core/property_checks.h"

namespace setsketch {

/// Outcome of a set-union estimation.
struct UnionEstimate {
  double estimate = 0.0;     ///< Estimated |A_1 u ... u A_n|.
  int level = -1;            ///< First-level index the estimate used.
  double p_hat = 0.0;        ///< Observed non-empty fraction at `level`.
  int nonempty_count = 0;    ///< Copies with a non-empty union bucket.
  int copies = 0;            ///< Total copies r examined.
  bool saturated = false;    ///< True if every level was too dense (the
                             ///< sketch has too few levels for this union).
  bool ok = false;           ///< False on invalid/mismatched inputs.
};

/// Estimates |A_1 u ... u A_n| from r aligned sketch groups.
///
/// `groups[i]` holds the i-th sketch copy of every participating stream
/// (all built from the same SketchSeed); see SketchBank::Groups().
/// `epsilon` is the relative-accuracy knob of Figure 5's threshold
/// f = (1 + epsilon) r / 8.
UnionEstimate EstimateSetUnion(const std::vector<SketchGroup>& groups,
                               double epsilon = 0.5);

/// Extension beyond the paper: maximum-likelihood union estimation over
/// ALL first-level buckets instead of Figure 5's single thresholded
/// level.
///
/// Each level j yields an independent binomial observation — k_j of r
/// copies have a non-empty union bucket, with per-copy probability
/// p_j(u) = 1 - (1 - 2^-(j+1))^u — so the log-likelihood
/// L(u) = sum_j [ k_j log p_j(u) + (r - k_j) log(1 - p_j(u)) ]
/// pools every level's evidence. L is maximized by golden-section search
/// over log2(u) (it is unimodal in practice). Typically ~5x lower error
/// than Figure 5 at the same r (bench_union at scale 0.25: median 4.8x,
/// range 2.9-11x over overlaps 0/0.5/1 and r = 32..512); the returned
/// `level`/`p_hat` report the Figure 5 stopping level for diagnostics.
UnionEstimate EstimateSetUnionMle(const std::vector<SketchGroup>& groups,
                                  double epsilon = 0.5);

}  // namespace setsketch

#endif  // SETSKETCH_CORE_SET_UNION_ESTIMATOR_H_
