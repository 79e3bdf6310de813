#include "core/estimator_kernel.h"

#include <cmath>

#include "core/estimator_config.h"

namespace setsketch {

UnionView::~UnionView() = default;

GroupUnionView::GroupUnionView(const std::vector<SketchGroup>& groups,
                               bool pairwise)
    : groups_(groups), pairwise_(pairwise) {}

int GroupUnionView::copies() const { return static_cast<int>(groups_.size()); }

int GroupUnionView::levels() const {
  return groups_.empty() || groups_[0].empty() ? 0 : groups_[0][0]->levels();
}

bool GroupUnionView::NonEmpty(int copy, int level) const {
  return !UnionBucketEmpty(groups_[static_cast<size_t>(copy)], level);
}

bool GroupUnionView::UnionSingleton(int copy, int level) const {
  const SketchGroup& group = groups_[static_cast<size_t>(copy)];
  if (pairwise_) {
    return SingletonUnionBucket(*group[0], *group[1], level);
  }
  return UnionSingletonBucket(group, level);
}

bool ProbeTable::Build(const std::vector<const SketchColumn*>& columns) {
  copies_ = 0;
  levels_ = 0;
  words_ = 0;
  occupancy_.clear();
  flags_.clear();
  if (columns.empty() || columns[0]->empty()) return false;
  const size_t copies = columns[0]->size();
  for (const SketchColumn* column : columns) {
    if (column->size() != copies) return false;
  }
  const int levels = (*columns[0])[0].levels();
  const size_t cells = copies * static_cast<size_t>(levels);
  const size_t words = (columns.size() + 63) / 64;
  occupancy_.assign(cells * words, 0);
  flags_.assign(cells, 0);
  // One reused group, filled per copy straight from the columns.
  SketchGroup group(columns.size());
  UnionBucketProbe probes[64];  // levels <= 64.
  const size_t summary_words =
      static_cast<size_t>(levels) *
      static_cast<size_t>((*columns[0])[0].row_words());
  for (size_t copy = 0; copy < copies; ++copy) {
    for (size_t k = 0; k < columns.size(); ++k) {
      group[k] = &(*columns[k])[copy];
      // The next copy's summaries are separate allocations the hardware
      // prefetcher cannot guess; after ingest they are cache misses.
      if (copy + 1 < copies) {
        const uint64_t* next = (*columns[k])[copy + 1].PositiveRow(0);
        for (size_t w = 0; w < summary_words; w += 8) {
          __builtin_prefetch(next + w);
        }
      }
    }
    if (!GroupSeedsMatch(group) || group[0]->levels() != levels) {
      occupancy_.clear();
      flags_.clear();
      return false;
    }
    const size_t row = copy * static_cast<size_t>(levels);
    ProbeUnionBuckets(group, 0, levels, probes, &occupancy_[row * words]);
    for (int level = 0; level < levels; ++level) {
      const UnionBucketProbe& probe = probes[level];
      flags_[row + static_cast<size_t>(level)] = static_cast<unsigned char>(
          (probe.nonempty ? kNonEmpty : 0) |
          (probe.singleton ? kSingleton : 0));
    }
  }
  copies_ = static_cast<int>(copies);
  levels_ = levels;
  words_ = words;
  return true;
}

UnionEstimate KernelEstimateUnion(const UnionView& view, double epsilon,
                                  bool mle) {
  UnionEstimate result;
  const int r = view.copies();
  const int levels = view.levels();
  if (r <= 0 || levels <= 0 || !(epsilon > 0)) return result;
  const double threshold = (1.0 + epsilon) * r / 8.0;

  // Find the smallest level whose non-empty count drops to the target
  // fraction (Figure 5, steps 3-11).
  int index = 0;
  int count = 0;
  for (index = 0; index < levels; ++index) {
    count = 0;
    for (int copy = 0; copy < r; ++copy) {
      if (view.NonEmpty(copy, index)) ++count;
    }
    if (static_cast<double>(count) <= threshold) break;
  }
  if (index == levels) {
    // Every level stayed dense: the union is far too large for this sketch
    // shape. Report the last level and flag saturation.
    index = levels - 1;
    result.saturated = true;
  }

  result.level = index;
  result.copies = r;
  result.nonempty_count = count;
  double p_hat = static_cast<double>(count) / r;
  result.p_hat = p_hat;

  if (count == 0) {
    // No copy saw an element at this level; with index = 0 this means all
    // streams are empty. The estimator formula also yields 0.
    result.estimate = 0.0;
    result.ok = true;
  } else {
    if (p_hat >= 1.0) {
      // Only reachable when saturated; clamp so the inversion stays finite.
      p_hat = 1.0 - 0.5 / r;
    }
    // Invert p = 1 - (1 - 1/R)^u at R = 2^(index+1) (Figure 5, step 13).
    const double big_r = std::ldexp(1.0, index + 1);
    result.estimate = std::log1p(-p_hat) / std::log1p(-1.0 / big_r);
    result.ok = true;
  }
  if (!mle || !result.ok || result.estimate <= 0.0) return result;

  // All-levels maximum-likelihood refinement: every level j contributes an
  // independent binomial observation k_j of r at
  // p_j(u) = 1 - (1 - 2^-(j+1))^u.
  std::vector<int> nonempty(static_cast<size_t>(levels), 0);
  for (int copy = 0; copy < r; ++copy) {
    for (int level = 0; level < levels; ++level) {
      if (view.NonEmpty(copy, level)) {
        ++nonempty[static_cast<size_t>(level)];
      }
    }
  }

  // log p_j(u) and log(1 - p_j(u)) with p_j(u) = 1 - (1 - 2^-(j+1))^u.
  auto log_likelihood = [&](double u) {
    double total = 0.0;
    for (int j = 0; j < levels; ++j) {
      const int k = nonempty[static_cast<size_t>(j)];
      // q = (1 - 1/R)^u = P[bucket empty]; p = 1 - q.
      const double log_q = u * std::log1p(-std::ldexp(1.0, -(j + 1)));
      if (k > 0) {
        const double p = -std::expm1(log_q);  // 1 - q, accurately.
        if (p <= 0.0) return -1e300;          // k>0 impossible at p=0.
        total += k * std::log(p);
      }
      if (k < r) total += (r - k) * log_q;
    }
    return total;
  };

  // Golden-section search on t = log2(u); the likelihood is unimodal.
  const double golden = (std::sqrt(5.0) - 1.0) / 2.0;
  double lo = 0.0;
  double hi = static_cast<double>(levels);
  double x1 = hi - golden * (hi - lo);
  double x2 = lo + golden * (hi - lo);
  double f1 = log_likelihood(std::exp2(x1));
  double f2 = log_likelihood(std::exp2(x2));
  for (int iteration = 0; iteration < 100; ++iteration) {
    if (f1 < f2) {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + golden * (hi - lo);
      f2 = log_likelihood(std::exp2(x2));
    } else {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - golden * (hi - lo);
      f1 = log_likelihood(std::exp2(x1));
    }
  }
  result.estimate = std::exp2((lo + hi) / 2.0);
  return result;
}

WitnessEstimate KernelCountWitnesses(const UnionView& view,
                                     const WitnessPredicate& witness,
                                     double union_estimate,
                                     const WitnessOptions& options) {
  WitnessEstimate result;
  const int r = view.copies();
  const int levels = view.levels();
  if (r <= 0 || levels <= 0 || union_estimate < 0 || !options.Valid()) {
    return result;
  }
  result.copies = r;
  result.union_estimate = union_estimate;
  result.level = WitnessLevel(union_estimate, options.epsilon, options.beta,
                              levels);

  const auto observe = [&](int copy, int level) {
    if (!view.UnionSingleton(copy, level)) return;  // "noEstimate".
    ++result.valid_observations;
    if (witness(copy, level)) ++result.witnesses;
  };
  for (int copy = 0; copy < r; ++copy) {
    if (options.pool_all_levels) {
      // Pooled mode: every union-singleton bucket is a valid observation.
      for (int level = 0; level < levels; ++level) observe(copy, level);
    } else {
      observe(copy, result.level);
    }
  }
  if (result.valid_observations == 0) return result;  // All "noEstimate".
  result.estimate = result.WitnessFraction() * union_estimate;
  result.ok = true;
  return result;
}

}  // namespace setsketch
