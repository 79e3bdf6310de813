// The shared estimator kernel (the single scan engine behind every
// estimator in core/).
//
// All of the paper's estimators consume the same two facts about the
// *union* of the participating streams, per sketch copy and first-level
// bucket:
//   * occupancy   — is the union bucket non-empty?   (stage 1, Figure 5)
//   * singleton   — is the union bucket a singleton?  (stage 2, Figures
//                   6/7 and Section 4's witness sampling)
// UnionView abstracts those two probes; KernelEstimateUnion and
// KernelCountWitnesses implement the scan loops (threshold scan /
// all-levels MLE, and strict / pooled witness counting) exactly once. The
// per-operation estimators — union, MLE union, difference, intersection,
// Jaccard, inclusion-exclusion and general expressions — are thin
// strategies that validate their inputs, pick a view, and supply a witness
// predicate.
//
// Two view implementations exist:
//   * GroupUnionView — probes aligned SketchGroups one bucket at a time,
//     no materialization; this is the classic direct-estimation path.
//   * ProbeTable — the same two facts precomputed once per (copy, level)
//     from the bank's stream columns, plus each stream's occupancy bit
//     (the leaf value of the witness condition B(E)) in a ceil(k/64)-word
//     mask. Both views decide every bucket through ProbeUnionBuckets
//     (core/property_checks.h), which reads the sketches' per-row sign
//     summaries rather than their counters, so the table's probes are
//     bit-identical to GroupUnionView's by construction.
//     query/plan_cache.h builds one per stale plan under the caller's
//     ingest locks and evaluates it after they are released, so no sketch
//     counters are ever copied or merged for a query.

#ifndef SETSKETCH_CORE_ESTIMATOR_KERNEL_H_
#define SETSKETCH_CORE_ESTIMATOR_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/property_checks.h"
#include "core/set_difference_estimator.h"  // WitnessOptions
#include "core/set_union_estimator.h"       // UnionEstimate
#include "core/witness_estimate.h"

namespace setsketch {

/// Read-only occupancy/singleton oracle over the r x levels bucket matrix
/// of the union of a set of streams.
class UnionView {
 public:
  virtual ~UnionView();

  /// Independent sketch copies r.
  virtual int copies() const = 0;
  /// First-level buckets per copy.
  virtual int levels() const = 0;
  /// True iff copy's union bucket at `level` is non-empty (the negation
  /// of UnionBucketEmpty over the underlying group).
  virtual bool NonEmpty(int copy, int level) const = 0;
  /// True iff copy's union bucket at `level` holds a single distinct
  /// element (UnionSingletonBucket over the underlying group).
  virtual bool UnionSingleton(int copy, int level) const = 0;
};

/// Lazy view over r aligned SketchGroups. With `pairwise` set (groups of
/// exactly two sketches), the singleton probe uses the paper's case-based
/// two-sketch SingletonUnionBucket — the binary estimators' historical
/// check — instead of the n-ary summed-counter check; the two agree
/// whenever per-stream net frequencies are nonnegative.
class GroupUnionView final : public UnionView {
 public:
  explicit GroupUnionView(const std::vector<SketchGroup>& groups,
                          bool pairwise = false);

  int copies() const override;
  int levels() const override;
  bool NonEmpty(int copy, int level) const override;
  bool UnionSingleton(int copy, int level) const override;

 private:
  const std::vector<SketchGroup>& groups_;
  bool pairwise_;
};

/// Per-(copy, level) probe table over r aligned copies of a set of
/// stream columns: which columns' buckets are occupied, and whether the
/// union bucket is a singleton. Each copy's cells come from one
/// ProbeUnionBuckets call, the procedure behind UnionBucketEmpty and
/// UnionSingletonBucket, so every probe equals the n-ary
/// GroupUnionView's over the same groups. It reads one row-summary word
/// per (stream, copy, level) at s <= 32, and the counters only where a
/// row has a negative cell.
class ProbeTable final : public UnionView {
 public:
  /// One stream's r aligned copies (SketchBank::Columns).
  using SketchColumn = std::vector<TwoLevelHashSketch>;

  /// Rebuilds the table from stream `columns` (copy i of every column
  /// forms group i), reusing this table's storage. Returns false (and
  /// leaves the table empty) on empty or ragged input, or on mismatched
  /// seeds.
  bool Build(const std::vector<const SketchColumn*>& columns);

  int copies() const override { return copies_; }
  int levels() const override { return levels_; }
  bool NonEmpty(int copy, int level) const override {
    return (flags_[Cell(copy, level)] & kNonEmpty) != 0;
  }
  bool UnionSingleton(int copy, int level) const override {
    return (flags_[Cell(copy, level)] & kSingleton) != 0;
  }

  /// True iff stream `column`'s bucket at (copy, level) is non-empty.
  bool Occupied(int copy, int level, int column) const {
    const uint64_t word = occupancy_[Cell(copy, level) * words_ +
                                     static_cast<size_t>(column) / 64];
    return ((word >> (column % 64)) & 1) != 0;
  }

  /// Bytes of mask + flag storage (plan-cache memory accounting).
  size_t Bytes() const {
    return occupancy_.size() * sizeof(uint64_t) + flags_.size();
  }

 private:
  static constexpr unsigned char kNonEmpty = 1;
  static constexpr unsigned char kSingleton = 2;

  size_t Cell(int copy, int level) const {
    return static_cast<size_t>(copy) * static_cast<size_t>(levels_) +
           static_cast<size_t>(level);
  }

  int copies_ = 0;
  int levels_ = 0;
  size_t words_ = 0;                 ///< ceil(columns / 64).
  std::vector<uint64_t> occupancy_;  ///< [cell * words_ + column / 64].
  std::vector<unsigned char> flags_; ///< [cell]: kNonEmpty | kSingleton.
};

/// Stage 1: the Figure 5 union-cardinality estimate over a view (threshold
/// scan for the sparsest informative level), optionally refined by the
/// all-levels maximum-likelihood extension (`mle`). Equivalent to
/// EstimateSetUnion / EstimateSetUnionMle modulo input validation, which
/// stays with the calling strategy.
UnionEstimate KernelEstimateUnion(const UnionView& view, double epsilon,
                                  bool mle);

/// Stage 2 witness predicate: given (copy, level) of a union-singleton
/// bucket, does the singleton element witness the target expression?
using WitnessPredicate = std::function<bool(int copy, int level)>;

/// Stage 2: witness counting over a view — one observation per copy at
/// the witness level derived from `union_estimate` (strict mode), or one
/// per union-singleton bucket anywhere (options.pool_all_levels). The
/// shared loop of the difference / intersection / Jaccard / expression
/// strategies.
WitnessEstimate KernelCountWitnesses(const UnionView& view,
                                     const WitnessPredicate& witness,
                                     double union_estimate,
                                     const WitnessOptions& options);

}  // namespace setsketch

#endif  // SETSKETCH_CORE_ESTIMATOR_KERNEL_H_
