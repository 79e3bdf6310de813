// The shared estimator kernel (the single scan engine behind every
// estimator in core/).
//
// All of the paper's estimators consume the same facts about the *union*
// of the participating streams, per sketch copy and first-level bucket
// (a "cell"):
//   * occupancy   — is the union bucket non-empty?   (stage 1, Figure 5)
//   * singleton   — is the union bucket a singleton?  (stage 2, Figures
//                   6/7 and Section 4's witness sampling)
//   * each stream's own occupancy bit — the leaf value of the witness
//                   condition B(E).
// ProbeTable holds them bit-sliced: one bitset over all cells per fact,
// each level's copies contiguous (per copy-range part, below), so a
// level's non-empty count is a few popcounts, B(E) is AND/OR/ANDNOT over whole bitsets (EvaluatePlan,
// expr/canonical.h), and a witness count is popcount(singleton & B(E)).
// KernelEstimateUnion and KernelCountWitnesses implement the scan loops
// (threshold scan / all-levels MLE, and strict / pooled witness counting)
// exactly once, over that one table. The per-operation estimators —
// union, MLE union, difference, intersection, Jaccard,
// inclusion-exclusion and general expressions — are thin strategies that
// validate their inputs, build a table, and name their witness bitset.
//
// Every cell is decided by ProbeUnionBuckets (core/property_checks.h),
// which reads the sketches' per-row sign summaries rather than their
// counters. A table is built from SketchGroups (the direct estimators;
// two-sketch groups may keep the paper's pairwise SingletonUnionBucket
// for the singleton bit) or from a bank's stream columns in copy-range
// parts: part p covers copies [p * r / P, (p + 1) * r / P) and owns a
// cache-line-aligned region of every bitset, so the server's shard
// workers each fill the cells of the copies they own, concurrently and
// without sharing a cache line (query/plan_cache.h,
// server/sketch_server.h).

#ifndef SETSKETCH_CORE_ESTIMATOR_KERNEL_H_
#define SETSKETCH_CORE_ESTIMATOR_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/property_checks.h"
#include "core/set_difference_estimator.h"  // WitnessOptions
#include "core/set_union_estimator.h"       // UnionEstimate
#include "core/witness_estimate.h"
#include "util/aligned_alloc.h"
#include "util/thread_annotations.h"

namespace setsketch {

/// Bit-sliced probe table over the r x levels cells of r aligned copies
/// of a set of stream columns: a non-empty bitset, a union-singleton
/// bitset and one occupancy bitset per column, all in one layout of
/// words() words. Each copy-range part owns a region that starts on a
/// cache line and holds its copies level by level: level j is words
/// [j * w, (j + 1) * w) of the region, w = ceil(part copies / 64). So a
/// level's copies are contiguous within each part (with one part, in the
/// whole bitset), and concurrent fills of different parts never share a
/// cache line. Bits past a part's copies are zero.
class ProbeTable {
 public:
  /// One stream's r aligned copies (SketchBank::Columns).
  using SketchColumn = std::vector<TwoLevelHashSketch>;

  /// Shapes the table for `columns` (copy i of every column forms cell
  /// group i) split into `parts` copy ranges, reusing this table's
  /// storage; the cells stay unfilled until FillPart. A part may hold no
  /// copy (parts > copies). Returns false (and leaves the table empty) on
  /// empty or ragged input, or on parts < 1.
  bool Reset(const std::vector<const SketchColumn*>& columns, int parts = 1);

  /// Fills every cell of part `part` from `columns` (the vector Reset
  /// shaped the table for). Writes only that part's words, so distinct
  /// parts may be filled concurrently from different threads. Returns
  /// false on mismatched seeds; Filled() then stays false.
  bool FillPart(const std::vector<const SketchColumn*>& columns, int part);

  /// Reset into one part, then FillPart. Returns false (and leaves the
  /// table empty) on any failure of either.
  bool Build(const std::vector<const SketchColumn*>& columns);

  /// The direct estimators' table over r aligned SketchGroups (groups[i]
  /// is copy i of every column). With `pairwise` set (groups of exactly
  /// two sketches) the singleton bit is the paper's case-based two-sketch
  /// SingletonUnionBucket — the binary estimators' historical check —
  /// instead of the n-ary summed-counter check; the two agree whenever
  /// per-stream net frequencies are nonnegative. Returns false (and
  /// leaves the table empty) on empty or ragged groups or mismatched
  /// seeds.
  bool Build(const std::vector<SketchGroup>& groups, bool pairwise = false);

  /// True iff the table is shaped and every part was filled successfully.
  bool Filled() const;

  int copies() const { return copies_; }
  int levels() const { return levels_; }
  /// Words per bitset.
  size_t words() const { return words_; }

  /// Cells set in `bits` (a words() bitset in this table's layout) at
  /// `level`, or at every level when `level` < 0.
  int Count(const uint64_t* bits, int level) const;
  /// Cells set in both `a` and `b`, likewise.
  int CountBoth(const uint64_t* a, const uint64_t* b, int level) const;

  /// Cells whose union bucket is non-empty.
  const uint64_t* nonempty() const { return Bitset(0); }
  /// Cells whose union bucket holds one distinct value.
  const uint64_t* singleton() const { return Bitset(1); }
  /// Cells where column `column`'s own bucket is non-empty.
  const uint64_t* occupancy(int column) const {
    return Bitset(2 + static_cast<size_t>(column));
  }

  /// Per-cell readers of the same bits (tests and diagnostics).
  bool NonEmpty(int copy, int level) const {
    return Bit(nonempty(), copy, level);
  }
  bool UnionSingleton(int copy, int level) const {
    return Bit(singleton(), copy, level);
  }
  bool Occupied(int copy, int level, int column) const {
    return Bit(occupancy(column), copy, level);
  }

  /// Bytes of bitset storage (plan-cache memory accounting).
  size_t Bytes() const { return bits_.size() * sizeof(uint64_t); }

  /// The word layout of a table shaped for (copies, levels) in `parts`
  /// parts: words per level summed over the parts, and words() (EXPLAIN).
  struct Layout {
    size_t level_words = 0;
    size_t bitset_words = 0;
  };
  static Layout LayoutOf(int copies, int levels, int parts);

 private:
  /// Shapes for (copies, levels, columns) in `parts` parts.
  void Shape(int copies, int levels, int columns, int parts);
  /// Fills part `part` with copy i's group from group_of(i, &group), in
  /// the part's FillScratch: a stale QUERY runs it once per shard on the
  /// worker thread, so it allocates nothing.
  template <typename GroupOf>
  SETSKETCH_HOT_PATH bool FillCells(int part, bool pairwise,
                                    const GroupOf& group_of);
  void Clear();

  const uint64_t* Bitset(size_t index) const {
    return bits_.data() + index * words();
  }
  bool Bit(const uint64_t* bitset, int copy, int level) const;
  /// Words per level in part `part`.
  size_t PartLevelWords(size_t part) const {
    return static_cast<size_t>(part_copy_[part + 1] - part_copy_[part] +
                               63) /
           64;
  }
  /// Calls visit(begin, end) for each run of words holding `level`'s
  /// cells (every level when `level` < 0).
  template <typename Visit>
  void ForLevelWords(int level, const Visit& visit) const;

  int copies_ = 0;
  int levels_ = 0;
  int columns_ = 0;
  size_t words_ = 0;
  /// Per part: first copy and first word of its region; one sentinel
  /// entry past the last part.
  std::vector<int> part_copy_;
  std::vector<size_t> part_word_;
  /// Per part: 1 once FillPart succeeded (one byte per part, so
  /// concurrent fills write distinct objects).
  std::vector<unsigned char> part_filled_;
  /// FillCells' working storage, sized by Shape: one word of up to 64
  /// copies per (bitset, level), and the current and next copy's sketch
  /// group. One per part, since distinct parts fill concurrently.
  struct FillScratch {
    std::vector<uint64_t> block;
    SketchGroup group;
    SketchGroup next;
  };
  std::vector<FillScratch> part_scratch_;
  /// Bitset b at [b * words(), (b + 1) * words()): 0 non-empty,
  /// 1 singleton, 2 + k column k's occupancy. words() is a whole number
  /// of cache lines, so every part region starts on one.
  std::vector<uint64_t, AlignedAllocator<uint64_t>> bits_;
};

/// Stage 1: the Figure 5 union-cardinality estimate over a table
/// (threshold scan for the sparsest informative level), optionally refined
/// by the all-levels maximum-likelihood extension (`mle`). Equivalent to
/// EstimateSetUnion / EstimateSetUnionMle modulo input validation, which
/// stays with the calling strategy.
UnionEstimate KernelEstimateUnion(const ProbeTable& table, double epsilon,
                                  bool mle);

/// Stage 2: witness counting over a table — one observation per copy at
/// the witness level derived from `union_estimate` (strict mode), or one
/// per union-singleton cell anywhere (options.pool_all_levels). `witness`
/// is a table.words() bitset of the cells whose union singleton witnesses
/// the target expression; it is only read where the singleton bit is set.
/// The shared count of the difference / intersection / Jaccard /
/// expression strategies.
WitnessEstimate KernelCountWitnesses(const ProbeTable& table,
                                     const uint64_t* witness,
                                     double union_estimate,
                                     const WitnessOptions& options);

}  // namespace setsketch

#endif  // SETSKETCH_CORE_ESTIMATOR_KERNEL_H_
