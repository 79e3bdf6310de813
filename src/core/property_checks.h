// Elementary property checks over 2-level hash sketches (Section 3.2).
//
// These inspect the s second-level counter pairs of one first-level bucket
// to decide, with confidence 1 - 2^-s per check (Lemma 3.1), whether the
// collection of distinct elements mapping to that bucket is empty, a
// singleton, or the same singleton across two sketches.
//
// Beyond the paper's two-sketch procedures we provide n-ary generalizations
// needed for general set expressions (Section 4): by counter linearity, the
// level-j bucket of the *summed* sketches describes the multiset union of
// the streams, so union-emptiness/singleton checks reduce to the unary
// checks on lazily-summed counters (no merged sketch is materialized).
//
// The n-ary union checks are one procedure, ProbeUnionBuckets, which
// fills every estimator's probe table (core/estimator_kernel.h).
// It reads each column's row summary (core/two_level_hash_sketch.h): with
// no negative cell in any participating row, the summed counters of pair
// j are positive exactly where some column's are, so emptiness and the
// split test are ORs and ANDs of summary words. A row with a negative
// cell sends its (copy, level) back to the counter sums.
//
// All sketches passed to a multi-sketch check must share the same SketchSeed
// (same "stored coins"); the checks return false on mismatched seeds.

#ifndef SETSKETCH_CORE_PROPERTY_CHECKS_H_
#define SETSKETCH_CORE_PROPERTY_CHECKS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/two_level_hash_sketch.h"

namespace setsketch {

/// A group of sketches (one per participating stream) built from the same
/// SketchSeed. Estimators take r such groups, one per independent copy.
using SketchGroup = std::vector<const TwoLevelHashSketch*>;

/// True iff no element (with nonzero net frequency) maps to bucket `level`
/// of sketch `x`.
bool BucketEmpty(const TwoLevelHashSketch& x, int level);

/// The paper's SingletonBucket: true iff the distinct elements mapping to
/// bucket `level` of `x` form a singleton (exactly one distinct value).
/// False positives (>= 2 distinct values declared a singleton) occur with
/// probability <= 2^-s.
bool SingletonBucket(const TwoLevelHashSketch& x, int level);

/// The paper's IdenticalSingletonBucket: true iff bucket `level` is a
/// singleton in both sketches and holds the same distinct value.
bool IdenticalSingletonBucket(const TwoLevelHashSketch& a,
                              const TwoLevelHashSketch& b, int level);

/// The paper's SingletonUnionBucket: true iff the set union of the elements
/// mapping to bucket `level` of `a` and of `b` is a singleton.
bool SingletonUnionBucket(const TwoLevelHashSketch& a,
                          const TwoLevelHashSketch& b, int level);

/// Where ProbeUnionBuckets reports the facts of level first + i: bit
/// `shift` of word i of each array (other bits are left as they are, so
/// 64 copies can share one word per level — ProbeTable's bit-sliced
/// layout).
struct UnionBucketBits {
  uint64_t* nonempty = nullptr;   ///< Some column's bucket is occupied.
  uint64_t* singleton = nullptr;  ///< The union bucket holds one value.
  /// Column k's own occupancy at word k * count + i, or nullptr.
  uint64_t* occupancy = nullptr;
  int shift = 0;
};

/// Buckets [first, first + count) of the union over `group` (one seed,
/// count <= 64): the one decision procedure behind ProbeTable. `nonempty` is the OR of the
/// columns' !LevelEmpty, and `singleton` is the paper's SingletonBucket
/// on the summed counters.
void ProbeUnionBuckets(std::span<const TwoLevelHashSketch* const> group,
                       int first, int count, const UnionBucketBits& out);

/// True iff all sketches in `group` share one SketchSeed (and the group is
/// non-empty). Estimators validate their inputs with this.
bool GroupSeedsMatch(const SketchGroup& group);

}  // namespace setsketch

#endif  // SETSKETCH_CORE_PROPERTY_CHECKS_H_
