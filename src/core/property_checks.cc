#include "core/property_checks.h"

#include <algorithm>
#include <bit>

namespace setsketch {

bool BucketEmpty(const TwoLevelHashSketch& x, int level) {
  return x.LevelEmpty(level);
}

bool SingletonBucket(const TwoLevelHashSketch& x, int level) {
  if (x.LevelEmpty(level)) return false;
  const int s = x.num_second_level();
  for (int j = 0; j < s; ++j) {
    // Two distinct elements in the bucket are split by some g_j w.h.p.,
    // leaving both second-level counters positive.
    if (x.Count(level, j, 0) > 0 && x.Count(level, j, 1) > 0) return false;
  }
  return true;
}

bool IdenticalSingletonBucket(const TwoLevelHashSketch& a,
                              const TwoLevelHashSketch& b, int level) {
  if (!(a.seed() == b.seed())) return false;
  if (!SingletonBucket(a, level) || !SingletonBucket(b, level)) return false;
  const int s = a.num_second_level();
  for (int j = 0; j < s; ++j) {
    // A singleton occupies exactly one of the two second-level cells per j;
    // identical values occupy the same cell for every j.
    if ((a.Count(level, j, 0) > 0) != (b.Count(level, j, 0) > 0) ||
        (a.Count(level, j, 1) > 0) != (b.Count(level, j, 1) > 0)) {
      return false;
    }
  }
  return true;
}

bool SingletonUnionBucket(const TwoLevelHashSketch& a,
                          const TwoLevelHashSketch& b, int level) {
  if (!(a.seed() == b.seed())) return false;
  if (BucketEmpty(b, level)) return SingletonBucket(a, level);
  if (BucketEmpty(a, level)) return SingletonBucket(b, level);
  return IdenticalSingletonBucket(a, b, level);
}

bool GroupSeedsMatch(const SketchGroup& group) {
  if (group.empty()) return false;
  for (const TwoLevelHashSketch* x : group) {
    if (x == nullptr) return false;
    // Copies of one bank share their seed object; compare by value only
    // when they do not.
    if (x->shared_seed() != group[0]->shared_seed() &&
        !(x->seed() == group[0]->seed())) {
      return false;
    }
  }
  return true;
}

namespace {

/// Sets bit `shift` of *word to `value`.
void SetBit(uint64_t* word, int shift, bool value) {
  const uint64_t bit = uint64_t{1} << shift;
  *word = value ? *word | bit : *word & ~bit;
}

/// ProbeUnionBuckets at a level where some row has a negative cell: each
/// column's occupancy from its own LevelEmpty (which reads its counters
/// there), the singleton test on the summed counters. Rewrites word i of
/// every output.
void CounterUnionBucket(std::span<const TwoLevelHashSketch* const> group,
                        int level, size_t i, size_t count,
                        const UnionBucketBits& out) {
  bool nonempty = false;
  for (size_t k = 0; k < group.size(); ++k) {
    const bool occupied = !group[k]->LevelEmpty(level);
    if (out.occupancy != nullptr) {
      SetBit(out.occupancy + k * count + i, out.shift, occupied);
    }
    nonempty = nonempty || occupied;
  }
  SetBit(out.nonempty + i, out.shift, nonempty);
  // By linearity, summing counters across the group yields the bucket of
  // the multiset union of the streams; run SingletonBucket on those sums.
  int64_t total = 0;
  for (const TwoLevelHashSketch* x : group) {
    total = WrappingAdd(total, x->LevelTotal(level));
  }
  bool singleton = total != 0;
  const int s = group[0]->num_second_level();
  for (int j = 0; singleton && j < s; ++j) {
    int64_t c0 = 0, c1 = 0;
    for (const TwoLevelHashSketch* x : group) {
      c0 = WrappingAdd(c0, x->Count(level, j, 0));
      c1 = WrappingAdd(c1, x->Count(level, j, 1));
    }
    singleton = !(c0 > 0 && c1 > 0);
  }
  SetBit(out.singleton + i, out.shift, singleton);
}

}  // namespace

void ProbeUnionBuckets(std::span<const TwoLevelHashSketch* const> group,
                       int first, int count, const UnionBucketBits& out) {
  if (group.empty()) return;
  const size_t levels = static_cast<size_t>(count);
  const int shift = out.shift;
  // Every sketch of the group shares the seed, hence the row geometry;
  // rows [first, first + count) are contiguous in each summary.
  const size_t words = static_cast<size_t>(group[0]->row_words());
  // Only the first count * words entries are read; zeroing all 256 would
  // cost a direct (one-level) probe more than its work.
  uint64_t positive[64 * TwoLevelHashSketch::kMaxRowWords];
  std::fill_n(positive, levels * words, uint64_t{0});
  uint64_t negative = 0;
  for (size_t k = 0; k < group.size(); ++k) {
    const TwoLevelHashSketch& x = *group[k];
    negative |= x.negative_rows();
    const uint64_t* rows = x.PositiveRow(first);
    for (size_t i = 0; i < levels * words; ++i) positive[i] |= rows[i];
    if (out.occupancy == nullptr) continue;
    // On a row without negative cells, LevelTotal != 0 iff a cell of
    // pair 0 (bits 0 and 1) is positive.
    uint64_t* occupied = out.occupancy + k * levels;
    if (words == 1) {  // Unit stride: vectorizes.
      for (size_t i = 0; i < levels; ++i) {
        occupied[i] |= ((rows[i] | (rows[i] >> 1)) & 1) << shift;
      }
      continue;
    }
    for (size_t i = 0; i < levels; ++i) {
      const uint64_t w = rows[i * words];
      occupied[i] |= ((w | (w >> 1)) & 1) << shift;
    }
  }
  // No negative cell: the summed pair j has a positive cell exactly
  // where some column's does, so the union is non-empty iff pair 0 of
  // the OR is, and split iff bits 2j and 2j + 1 of the OR are both set
  // for some j.
  const auto decide = [&out, shift](size_t i, uint64_t first_word,
                                    uint64_t split) {
    const uint64_t nonempty = (first_word | (first_word >> 1)) & 1;
    split &= 0x5555555555555555ULL;
    // 1 iff split != 0, without a branch or a 64-bit compare, so the
    // loop below vectorizes.
    const uint64_t any_split = (split | (0 - split)) >> 63;
    out.nonempty[i] |= nonempty << shift;
    out.singleton[i] |= (nonempty & (any_split ^ 1)) << shift;
  };
  if (words == 1) {
    for (size_t i = 0; i < levels; ++i) {
      decide(i, positive[i], positive[i] & (positive[i] >> 1));
    }
  } else {
    for (size_t i = 0; i < levels; ++i) {
      const uint64_t* p = positive + i * words;
      uint64_t split = 0;
      for (size_t w = 0; w < words; ++w) split |= p[w] & (p[w] >> 1);
      decide(i, p[0], split);
    }
  }
  // Rows with a negative cell decide from the counter sums instead.
  const uint64_t range =
      levels >= 64 ? ~uint64_t{0} : (uint64_t{1} << levels) - 1;
  for (uint64_t fallback = (negative >> first) & range; fallback != 0;
       fallback &= fallback - 1) {
    const int i = std::countr_zero(fallback);
    CounterUnionBucket(group, first + i, static_cast<size_t>(i), levels,
                       out);
  }
}

}  // namespace setsketch
