#include "core/property_checks.h"

#include <algorithm>

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

/// ProbeUnionBuckets at a level where some row has a negative cell: each
/// column's occupancy from its own LevelEmpty (which reads its counters
/// there), the singleton test on the summed counters.
UnionBucketProbe CounterUnionBucket(
    std::span<const TwoLevelHashSketch* const> group, int level,
    uint64_t* occupancy) {
  UnionBucketProbe probe;
  for (size_t k = 0; k < group.size(); ++k) {
    const uint64_t bit = uint64_t{1} << (k % 64);
    if (group[k]->LevelEmpty(level)) {
      if (occupancy != nullptr) occupancy[k / 64] &= ~bit;
      continue;
    }
    probe.nonempty = true;
    if (occupancy != nullptr) occupancy[k / 64] |= bit;
  }
  // By linearity, summing counters across the group yields the bucket of
  // the multiset union of the streams; run SingletonBucket on those sums.
  int64_t total = 0;
  for (const TwoLevelHashSketch* x : group) total += x->LevelTotal(level);
  if (total == 0) return probe;
  const int s = group[0]->num_second_level();
  for (int j = 0; j < s; ++j) {
    int64_t c0 = 0, c1 = 0;
    for (const TwoLevelHashSketch* x : group) {
      c0 += x->Count(level, j, 0);
      c1 += x->Count(level, j, 1);
    }
    if (c0 > 0 && c1 > 0) return probe;
  }
  probe.singleton = true;
  return probe;
}

}  // namespace

void ProbeUnionBuckets(std::span<const TwoLevelHashSketch* const> group,
                       int first, int count, UnionBucketProbe* probes,
                       uint64_t* occupancy) {
  const size_t levels = static_cast<size_t>(count);
  const size_t mask_words = (group.size() + 63) / 64;
  if (occupancy != nullptr) std::fill_n(occupancy, levels * mask_words, 0);
  if (group.empty()) {
    std::fill_n(probes, levels, UnionBucketProbe{});
    return;
  }
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
    if (occupancy == nullptr) continue;
    // On a row without negative cells, LevelTotal != 0 iff a cell of
    // pair 0 (bits 0 and 1) is positive.
    uint64_t* column = occupancy + k / 64;
    const size_t shift = k % 64;
    if (words == 1 && mask_words == 1) {  // Unit strides: vectorizes.
      for (size_t i = 0; i < levels; ++i) {
        column[i] |= ((rows[i] | (rows[i] >> 1)) & 1) << shift;
      }
      continue;
    }
    for (size_t i = 0; i < levels; ++i) {
      const uint64_t w = rows[i * words];
      column[i * mask_words] |= ((w | (w >> 1)) & 1) << shift;
    }
  }
  for (size_t i = 0; i < levels; ++i) {
    const int level = first + static_cast<int>(i);
    if (((negative >> level) & 1) != 0) [[unlikely]] {
      probes[i] = CounterUnionBucket(
          group, level,
          occupancy == nullptr ? nullptr : occupancy + i * mask_words);
      continue;
    }
    // No negative cell: the summed pair j has a positive cell exactly
    // where some column's does, so the union is non-empty iff pair 0 of
    // the OR is, and split iff bits 2j and 2j + 1 of the OR are both set
    // for some j.
    const uint64_t* p = positive + i * words;
    uint64_t split = p[0] & (p[0] >> 1);
    for (size_t w = 1; w < words; ++w) split |= p[w] & (p[w] >> 1);
    probes[i].nonempty = (p[0] & 3) != 0;
    probes[i].singleton =
        probes[i].nonempty && (split & 0x5555555555555555ULL) == 0;
  }
}

bool UnionBucketEmpty(const SketchGroup& group, int level) {
  UnionBucketProbe probe;
  ProbeUnionBuckets(group, level, 1, &probe, nullptr);
  return !probe.nonempty;
}

bool UnionSingletonBucket(const SketchGroup& group, int level) {
  UnionBucketProbe probe;
  ProbeUnionBuckets(group, level, 1, &probe, nullptr);
  return probe.singleton;
}

}  // namespace setsketch
