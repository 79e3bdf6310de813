#include "core/property_checks.h"

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
    if (!(x->seed() == group[0]->seed())) return false;
  }
  return true;
}

bool UnionBucketEmpty(const SketchGroup& group, int level) {
  for (const TwoLevelHashSketch* x : group) {
    if (!x->LevelEmpty(level)) return false;
  }
  return true;
}

bool UnionSingletonBucket(const SketchGroup& group, int level) {
  // By linearity, summing counters across the group yields the bucket of
  // the multiset union of the streams; run SingletonBucket on those sums.
  int64_t total = 0;
  for (const TwoLevelHashSketch* x : group) total += x->LevelTotal(level);
  return total != 0 && !UnionBucketSplit(group, level);
}

bool UnionBucketSplit(const SketchGroup& group, int level) {
  const int s = group[0]->num_second_level();
  for (int j = 0; j < s; ++j) {
    int64_t c0 = 0, c1 = 0;
    for (const TwoLevelHashSketch* x : group) {
      c0 += x->Count(level, j, 0);
      c1 += x->Count(level, j, 1);
    }
    if (c0 > 0 && c1 > 0) return true;
  }
  return false;
}

}  // namespace setsketch
