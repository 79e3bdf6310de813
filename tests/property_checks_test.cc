// Tests for the Section 3.2 elementary property checks: SingletonBucket,
// IdenticalSingletonBucket, SingletonUnionBucket, and their n-ary
// generalization, ProbeUnionBuckets.
//
// The checks are probabilistic only in one direction (a multi-element
// bucket can masquerade as a singleton with probability 2^-s); with s = 16
// that is ~1.5e-5 per check, so the deterministic assertions below are
// sound for the fixed seeds used.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/property_checks.h"
#include "core/sketch_seed.h"

namespace setsketch {
namespace {

SketchParams SmallParams() {
  SketchParams params;
  params.levels = 24;
  params.num_second_level = 16;
  return params;
}

class PropertyCheckTest : public ::testing::Test {
 protected:
  PropertyCheckTest()
      : seed_(std::make_shared<const SketchSeed>(SmallParams(), 4242)),
        a_(seed_),
        b_(seed_) {}

  // Finds `count` distinct elements that all map to the same first-level
  // bucket, returning (level, elements).
  std::pair<int, std::vector<uint64_t>> ElementsInOneBucket(int count) {
    // Level 0 collects ~half of all elements; scan until `count` found.
    std::vector<uint64_t> found;
    for (uint64_t e = 1; found.size() < static_cast<size_t>(count); ++e) {
      if (seed_->Level(e) == 0) found.push_back(e);
    }
    return {0, found};
  }

  std::shared_ptr<const SketchSeed> seed_;
  TwoLevelHashSketch a_;
  TwoLevelHashSketch b_;
};

/// The n-ary union facts of bucket `level`, read through
/// ProbeUnionBuckets (the procedure that fills every probe table).
struct UnionProbe {
  bool empty = true;
  bool singleton = false;
};

UnionProbe ProbeUnion(const SketchGroup& group, int level) {
  uint64_t nonempty = 0;
  uint64_t singleton = 0;
  ProbeUnionBuckets(group, level, 1, {&nonempty, &singleton, nullptr, 0});
  return {nonempty == 0, singleton != 0};
}

// ---------------------------------------------------------------------------
// BucketEmpty / SingletonBucket

TEST_F(PropertyCheckTest, EmptyBucketIsNotSingleton) {
  EXPECT_TRUE(BucketEmpty(a_, 0));
  EXPECT_FALSE(SingletonBucket(a_, 0));
}

TEST_F(PropertyCheckTest, SingleElementIsSingleton) {
  const auto [level, elements] = ElementsInOneBucket(1);
  a_.Update(elements[0], 1);
  EXPECT_FALSE(BucketEmpty(a_, level));
  EXPECT_TRUE(SingletonBucket(a_, level));
}

TEST_F(PropertyCheckTest, SingletonWithMultiplicityStillSingleton) {
  const auto [level, elements] = ElementsInOneBucket(1);
  a_.Update(elements[0], 57);  // One distinct value, high frequency.
  EXPECT_TRUE(SingletonBucket(a_, level));
}

TEST_F(PropertyCheckTest, TwoElementsAreNotSingleton) {
  const auto [level, elements] = ElementsInOneBucket(2);
  a_.Update(elements[0], 1);
  a_.Update(elements[1], 1);
  EXPECT_FALSE(SingletonBucket(a_, level));
}

TEST_F(PropertyCheckTest, ManyElementsAreNotSingleton) {
  const auto [level, elements] = ElementsInOneBucket(10);
  for (uint64_t e : elements) a_.Update(e, 1);
  EXPECT_FALSE(SingletonBucket(a_, level));
}

TEST_F(PropertyCheckTest, DeletionRestoresSingleton) {
  const auto [level, elements] = ElementsInOneBucket(2);
  a_.Update(elements[0], 1);
  a_.Update(elements[1], 1);
  ASSERT_FALSE(SingletonBucket(a_, level));
  a_.Update(elements[1], -1);  // Back to one distinct element.
  EXPECT_TRUE(SingletonBucket(a_, level));
}

// ---------------------------------------------------------------------------
// IdenticalSingletonBucket

TEST_F(PropertyCheckTest, IdenticalSingletonsDetected) {
  const auto [level, elements] = ElementsInOneBucket(1);
  a_.Update(elements[0], 1);
  b_.Update(elements[0], 3);  // Different frequency, same value.
  EXPECT_TRUE(IdenticalSingletonBucket(a_, b_, level));
}

TEST_F(PropertyCheckTest, DifferentSingletonsRejected) {
  const auto [level, elements] = ElementsInOneBucket(2);
  a_.Update(elements[0], 1);
  b_.Update(elements[1], 1);
  EXPECT_FALSE(IdenticalSingletonBucket(a_, b_, level));
}

TEST_F(PropertyCheckTest, IdenticalSingletonNeedsBothSingleton) {
  const auto [level, elements] = ElementsInOneBucket(2);
  a_.Update(elements[0], 1);
  // b empty.
  EXPECT_FALSE(IdenticalSingletonBucket(a_, b_, level));
  // b has two values.
  b_.Update(elements[0], 1);
  b_.Update(elements[1], 1);
  EXPECT_FALSE(IdenticalSingletonBucket(a_, b_, level));
}

TEST_F(PropertyCheckTest, IdenticalSingletonRejectsForeignSeeds) {
  TwoLevelHashSketch other(
      std::make_shared<const SketchSeed>(SmallParams(), 999));
  a_.Update(2, 1);
  other.Update(2, 1);
  EXPECT_FALSE(IdenticalSingletonBucket(a_, other, 0));
}

// ---------------------------------------------------------------------------
// SingletonUnionBucket (binary)

TEST_F(PropertyCheckTest, UnionSingletonOneSideEmpty) {
  const auto [level, elements] = ElementsInOneBucket(1);
  a_.Update(elements[0], 1);
  EXPECT_TRUE(SingletonUnionBucket(a_, b_, level));
  EXPECT_TRUE(SingletonUnionBucket(b_, a_, level));  // Symmetric.
}

TEST_F(PropertyCheckTest, UnionSingletonSharedValue) {
  const auto [level, elements] = ElementsInOneBucket(1);
  a_.Update(elements[0], 1);
  b_.Update(elements[0], 1);
  EXPECT_TRUE(SingletonUnionBucket(a_, b_, level));
}

TEST_F(PropertyCheckTest, UnionOfTwoDistinctValuesNotSingleton) {
  const auto [level, elements] = ElementsInOneBucket(2);
  a_.Update(elements[0], 1);
  b_.Update(elements[1], 1);
  EXPECT_FALSE(SingletonUnionBucket(a_, b_, level));
}

TEST_F(PropertyCheckTest, UnionBothEmptyNotSingleton) {
  EXPECT_FALSE(SingletonUnionBucket(a_, b_, 0));
}

// ---------------------------------------------------------------------------
// n-ary generalizations

TEST_F(PropertyCheckTest, GroupSeedsMatchValidation) {
  TwoLevelHashSketch c(seed_);
  EXPECT_TRUE(GroupSeedsMatch({&a_, &b_, &c}));
  EXPECT_FALSE(GroupSeedsMatch({}));
  TwoLevelHashSketch foreign(
      std::make_shared<const SketchSeed>(SmallParams(), 1234));
  EXPECT_FALSE(GroupSeedsMatch({&a_, &foreign}));
}

TEST_F(PropertyCheckTest, UnionBucketEmptyAcrossGroup) {
  TwoLevelHashSketch c(seed_);
  EXPECT_TRUE(ProbeUnion({&a_, &b_, &c}, 0).empty);
  const auto [level, elements] = ElementsInOneBucket(1);
  c.Update(elements[0], 1);
  EXPECT_FALSE(ProbeUnion({&a_, &b_, &c}, level).empty);
}

TEST_F(PropertyCheckTest, NaryUnionSingletonMatchesBinaryCheck) {
  const auto [level, elements] = ElementsInOneBucket(2);
  a_.Update(elements[0], 1);
  b_.Update(elements[0], 2);
  EXPECT_EQ(ProbeUnion({&a_, &b_}, level).singleton,
            SingletonUnionBucket(a_, b_, level));
  EXPECT_TRUE(ProbeUnion({&a_, &b_}, level).singleton);
  b_.Update(elements[1], 1);
  EXPECT_EQ(ProbeUnion({&a_, &b_}, level).singleton,
            SingletonUnionBucket(a_, b_, level));
  EXPECT_FALSE(ProbeUnion({&a_, &b_}, level).singleton);
}

TEST_F(PropertyCheckTest, NaryUnionSingletonThreeStreams) {
  TwoLevelHashSketch c(seed_);
  const auto [level, elements] = ElementsInOneBucket(3);
  // Same value spread across three streams: still a singleton union.
  a_.Update(elements[0], 1);
  b_.Update(elements[0], 4);
  c.Update(elements[0], 2);
  EXPECT_TRUE(ProbeUnion({&a_, &b_, &c}, level).singleton);
  // A second value anywhere breaks it.
  c.Update(elements[1], 1);
  EXPECT_FALSE(ProbeUnion({&a_, &b_, &c}, level).singleton);
}

TEST_F(PropertyCheckTest, NaryUnionSingletonAllEmptyIsFalse) {
  TwoLevelHashSketch c(seed_);
  EXPECT_FALSE(ProbeUnion({&a_, &b_, &c}, 0).singleton);
}

// Randomized sweep: SingletonBucket must agree with ground truth on every
// bucket for a moderately filled sketch (error probability per bucket is
// 2^-16; over 24 buckets x 20 trials that is < 1% overall — and the seeds
// are fixed, so the test is deterministic in practice).
class SingletonSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SingletonSweepTest, AgreesWithGroundTruthPerBucket) {
  SketchParams params;
  params.levels = 24;
  params.num_second_level = 16;
  const auto seed =
      std::make_shared<const SketchSeed>(params, 5000 + GetParam());
  TwoLevelHashSketch sketch(seed);
  std::vector<int> distinct_per_level(24, 0);
  for (uint64_t e = 1; e <= 64; ++e) {
    const uint64_t elem = e * 0x9E3779B97F4A7C15ULL;
    ++distinct_per_level[static_cast<size_t>(seed->Level(elem))];
    sketch.Update(elem, 1 + (e % 2));
  }
  for (int level = 0; level < 24; ++level) {
    EXPECT_EQ(SingletonBucket(sketch, level),
              distinct_per_level[static_cast<size_t>(level)] == 1)
        << "level " << level << " holds "
        << distinct_per_level[static_cast<size_t>(level)] << " values";
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, SingletonSweepTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace setsketch
