// Tests for the prior-work baselines: Flajolet-Martin, min-wise
// signatures, and the KMV family — including the deletion failure modes
// the paper motivates 2-level hash sketches with.
//
// The KMV family is one sketch. Dasgupta et al.'s theta framework shows
// that KMV (bottom-k), counting KMV and adaptive sampling (the BJKST
// scheme) differ only in how the threshold theta falls, so the
// KmvSketchTest, CountingKmvTest and BjkstTest suites below exercise
// ThetaKmvSketch in each of those roles, estimating through
// EstimateWithBackend like every caller.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "baselines/fm_sketch.h"
#include "baselines/minwise_sketch.h"
#include "core/theta_sketch.h"
#include "expr/parser.h"
#include "util/stats.h"

namespace setsketch {
namespace {

// ---------------------------------------------------------------------------
// Flajolet-Martin

TEST(FmSketchTest, EstimatesDistinctCount) {
  FmSketch fm(64, 32, /*seed=*/1);
  const int n = 10000;
  for (int e = 0; e < n; ++e) {
    fm.Insert(static_cast<uint64_t>(e) * 2654435761u);
  }
  EXPECT_LT(RelativeError(fm.Estimate(), n), 0.35);
}

TEST(FmSketchTest, DuplicatesDoNotInflate) {
  FmSketch fm(64, 32, 3);
  for (int rep = 0; rep < 10; ++rep) {
    for (int e = 0; e < 500; ++e) {
      fm.Insert(static_cast<uint64_t>(e) * 7919);
    }
  }
  EXPECT_LT(RelativeError(fm.Estimate(), 500), 0.4);
}

TEST(FmSketchTest, DeletionsAreRefusedAndCounted) {
  FmSketch fm(8, 32, 5);
  fm.Insert(1);
  const double before = fm.Estimate();
  EXPECT_FALSE(fm.Delete(1));
  EXPECT_EQ(fm.ignored_deletions(), 1);
  EXPECT_DOUBLE_EQ(fm.Estimate(), before);  // Unchanged.
}

TEST(FmSketchTest, MergeEstimatesUnion) {
  FmSketch a(64, 32, 7), b(64, 32, 7);
  for (int e = 0; e < 3000; ++e) {
    a.Insert(static_cast<uint64_t>(e) * 104729);
    b.Insert(static_cast<uint64_t>(e + 1500) * 104729);  // 50% overlap.
  }
  ASSERT_TRUE(a.Merge(b));
  EXPECT_LT(RelativeError(a.Estimate(), 4500), 0.4);
}

TEST(FmSketchTest, MergeRejectsMismatchedConfig) {
  FmSketch a(8, 32, 1), b(8, 32, 2), c(16, 32, 1);
  EXPECT_FALSE(a.Merge(b));  // Different seed.
  EXPECT_FALSE(a.Merge(c));  // Different instance count.
}

TEST(FmSketchTest, SizeBytesIsTiny) {
  FmSketch fm(64, 32, 9);
  EXPECT_EQ(fm.SizeBytes(), 64u * 32u / 8u);
}

// ---------------------------------------------------------------------------
// KMV family (ThetaKmvSketch)

/// Estimates `text` over theta sketches named A and B.
double Estimate(const std::string& text, const ThetaKmvSketch& a,
                const ThetaKmvSketch& b) {
  const ParseResult parsed = ParseExpression(text);
  const BackendEstimate estimate = EstimateWithBackend(
      *parsed.expression,
      [&a, &b](const std::string& name) -> const DistinctSketch* {
        return name == "A" ? &a : &b;
      });
  EXPECT_TRUE(estimate.ok) << estimate.error;
  return estimate.estimate;
}

double Estimate(const ThetaKmvSketch& a) { return Estimate("A", a, a); }

TEST(KmvSketchTest, EstimatesDistinctCount) {
  ThetaKmvSketch kmv(BackendOptions{256, 1});
  const int n = 20000;
  for (int e = 0; e < n; ++e) {
    kmv.Update(static_cast<uint64_t>(e) * 48271 + 11, 1);
  }
  EXPECT_LT(kmv.theta(), ThetaKmvSketch::kThetaMax);
  EXPECT_LT(RelativeError(Estimate(kmv), n), 0.2);
}

TEST(KmvSketchTest, ExactBelowK) {
  ThetaKmvSketch kmv(BackendOptions{64, 3});
  for (int e = 0; e < 40; ++e) kmv.Update(static_cast<uint64_t>(e), 1);
  EXPECT_DOUBLE_EQ(Estimate(kmv), 40.0);
  // Duplicates raise net counts, not the distinct count.
  for (int e = 0; e < 40; ++e) kmv.Update(static_cast<uint64_t>(e), 1);
  EXPECT_DOUBLE_EQ(Estimate(kmv), 40.0);
}

TEST(KmvSketchTest, UnionAndIntersectionInsertOnly) {
  ThetaKmvSketch a(BackendOptions{512, 5}), b(BackendOptions{512, 5});
  const int n = 8192;
  // 25% overlap.
  for (int e = 0; e < n; ++e) {
    const uint64_t elem = static_cast<uint64_t>(e) * 2654435761u + 3;
    a.Update(elem, 1);
    if (e < n / 4) b.Update(elem, 1);
  }
  for (int e = 0; e < 3 * n / 4; ++e) {
    b.Update(static_cast<uint64_t>(e) * 16807 + (1ULL << 50), 1);
  }
  // |A u B| = n + 3n/4, |A n B| = n/4, |A - B| = 3n/4.
  EXPECT_LT(RelativeError(Estimate("A | B", a, b), 1.75 * n), 0.2);
  EXPECT_LT(RelativeError(Estimate("A & B", a, b), 0.25 * n), 0.35);
  EXPECT_LT(RelativeError(Estimate("A - B", a, b), 0.75 * n), 0.3);
}

TEST(KmvSketchTest, DeletionDepletesSample) {
  ThetaKmvSketch kmv(BackendOptions{32, 7});
  // 32 elements with k = 32: all sampled, theta never fell.
  for (int e = 0; e < 32; ++e) {
    kmv.Update(static_cast<uint64_t>(e) * 7919 + 1, 1);
  }
  ASSERT_EQ(kmv.SampleSize(), 32u);
  kmv.Update(1, -1);  // Element 0: sampled, so its hash leaves.
  EXPECT_EQ(kmv.SampleSize(), 31u);
  EXPECT_EQ(kmv.theta(), ThetaKmvSketch::kThetaMax);
  EXPECT_DOUBLE_EQ(Estimate(kmv), 31.0);
}

// ---------------------------------------------------------------------------
// Counting KMV: net frequencies per sampled hash.

TEST(CountingKmvTest, EstimatesDistinctCount) {
  // Net counts above one are frequencies, not extra distinct elements.
  ThetaKmvSketch kmv(BackendOptions{256, 1});
  const int n = 20000;
  for (int e = 0; e < n; ++e) {
    kmv.Update(static_cast<uint64_t>(e) * 48271 + 11, 2);
  }
  EXPECT_LT(RelativeError(Estimate(kmv), n), 0.2);
}

TEST(CountingKmvTest, SurvivesMultisetChurn) {
  // Insert every element 3x, delete 2x: net distinct count unchanged, and
  // no sampled hash is lost (its net count never reaches zero).
  ThetaKmvSketch kmv(BackendOptions{256, 3});
  const int n = 10000;
  for (int rep = 0; rep < 3; ++rep) {
    for (int e = 0; e < n; ++e) {
      kmv.Update(static_cast<uint64_t>(e) * 7919 + 1, 1);
    }
  }
  const size_t sample_before = kmv.SampleSize();
  for (int rep = 0; rep < 2; ++rep) {
    for (int e = 0; e < n; ++e) {
      kmv.Update(static_cast<uint64_t>(e) * 7919 + 1, -1);
    }
  }
  EXPECT_EQ(kmv.SampleSize(), sample_before);
  EXPECT_LT(RelativeError(Estimate(kmv), n), 0.2);
}

TEST(CountingKmvTest, ZeroEvictionOnFullDeletion) {
  ThetaKmvSketch kmv(BackendOptions{64, 5});
  for (int e = 0; e < 32; ++e) kmv.Update(static_cast<uint64_t>(e), 2);
  for (int e = 0; e < 16; ++e) kmv.Update(static_cast<uint64_t>(e), -2);
  // A hash leaves the sample exactly when its net count reaches zero.
  EXPECT_EQ(kmv.SampleSize(), 16u);
  EXPECT_DOUBLE_EQ(Estimate(kmv), 16.0);  // Theta never fell: exact.
}

TEST(CountingKmvTest, TransientChurnStillDepletes) {
  // Transients that force theta down and then leave empty the sample
  // below k: theta does not rise again, so the real elements keep only
  // the few slots below the lowered threshold. The estimate stays
  // unbiased; its sample is what churn costs.
  ThetaKmvSketch kmv(BackendOptions{128, 7});
  const int n = 4096;
  for (int e = 0; e < n; ++e) {
    kmv.Update(static_cast<uint64_t>(e) * 104729 + 3, 1);
  }
  ASSERT_GE(kmv.SampleSize(), 128u);
  const int transients = 4 * n;
  for (int t = 0; t < transients; ++t) {
    kmv.Update((static_cast<uint64_t>(t) + 1) * 6364136223846793005ULL, 1);
  }
  const uint64_t theta = kmv.theta();
  for (int t = 0; t < transients; ++t) {
    kmv.Update((static_cast<uint64_t>(t) + 1) * 6364136223846793005ULL, -1);
  }
  EXPECT_EQ(kmv.theta(), theta);
  EXPECT_LT(kmv.SampleSize(), 128u);
  EXPECT_LT(RelativeError(Estimate(kmv), n), 0.5);
}

TEST(CountingKmvTest, IntersectionInsertOnly) {
  ThetaKmvSketch a(BackendOptions{512, 9}), b(BackendOptions{512, 9});
  const int n = 8192;
  for (int e = 0; e < n; ++e) {
    const uint64_t elem = static_cast<uint64_t>(e) * 2654435761ULL + 7;
    a.Update(elem, 1);
    if (e < n / 4) b.Update(elem, 1);
  }
  for (int e = 0; e < 3 * n / 4; ++e) {
    b.Update(static_cast<uint64_t>(e) * 16807 + (1ULL << 50), 1);
  }
  EXPECT_LT(RelativeError(Estimate("A | B", a, b), 1.75 * n), 0.2);
  EXPECT_LT(RelativeError(Estimate("A & B", a, b), n / 4.0), 0.35);
}

TEST(CountingKmvTest, DeleteOfUnsampledElementIsNoOp) {
  ThetaKmvSketch kmv(BackendOptions{16, 11});
  for (int e = 0; e < 100; ++e) kmv.Update(static_cast<uint64_t>(e), 1);
  ASSERT_LT(kmv.theta(), ThetaKmvSketch::kThetaMax);
  // A never-inserted element whose hash falls at or above theta.
  uint64_t unsampled = 9999999;
  while (BackendHash64(unsampled, 11) < kmv.theta()) ++unsampled;
  const ThetaKmvSketch before = kmv;
  kmv.Update(unsampled, -1);
  EXPECT_TRUE(kmv.Equals(before));
  EXPECT_DOUBLE_EQ(Estimate(kmv), Estimate(before));
}

// ---------------------------------------------------------------------------
// Adaptive sampling (BJKST): theta falls as the stream outgrows the
// sample, and sketches whose thresholds differ still merge.

TEST(BjkstTest, EstimatesDistinctCount) {
  ThetaKmvSketch bjkst(BackendOptions{1024, 1});
  const int n = 50000;
  for (int e = 0; e < n; ++e) {
    bjkst.Update(static_cast<uint64_t>(e) * 2654435761ULL, 1);
  }
  EXPECT_LT(bjkst.theta(), ThetaKmvSketch::kThetaMax);  // Sampling kicked in.
  EXPECT_LT(RelativeError(Estimate(bjkst), n), 0.15);
}

TEST(BjkstTest, ExactWhileBelowCapacity) {
  ThetaKmvSketch bjkst(BackendOptions{256, 3});
  for (int e = 0; e < 100; ++e) bjkst.Update(static_cast<uint64_t>(e), 1);
  EXPECT_EQ(bjkst.theta(), ThetaKmvSketch::kThetaMax);
  EXPECT_DOUBLE_EQ(Estimate(bjkst), 100.0);
  // Duplicates are free.
  for (int e = 0; e < 100; ++e) bjkst.Update(static_cast<uint64_t>(e), 1);
  EXPECT_DOUBLE_EQ(Estimate(bjkst), 100.0);
}

TEST(BjkstTest, MergeEstimatesUnion) {
  ThetaKmvSketch a(BackendOptions{512, 7}), b(BackendOptions{512, 7});
  const int n = 20000;
  for (int e = 0; e < n; ++e) {
    a.Update(static_cast<uint64_t>(e) * 104729, 1);
    b.Update(static_cast<uint64_t>(e + n / 2) * 104729, 1);  // 50% overlap.
  }
  ASSERT_TRUE(a.Merge(b));
  EXPECT_LT(RelativeError(Estimate(a), 1.5 * n), 0.2);
}

TEST(BjkstTest, MergeRejectsMismatch) {
  ThetaKmvSketch a(BackendOptions{64, 1}), b(BackendOptions{64, 2}),
      c(BackendOptions{128, 1});
  EXPECT_FALSE(a.Merge(b));  // Different coins.
  EXPECT_FALSE(a.Merge(c));  // Different k.
}

TEST(BjkstTest, MergeAcrossDifferentLevels) {
  ThetaKmvSketch small(BackendOptions{64, 9}), large(BackendOptions{64, 9});
  for (int e = 0; e < 30; ++e) {
    small.Update(static_cast<uint64_t>(e) * 31337, 1);
  }
  for (int e = 0; e < 30000; ++e) {
    large.Update(static_cast<uint64_t>(e) * 7919, 1);
  }
  ASSERT_LT(large.theta(), small.theta());
  ASSERT_TRUE(small.Merge(large));
  EXPECT_EQ(small.theta(), large.theta());
  // Union ~ 30030; small's contribution is negligible.
  EXPECT_LT(RelativeError(Estimate(small), 30030), 0.35);
}

TEST(BjkstTest, SizeStaysBounded) {
  ThetaKmvSketch bjkst(BackendOptions{128, 11});
  for (int e = 0; e < 100000; ++e) {
    bjkst.Update(static_cast<uint64_t>(e) * 48271 + 5, 1);
  }
  EXPECT_LE(bjkst.SampleSize(), 2u * 128u);  // Shrink trims at 2k.
  EXPECT_LE(bjkst.MemoryBytes(), sizeof(ThetaKmvSketch) + 2u * 128u * 48u);
}

// ---------------------------------------------------------------------------
// Min-wise signatures

TEST(MinwiseSketchTest, JaccardOfIdenticalStreamsIsOne) {
  MinwiseSketch a(128, 1), b(128, 1);
  for (int e = 0; e < 1000; ++e) {
    const uint64_t elem = static_cast<uint64_t>(e) * 31337;
    a.Insert(elem);
    b.Insert(elem);
  }
  EXPECT_DOUBLE_EQ(MinwiseSketch::EstimateJaccard(a, b), 1.0);
}

TEST(MinwiseSketchTest, JaccardOfDisjointStreamsNearZero) {
  MinwiseSketch a(128, 3), b(128, 3);
  for (int e = 0; e < 1000; ++e) {
    a.Insert(static_cast<uint64_t>(e) * 7919 + 1);
    b.Insert(static_cast<uint64_t>(e) * 15485863 + (1ULL << 50));
  }
  EXPECT_LT(MinwiseSketch::EstimateJaccard(a, b), 0.05);
}

TEST(MinwiseSketchTest, JaccardTracksOverlap) {
  // 50% overlap -> J = |AnB| / |AuB| = 0.5/1.5 = 1/3.
  MinwiseSketch a(512, 5), b(512, 5);
  const int n = 4000;
  for (int e = 0; e < n; ++e) {
    const uint64_t shared = static_cast<uint64_t>(e) * 2654435761u;
    if (e < n / 2) {
      a.Insert(shared);
      b.Insert(shared);
    } else {
      a.Insert(shared);
      b.Insert(shared + (1ULL << 52));
    }
  }
  EXPECT_NEAR(MinwiseSketch::EstimateJaccard(a, b), 1.0 / 3.0, 0.07);
  EXPECT_LT(RelativeError(
                MinwiseSketch::EstimateIntersection(a, b, 1.5 * n / 2 * 2),
                n / 2.0),
            0.3);
}

TEST(MinwiseSketchTest, DeletionsAreIgnoredAndLeaveStaleState) {
  MinwiseSketch a(64, 7);
  a.Insert(42);
  const std::vector<uint64_t> before = a.signature();
  EXPECT_FALSE(a.Delete(42));
  EXPECT_EQ(a.ignored_deletions(), 1);
  EXPECT_EQ(a.signature(), before);  // Stale: still reflects 42.
}

TEST(MinwiseSketchTest, EmptySketchJaccardIsZero) {
  MinwiseSketch a(16, 9), b(16, 9);
  EXPECT_DOUBLE_EQ(MinwiseSketch::EstimateJaccard(a, b), 0.0);
  a.Insert(1);
  EXPECT_DOUBLE_EQ(MinwiseSketch::EstimateJaccard(a, b), 0.0);
}

// The punchline comparison: deleting everything empties the theta
// sample, and only new data can rebuild it; the full head-to-head with
// the 2-level hash sketch lives in bench_deletions.
TEST(BaselineContrastTest, ChurnDepletesKmvOnly) {
  ThetaKmvSketch kmv(BackendOptions{64, 11});
  for (int e = 0; e < 64; ++e) kmv.Update(static_cast<uint64_t>(e), 1);
  for (int e = 0; e < 64; ++e) kmv.Update(static_cast<uint64_t>(e), -1);
  EXPECT_TRUE(kmv.Empty());
  EXPECT_DOUBLE_EQ(Estimate(kmv), 0.0);  // Sample is gone...
  kmv.Update(9999, 1);  // ...and the sketch can only rebuild from new data.
  EXPECT_DOUBLE_EQ(Estimate(kmv), 1.0);
}

}  // namespace
}  // namespace setsketch
