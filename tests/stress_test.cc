// Stress and edge-case tests: extreme parameter corners, domain-boundary
// elements, huge multiplicities, degenerate configurations, and parser
// fuzzing. None of these should crash, overflow, or violate invariants.

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/property_checks.h"
#include "core/set_union_estimator.h"
#include "core/sketch_bank.h"
#include "expr/parser.h"
#include "hash/prng.h"
#include "test_helpers.h"

namespace setsketch {
namespace {

// ---------------------------------------------------------------------------
// Parameter corners

TEST(StressTest, MinimalSketchShapeStillWorks) {
  SketchParams tiny;
  tiny.levels = 1;
  tiny.num_second_level = 1;
  ASSERT_TRUE(tiny.Valid());
  TwoLevelHashSketch sketch(
      std::make_shared<const SketchSeed>(tiny, 1));
  sketch.Update(42, 1);
  EXPECT_EQ(sketch.LevelTotal(0), 1);
  sketch.Update(42, -1);
  EXPECT_TRUE(sketch.Empty());
}

TEST(StressTest, SixtyFourLevels) {
  SketchParams wide;
  wide.levels = 64;
  wide.num_second_level = 2;
  ASSERT_TRUE(wide.Valid());
  const auto seed = std::make_shared<const SketchSeed>(wide, 3);
  TwoLevelHashSketch sketch(seed);
  for (uint64_t e = 0; e < 1000; ++e) {
    sketch.Update(e, 1);
    const int level = seed->Level(e);
    EXPECT_GE(level, 0);
    EXPECT_LT(level, 64);
  }
}

TEST(StressTest, SingleCopyEstimatorsDoNotCrash) {
  SketchBank bank(SketchFamily(TestParams(), 1, 5));
  bank.AddStream("A");
  for (int e = 0; e < 100; ++e) {
    bank.Apply("A", static_cast<uint64_t>(e), 1);
  }
  const UnionEstimate est = EstimateSetUnion(bank.Groups({"A"}), 0.5);
  EXPECT_TRUE(est.ok);  // Wildly inaccurate but well-defined.
  EXPECT_GE(est.estimate, 0.0);
}

// ---------------------------------------------------------------------------
// Domain boundaries

TEST(StressTest, BoundaryElementValues) {
  const auto seed = std::make_shared<const SketchSeed>(TestParams(), 7);
  TwoLevelHashSketch sketch(seed);
  const uint64_t boundary[] = {0, 1, std::numeric_limits<uint64_t>::max(),
                               std::numeric_limits<uint64_t>::max() - 1,
                               1ULL << 63};
  for (uint64_t e : boundary) sketch.Update(e, 1);
  for (uint64_t e : boundary) sketch.Update(e, -1);
  EXPECT_TRUE(sketch.Empty());
}

TEST(StressTest, HugeMultiplicities) {
  const auto seed = std::make_shared<const SketchSeed>(TestParams(), 9);
  TwoLevelHashSketch sketch(seed);
  const int64_t big = std::numeric_limits<int64_t>::max() / 4;
  sketch.Update(5, big);
  sketch.Update(5, big);  // Sums without overflow (2 * max/4 < max).
  EXPECT_EQ(sketch.LevelTotal(seed->Level(5)), 2 * big);
  EXPECT_TRUE(SingletonBucket(sketch, seed->Level(5)));
  sketch.Update(5, -big);
  sketch.Update(5, -big);
  EXPECT_TRUE(sketch.Empty());
}

TEST(StressTest, ManyStreamsInOneBank) {
  SketchBank bank(SketchFamily(TestParams(), 2, 11));
  for (int s = 0; s < 200; ++s) {
    const std::string name = "stream_" + std::to_string(s);
    ASSERT_TRUE(bank.AddStream(name));
    bank.Apply(name, static_cast<uint64_t>(s), 1);
  }
  EXPECT_EQ(bank.StreamNames().size(), 200u);
  const auto groups = bank.Groups(bank.StreamNames());
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].size(), 200u);
  // 200 distinct elements across 200 streams.
  const UnionEstimate est = EstimateSetUnion(groups, 0.5);
  EXPECT_TRUE(est.ok);
}

// ---------------------------------------------------------------------------
// Parser fuzzing

TEST(StressTest, ParserNeverCrashesOnRandomBytes) {
  Xoshiro256StarStar rng(13);
  const char alphabet[] = "AB()|&-_ 019\t\n#%";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string input;
    const size_t length = rng.NextBelow(24);
    for (size_t i = 0; i < length; ++i) {
      input.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
    }
    const ParseResult result = ParseExpression(input);  // Must not crash.
    if (result.ok()) {
      // Whatever parsed must render and re-parse to the same tree.
      const ParseResult again =
          ParseExpression(result.expression->ToString());
      ASSERT_TRUE(again.ok()) << input;
      // The rendering is fully parenthesized: equal strings, equal trees.
      EXPECT_EQ(again.expression->ToString(), result.expression->ToString())
          << input;
    }
  }
}

TEST(StressTest, RenderParseRoundTripOnRandomExpressions) {
  Xoshiro256StarStar rng(17);
  // Build random expression strings from valid grammar pieces.
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = "A";
    const int ops = 1 + static_cast<int>(rng.NextBelow(6));
    for (int i = 0; i < ops; ++i) {
      const char op = "|&-"[rng.NextBelow(3)];
      const std::string name(1, static_cast<char>('A' + rng.NextBelow(4)));
      if (rng.NextBelow(2)) {
        text = "(" + text + ") " + op + " " + name;
      } else {
        text = text + " " + op + " " + name;
      }
    }
    const ParseResult first = ParseExpression(text);
    ASSERT_TRUE(first.ok()) << text;
    const ParseResult second =
        ParseExpression(first.expression->ToString());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.expression->ToString(), first.expression->ToString())
        << text;
  }
}

// ---------------------------------------------------------------------------
// Deserialization fuzzing at the bank level

TEST(StressTest, SnapshotFuzzNeverCrashes) {
  Xoshiro256StarStar rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    std::string garbage;
    const size_t length = rng.NextBelow(200);
    for (size_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(rng.Next()));
    }
    size_t offset = 0;
    TwoLevelHashSketch::Deserialize(garbage, &offset);  // Must not crash.
  }
}

}  // namespace
}  // namespace setsketch
