// Tests for the 2-level hash sketch synopsis itself: construction, update
// routing, linearity (deletion imperviousness, merge), serialization, and
// the SketchSeed / SketchFamily / SketchBank plumbing.

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/sketch_bank.h"
#include "core/sketch_config.h"
#include "core/sketch_seed.h"
#include "core/two_level_hash_sketch.h"
#include "hash/prng.h"
#include "stream/stream_generator.h"

namespace setsketch {
namespace {

SketchParams SmallParams() {
  SketchParams params;
  params.levels = 24;
  params.num_second_level = 16;
  return params;
}

std::shared_ptr<const SketchSeed> MakeSeed(uint64_t value = 1,
                                           SketchParams params = SmallParams()) {
  return std::make_shared<const SketchSeed>(params, value);
}

// ---------------------------------------------------------------------------
// SketchParams / SketchSeed / SketchFamily

TEST(SketchParamsTest, ValidityChecks) {
  SketchParams p;
  EXPECT_TRUE(p.Valid());
  p.levels = 0;
  EXPECT_FALSE(p.Valid());
  p.levels = 65;
  EXPECT_FALSE(p.Valid());
  p = SketchParams{};
  p.num_second_level = 0;
  EXPECT_FALSE(p.Valid());
  p = SketchParams{};
  p.first_level_kind = FirstLevelKind::kKWisePoly;
  p.independence = 1;
  EXPECT_FALSE(p.Valid());
  p.independence = 2;
  EXPECT_TRUE(p.Valid());
}

TEST(SketchConfigTest, CodecDecodesExactlyWhatValidateAccepts) {
  SketchConfig top;
  top.params.levels = 64;
  top.params.num_second_level = kMaxSecondLevel;
  top.params.first_level_kind = FirstLevelKind::kKWisePoly;
  top.params.independence = kMaxIndependence;
  top.copies = kMaxCopies;
  top.seed = ~uint64_t{0};
  top.default_backend = SketchBackendId::kSetSketch;
  top.backend_size = kMaxBackendSize;
  SketchConfig bottom;
  bottom.params.levels = 1;
  bottom.params.num_second_level = 1;
  bottom.params.independence = 0;
  bottom.copies = 1;
  bottom.seed = 0;
  bottom.backend_size = kMinBackendSize;

  std::vector<SketchConfig> refused(9, bottom);
  refused[0].params.levels = 0;
  refused[1].params.levels = 65;
  refused[2].params.num_second_level = kMaxSecondLevel + 1;
  refused[3].params.independence = -1;
  refused[4].copies = 0;
  refused[5].copies = kMaxCopies + 1;
  refused[6].default_backend = static_cast<SketchBackendId>(9);
  refused[7].backend_size = kMinBackendSize - 1;
  refused[8].backend_size = kMaxBackendSize + 1;

  for (const SketchConfig& config : {SketchConfig{}, top, bottom}) {
    std::string error;
    EXPECT_TRUE(config.Validate(&error)) << error;
    std::string bytes;
    EncodeSketchConfig(config, &bytes);
    size_t offset = 0;
    SketchConfig decoded;
    ASSERT_TRUE(DecodeSketchConfig(bytes, &offset, &decoded, &error))
        << error;
    EXPECT_EQ(offset, bytes.size());
    EXPECT_TRUE(decoded == config);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      offset = 0;
      EXPECT_FALSE(DecodeSketchConfig(bytes.substr(0, cut), &offset,
                                      &decoded, &error));
    }
  }
  for (size_t i = 0; i < refused.size(); ++i) {
    std::string error;
    EXPECT_FALSE(refused[i].Validate(&error)) << "config " << i;
    EXPECT_FALSE(error.empty());
    std::string bytes;
    EncodeSketchConfig(refused[i], &bytes);
    size_t offset = 0;
    SketchConfig decoded;
    EXPECT_FALSE(DecodeSketchConfig(bytes, &offset, &decoded, &error))
        << "config " << i;
  }

  EXPECT_EQ(SketchConfig{}.CounterBytesPerStream(),
            uint64_t{128} * 48 * 2 * 32 * sizeof(int64_t));
  SketchConfig other_size;
  other_size.backend_size = 8192;
  EXPECT_FALSE(other_size == SketchConfig{});
}

TEST(SketchSeedTest, SameSeedValueSameFunctions) {
  const auto a = MakeSeed(7);
  const auto b = MakeSeed(7);
  EXPECT_TRUE(*a == *b);
  for (uint64_t e = 0; e < 200; ++e) {
    EXPECT_EQ(a->Level(e), b->Level(e));
    for (int j = 0; j < a->num_second_level(); ++j) {
      EXPECT_EQ(a->second_level(j)(e), b->second_level(j)(e));
    }
  }
}

TEST(SketchSeedTest, DifferentSeedValuesDiffer) {
  const auto a = MakeSeed(7);
  const auto b = MakeSeed(8);
  EXPECT_FALSE(*a == *b);
  int level_diffs = 0;
  for (uint64_t e = 0; e < 500; ++e) {
    if (a->Level(e) != b->Level(e)) ++level_diffs;
  }
  EXPECT_GT(level_diffs, 100);
}

TEST(SketchSeedTest, LevelsWithinRange) {
  const auto seed = MakeSeed(3);
  for (uint64_t e = 0; e < 10000; ++e) {
    const int level = seed->Level(e);
    EXPECT_GE(level, 0);
    EXPECT_LT(level, SmallParams().levels);
  }
}

TEST(SketchSeedTest, LevelDistributionIsGeometric) {
  const auto seed = MakeSeed(5);
  const int n = 1 << 15;
  std::vector<int> counts(static_cast<size_t>(SmallParams().levels), 0);
  for (int e = 0; e < n; ++e) {
    ++counts[static_cast<size_t>(seed->Level(static_cast<uint64_t>(e)))];
  }
  for (int level = 0; level < 5; ++level) {
    const double p = 1.0 / std::exp2(level + 1);
    EXPECT_NEAR(counts[static_cast<size_t>(level)], n * p,
                6 * std::sqrt(n * p * (1 - p)));
  }
}

TEST(SketchFamilyTest, CopiesAreIndependentButReproducible) {
  const SketchFamily f1(SmallParams(), 8, 99);
  const SketchFamily f2(SmallParams(), 8, 99);
  ASSERT_EQ(f1.size(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(*f1.seed(i) == *f2.seed(i));
  }
  // Distinct copies use distinct coins.
  EXPECT_FALSE(*f1.seed(0) == *f1.seed(1));
}

// ---------------------------------------------------------------------------
// TwoLevelHashSketch: basic behavior

TEST(TwoLevelHashSketchTest, StartsEmpty) {
  const TwoLevelHashSketch sketch(MakeSeed());
  EXPECT_TRUE(sketch.Empty());
  for (int level = 0; level < sketch.levels(); ++level) {
    EXPECT_TRUE(sketch.LevelEmpty(level));
  }
}

TEST(TwoLevelHashSketchTest, SingleInsertLandsInOneLevelOneCellPerJ) {
  const auto seed = MakeSeed(11);
  TwoLevelHashSketch sketch(seed);
  const uint64_t e = 42;
  sketch.Update(e, 3);
  const int level = seed->Level(e);
  EXPECT_EQ(sketch.LevelTotal(level), 3);
  for (int j = 0; j < sketch.num_second_level(); ++j) {
    const int bit = seed->second_level(j)(e);
    EXPECT_EQ(sketch.Count(level, j, bit), 3);
    EXPECT_EQ(sketch.Count(level, j, 1 - bit), 0);
  }
  // All other levels untouched.
  for (int l = 0; l < sketch.levels(); ++l) {
    if (l != level) {
      EXPECT_TRUE(sketch.LevelEmpty(l));
    }
  }
}

TEST(TwoLevelHashSketchTest, InsertThenDeleteRestoresEmpty) {
  TwoLevelHashSketch sketch(MakeSeed(13));
  for (uint64_t e = 0; e < 100; ++e) sketch.Update(e, 2);
  EXPECT_FALSE(sketch.Empty());
  for (uint64_t e = 0; e < 100; ++e) sketch.Update(e, -2);
  EXPECT_TRUE(sketch.Empty());
}

TEST(TwoLevelHashSketchTest, CounterArithmeticWrapsAtInt64Extremes) {
  // PUSH deltas are any int64, so counter sums leave the int64 range.
  // Every counter add wraps (two's complement): Update, UpdateScalar,
  // UpdateBatch and Merge agree bit for bit, and the sketch stays linear
  // modulo 2^64. Under -fsanitize=undefined this also proves no add is
  // a signed overflow. s = 65 takes the per-function path throughout.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::vector<ElementDelta> items = {
      {11, kMax}, {11, kMax}, {12, kMin}, {12, kMin}, {11, 1},
      {13, kMin}, {13, kMax}, {14, kMax}, {14, 2},    {12, -1}};
  for (const int s : {16, 65}) {
    SketchParams params = SmallParams();
    params.num_second_level = s;
    const auto seed = MakeSeed(29, params);
    TwoLevelHashSketch sliced(seed), scalar(seed), batched(seed);
    TwoLevelHashSketch merged(seed), second_half(seed);
    for (size_t i = 0; i < items.size(); ++i) {
      sliced.Update(items[i].element, items[i].delta);
      scalar.UpdateScalar(items[i].element, items[i].delta);
      (i < items.size() / 2 ? merged : second_half)
          .UpdateBatch({&items[i], 1});
    }
    batched.UpdateBatch(items);
    ASSERT_TRUE(merged.Merge(second_half));
    for (const TwoLevelHashSketch* x : {&scalar, &batched, &merged}) {
      EXPECT_TRUE(*x == sliced) << "s=" << s;
      EXPECT_TRUE(x->SummaryMatchesCounters()) << "s=" << s;
    }

    // Element 11 alone: 2 * kMax + 1 wraps to -1 in every counter it
    // touches; adding 1 more returns the sketch to empty.
    TwoLevelHashSketch lone(seed);
    lone.Update(11, kMax);
    lone.UpdateScalar(11, kMax);
    lone.UpdateBatch(std::vector<ElementDelta>{{11, 1}});
    const int level = seed->Level(11);
    EXPECT_EQ(lone.LevelTotal(level), -1) << "s=" << s;
    EXPECT_FALSE(lone.LevelEmpty(level));
    lone.Update(11, 1);
    EXPECT_TRUE(lone.Empty()) << "s=" << s;
  }
}

TEST(TwoLevelHashSketchTest, ApplyUsesElementAndDelta) {
  const auto seed = MakeSeed(15);
  TwoLevelHashSketch a(seed), b(seed);
  a.Apply(Insert(3, 77, 5));  // Stream id ignored by the sketch.
  b.Update(77, 5);
  EXPECT_TRUE(a == b);
}

TEST(TwoLevelHashSketchTest, ClearZeroesEverything) {
  TwoLevelHashSketch sketch(MakeSeed(17));
  for (uint64_t e = 0; e < 50; ++e) sketch.Update(e, 1);
  sketch.Clear();
  EXPECT_TRUE(sketch.Empty());
}

// ---------------------------------------------------------------------------
// Linearity: the paper's deletion-imperviousness guarantee.

// Property: for arbitrary legal insert/delete interleavings, the sketch
// equals the sketch of the net multiset — "identical to a sketch that
// never sees the deleted items" (Section 3.1).
class DeletionImperviousTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeletionImperviousTest, SketchEqualsNetMultisetSketch) {
  const uint64_t trial_seed = GetParam();
  const auto seed = MakeSeed(1000 + trial_seed);

  // Base: 512 distinct elements inserted once.
  std::vector<Update> base;
  for (uint64_t e = 0; e < 512; ++e) base.push_back(Insert(0, e * 2654435761));

  // Churned: same net multiset, heavy insert/delete traffic.
  ChurnOptions churn;
  churn.max_multiplicity = 5;
  churn.transient_fraction = 0.8;
  churn.seed = trial_seed;
  std::vector<Update> churned = InjectChurn(base, churn);
  ShuffleUpdates(&base, trial_seed ^ 1);

  TwoLevelHashSketch clean(seed), noisy(seed);
  for (const Update& u : base) clean.Apply(u);
  for (const Update& u : churned) noisy.Apply(u);
  EXPECT_TRUE(clean == noisy)
      << "sketch diverged after churn (trial " << trial_seed << ")";
}

INSTANTIATE_TEST_SUITE_P(Trials, DeletionImperviousTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TwoLevelHashSketchTest, OrderInsensitive) {
  const auto seed = MakeSeed(21);
  std::vector<Update> updates;
  for (uint64_t e = 0; e < 300; ++e) updates.push_back(Insert(0, e));
  for (uint64_t e = 0; e < 300; e += 3) updates.push_back(Delete(0, e));
  TwoLevelHashSketch forward(seed), shuffled_sketch(seed);
  for (const Update& u : updates) forward.Apply(u);
  // Note: shuffling may reorder a delete before its insert; counters can go
  // transiently negative but linearity still holds at the end.
  ShuffleUpdates(&updates, 7);
  for (const Update& u : updates) shuffled_sketch.Apply(u);
  EXPECT_TRUE(forward == shuffled_sketch);
}

// ---------------------------------------------------------------------------
// Merge

TEST(TwoLevelHashSketchTest, MergeEqualsConcatenatedStream) {
  const auto seed = MakeSeed(23);
  TwoLevelHashSketch part1(seed), part2(seed), whole(seed);
  for (uint64_t e = 0; e < 200; ++e) {
    if (e % 2 == 0) {
      part1.Update(e, 1);
    } else {
      part2.Update(e, 1);
    }
    whole.Update(e, 1);
  }
  EXPECT_TRUE(part1.Merge(part2));
  EXPECT_TRUE(part1 == whole);
}

TEST(TwoLevelHashSketchTest, MergeRejectsForeignSeed) {
  TwoLevelHashSketch a(MakeSeed(1)), b(MakeSeed(2));
  b.Update(5, 1);
  EXPECT_FALSE(a.Merge(b));
  EXPECT_TRUE(a.Empty());  // Unchanged.
}

TEST(TwoLevelHashSketchTest, MergeWithOverlapAddsFrequencies) {
  const auto seed = MakeSeed(25);
  TwoLevelHashSketch a(seed), b(seed), expect(seed);
  a.Update(7, 2);
  b.Update(7, 3);
  expect.Update(7, 5);
  ASSERT_TRUE(a.Merge(b));
  EXPECT_TRUE(a == expect);
}

// ---------------------------------------------------------------------------
// Serialization

TEST(TwoLevelHashSketchSerializationTest, RoundTripPreservesEverything) {
  SketchParams params = SmallParams();
  params.first_level_kind = FirstLevelKind::kKWisePoly;
  params.independence = 6;
  TwoLevelHashSketch sketch(MakeSeed(31, params));
  for (uint64_t e = 0; e < 400; ++e) sketch.Update(e * 7919, 1 + (e % 3));
  for (uint64_t e = 0; e < 400; e += 5) sketch.Update(e * 7919, -1);

  std::string bytes;
  sketch.SerializeTo(&bytes);
  size_t offset = 0;
  const auto decoded = TwoLevelHashSketch::Deserialize(bytes, &offset);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_TRUE(*decoded == sketch);
  // The decoded sketch keeps working (same hash functions).
  TwoLevelHashSketch copy = *decoded;
  copy.Update(123456789, 1);
  TwoLevelHashSketch reference = sketch;
  reference.Update(123456789, 1);
  EXPECT_TRUE(copy == reference);
}

TEST(TwoLevelHashSketchSerializationTest, MultipleSketchesBackToBack) {
  const auto seed = MakeSeed(33);
  TwoLevelHashSketch a(seed), b(seed);
  a.Update(1, 1);
  b.Update(2, 2);
  std::string bytes;
  a.SerializeTo(&bytes);
  b.SerializeTo(&bytes);
  size_t offset = 0;
  const auto da = TwoLevelHashSketch::Deserialize(bytes, &offset);
  const auto db = TwoLevelHashSketch::Deserialize(bytes, &offset);
  ASSERT_NE(da, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_TRUE(*da == a);
  EXPECT_TRUE(*db == b);
}

TEST(TwoLevelHashSketchSerializationTest, RejectsCorruptedInput) {
  TwoLevelHashSketch sketch(MakeSeed(35));
  sketch.Update(9, 1);
  std::string bytes;
  sketch.SerializeTo(&bytes);

  // Truncation.
  std::string truncated = bytes.substr(0, bytes.size() / 2);
  size_t offset = 0;
  EXPECT_EQ(TwoLevelHashSketch::Deserialize(truncated, &offset), nullptr);

  // Bad magic.
  std::string corrupted = bytes;
  corrupted[0] = static_cast<char>(corrupted[0] + 1);
  offset = 0;
  EXPECT_EQ(TwoLevelHashSketch::Deserialize(corrupted, &offset), nullptr);

  // Empty.
  offset = 0;
  EXPECT_EQ(TwoLevelHashSketch::Deserialize("", &offset), nullptr);
}

// ---------------------------------------------------------------------------
// SketchBank

TEST(SketchBankTest, AddStreamAndApply) {
  SketchBank bank(SketchFamily(SmallParams(), 4, 71));
  EXPECT_TRUE(bank.AddStream("A"));
  EXPECT_FALSE(bank.AddStream("A"));  // Idempotent.
  EXPECT_TRUE(bank.HasStream("A"));
  EXPECT_FALSE(bank.HasStream("B"));
  EXPECT_TRUE(bank.Apply("A", 42, 1));
  EXPECT_FALSE(bank.Apply("B", 42, 1));
  EXPECT_EQ(bank.num_copies(), 4);
  for (const TwoLevelHashSketch& sketch : bank.Sketches("A")) {
    EXPECT_FALSE(sketch.Empty());
  }
}

TEST(SketchBankTest, GroupsAlignCopies) {
  SketchBank bank(SketchFamily(SmallParams(), 3, 73));
  bank.AddStream("A");
  bank.AddStream("B");
  const std::vector<SketchGroup> groups = bank.Groups({"A", "B"});
  ASSERT_EQ(groups.size(), 3u);
  for (const SketchGroup& group : groups) {
    ASSERT_EQ(group.size(), 2u);
    EXPECT_TRUE(GroupSeedsMatch(group));  // Same copy => same coins.
  }
  // Different copies use different coins.
  EXPECT_FALSE(groups[0][0]->seed() == groups[1][0]->seed());
}

TEST(SketchBankTest, GroupsUnknownStreamIsEmpty) {
  SketchBank bank(SketchFamily(SmallParams(), 2, 75));
  bank.AddStream("A");
  EXPECT_TRUE(bank.Groups({"A", "nope"}).empty());
}

TEST(SketchBankTest, CounterBytesScalesWithStreamsAndCopies) {
  SketchBank bank(SketchFamily(SmallParams(), 2, 77));
  EXPECT_EQ(bank.CounterBytes(), 0u);
  bank.AddStream("A");
  const size_t one = bank.CounterBytes();
  EXPECT_GT(one, 0u);
  bank.AddStream("B");
  EXPECT_EQ(bank.CounterBytes(), 2 * one);
}

}  // namespace
}  // namespace setsketch
