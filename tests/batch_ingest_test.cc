// Randomized equivalence suite for the bit-sliced / batched ingest
// kernels: the SecondLevelSlice transpose must produce exactly the bits
// of the per-function scalar family (same GF(2) functions, different
// evaluation order), and every batched route — UpdateBatch, ApplyBatch,
// the grouped ParallelIngest/server unit — must be bit-identical to the
// serial per-update loops, including the s > 64 scalar fallback. Also
// pins the row-summary invariant behind Empty() and the union probes.

#include <algorithm>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sketch_bank.h"
#include "core/sketch_seed.h"
#include "core/two_level_hash_sketch.h"
#include "hash/prng.h"
#include "stream/update.h"

namespace setsketch {
namespace {

// Edge s values around the 64-bit slice width, plus the fallback.
const int kSweepS[] = {1, 31, 32, 33, 63, 64};
constexpr int kFallbackS = 65;

SketchParams ParamsWithS(int s, FirstLevelKind kind = FirstLevelKind::kMix64) {
  SketchParams params;
  params.levels = 24;
  params.num_second_level = s;
  params.first_level_kind = kind;
  params.independence = 4;
  return params;
}

/// Mixed +/- update batch over a small element universe so deletions hit
/// previously inserted elements (exercising 0 -> nonzero -> 0 cells).
std::vector<ElementDelta> RandomItems(size_t n, uint64_t seed) {
  SplitMix64 sm(seed);
  std::vector<ElementDelta> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t element = sm.Next() % 512;
    const int64_t delta = (sm.Next() & 1) ? 1 : -1;
    items.push_back(ElementDelta{element, delta});
  }
  return items;
}

int64_t BruteForceNonzero(const TwoLevelHashSketch& sketch) {
  int64_t nonzero = 0;
  for (int level = 0; level < sketch.levels(); ++level) {
    for (int j = 0; j < sketch.num_second_level(); ++j) {
      for (int bit = 0; bit < 2; ++bit) {
        nonzero += sketch.Count(level, j, bit) != 0;
      }
    }
  }
  return nonzero;
}

TEST(SecondLevelSliceTest, BitsMatchScalarFamilyAcrossS) {
  for (int s : kSweepS) {
    const SketchSeed seed(ParamsWithS(s), 0x5EEDF00DULL + s);
    const SecondLevelSlice* slice = seed.slice();
    ASSERT_NE(slice, nullptr) << "s=" << s;
    SplitMix64 sm(99);
    for (int trial = 0; trial < 500; ++trial) {
      // Mix raw random words with sparse/dense edge patterns.
      uint64_t x = sm.Next();
      if (trial % 5 == 1) x = 0;
      if (trial % 5 == 2) x = ~0ULL;
      if (trial % 5 == 3) x = 1ULL << (trial % 64);
      const uint64_t bits = slice->Bits(x);
      for (int j = 0; j < s; ++j) {
        ASSERT_EQ((bits >> j) & 1,
                  static_cast<uint64_t>(seed.second_level(j)(x)))
            << "s=" << s << " j=" << j << " x=" << x;
      }
      // Unused high bits must stay clear so masks are comparable.
      if (s < 64) {
        ASSERT_EQ(bits >> s, 0u) << "s=" << s << " x=" << x;
      }
    }
  }
}

TEST(SecondLevelSliceTest, FallbackAboveSliceWidthHasNoSlice) {
  const SketchSeed seed(ParamsWithS(kFallbackS), 77);
  EXPECT_EQ(seed.slice(), nullptr);
}

TEST(BatchIngestTest, SlicedUpdateMatchesScalarBothFamilies) {
  for (FirstLevelKind kind :
       {FirstLevelKind::kMix64, FirstLevelKind::kKWisePoly}) {
    for (int s : kSweepS) {
      const auto seed = std::make_shared<const SketchSeed>(
          ParamsWithS(s, kind), 4242 + s);
      TwoLevelHashSketch sliced(seed);
      TwoLevelHashSketch scalar(seed);
      for (const ElementDelta& u : RandomItems(2000, 11 + s)) {
        sliced.Update(u.element, u.delta);
        scalar.UpdateScalar(u.element, u.delta);
      }
      EXPECT_EQ(sliced, scalar) << "kind=" << static_cast<int>(kind)
                                << " s=" << s;
      EXPECT_TRUE(sliced.SummaryMatchesCounters()) << "s=" << s;
      EXPECT_TRUE(scalar.SummaryMatchesCounters()) << "s=" << s;
    }
  }
}

TEST(BatchIngestTest, UpdateBatchMatchesSerialLoopIncludingFallback) {
  std::vector<int> sweep(std::begin(kSweepS), std::end(kSweepS));
  sweep.push_back(kFallbackS);  // s > 64: UpdateBatch takes the scalar path.
  for (int s : sweep) {
    const auto seed =
        std::make_shared<const SketchSeed>(ParamsWithS(s), 31337 + s);
    TwoLevelHashSketch batched(seed);
    TwoLevelHashSketch serial(seed);
    const std::vector<ElementDelta> items = RandomItems(3000, 23 + s);
    batched.UpdateBatch(items);
    for (const ElementDelta& u : items) serial.Update(u.element, u.delta);
    EXPECT_EQ(batched, serial) << "s=" << s;
    EXPECT_TRUE(batched.SummaryMatchesCounters()) << "s=" << s;
  }
}

TEST(BatchIngestTest, BankApplyBatchMatchesSerialApply) {
  const std::vector<std::string> names = {"A", "B", "C"};
  SketchBank batched(SketchFamily(ParamsWithS(16), 8, 5));
  SketchBank serial(SketchFamily(ParamsWithS(16), 8, 5));
  for (const std::string& name : names) {
    batched.AddStream(name);
    serial.AddStream(name);
  }
  // Mixed batch over 3 streams plus updates addressing an unknown id.
  SplitMix64 sm(71);
  std::vector<Update> updates;
  for (int i = 0; i < 4000; ++i) {
    updates.push_back(Update{static_cast<StreamId>(sm.Next() % 4),
                             sm.Next() % 300,
                             (sm.Next() & 1) ? int64_t{1} : int64_t{-1}});
  }
  const size_t expected_known =
      static_cast<size_t>(std::count_if(updates.begin(), updates.end(),
                                        [](const Update& u) {
                                          return u.stream < 3;
                                        }));
  EXPECT_EQ(batched.ApplyBatch(names, updates), expected_known);
  for (const Update& u : updates) {
    if (u.stream < 3) {
      serial.Apply(names[u.stream], u.element, u.delta);
    }
  }
  for (const std::string& name : names) {
    const auto& a = batched.Sketches(name);
    const auto& b = serial.Sketches(name);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << name << " copy " << i;
    }
  }
}

TEST(BatchIngestTest, GroupUpdatesPreservesOrderAndSkipsUnknown) {
  SketchBank bank(SketchFamily(ParamsWithS(8), 2, 9));
  bank.AddStream("A");
  bank.AddStream("B");
  const std::vector<Update> updates = {
      {1, 10, 1}, {0, 20, 1}, {1, 30, -1}, {2, 40, 1}, {0, 50, 2}};
  size_t applied = 0;
  const std::vector<StreamBatch> groups =
      bank.GroupUpdates({"A", "B", "missing"}, updates, &applied);
  EXPECT_EQ(applied, 4u);  // Stream id 2 resolves to an unknown name.
  ASSERT_EQ(groups.size(), 2u);
  // Groups in order of first appearance: B first, then A.
  EXPECT_EQ(groups[0].column, bank.MutableSketches("B"));
  EXPECT_EQ(groups[0].items,
            (std::vector<ElementDelta>{{10, 1}, {30, -1}}));
  EXPECT_EQ(groups[1].column, bank.MutableSketches("A"));
  EXPECT_EQ(groups[1].items,
            (std::vector<ElementDelta>{{20, 1}, {50, 2}}));
}

// The NonzeroCellsTest cases pin Empty() to "every counter is zero"
// through cancellation, Merge and both decoders, and the row summaries
// Empty() reads to a recount of the counters.

TEST(NonzeroCellsTest, EmptyIsO1AndTracksCancellations) {
  const auto seed = std::make_shared<const SketchSeed>(ParamsWithS(32), 3);
  TwoLevelHashSketch sketch(seed);
  EXPECT_TRUE(sketch.Empty());
  EXPECT_TRUE(sketch.SummaryMatchesCounters());

  const std::vector<ElementDelta> items = RandomItems(500, 13);
  sketch.UpdateBatch(items);
  EXPECT_TRUE(sketch.SummaryMatchesCounters());
  EXPECT_EQ(sketch.Empty(), BruteForceNonzero(sketch) == 0);

  // Applying the exact inverse cancels every counter: back to Empty.
  for (const ElementDelta& u : items) sketch.Update(u.element, -u.delta);
  EXPECT_EQ(BruteForceNonzero(sketch), 0);
  EXPECT_TRUE(sketch.SummaryMatchesCounters());
  EXPECT_TRUE(sketch.Empty());

  sketch.Update(7, 1);
  EXPECT_FALSE(sketch.Empty());
  sketch.Clear();
  EXPECT_TRUE(sketch.Empty());
  EXPECT_TRUE(sketch.SummaryMatchesCounters());

  // A lone deletion leaves only negative cells: not empty either.
  sketch.Update(7, -1);
  EXPECT_FALSE(sketch.Empty());
  EXPECT_TRUE(sketch.SummaryMatchesCounters());
}

TEST(NonzeroCellsTest, MergeTracksTransitions) {
  const auto seed = std::make_shared<const SketchSeed>(ParamsWithS(16), 21);
  TwoLevelHashSketch a(seed);
  TwoLevelHashSketch b(seed);
  const std::vector<ElementDelta> items = RandomItems(400, 17);
  a.UpdateBatch(items);
  // b = -a, so merging cancels everything.
  for (const ElementDelta& u : items) b.Update(u.element, -u.delta);
  ASSERT_TRUE(a.Merge(b));
  EXPECT_TRUE(a.Empty());
  EXPECT_EQ(BruteForceNonzero(a), 0);
  EXPECT_TRUE(a.SummaryMatchesCounters());

  // Merging disjoint content sums and stays consistent.
  TwoLevelHashSketch c(seed);
  c.Update(1001, 1);
  ASSERT_TRUE(a.Merge(c));
  EXPECT_FALSE(a.Empty());
  EXPECT_TRUE(a.SummaryMatchesCounters());
}

TEST(NonzeroCellsTest, SerializationRoundTripRestoresInvariant) {
  const auto seed = std::make_shared<const SketchSeed>(ParamsWithS(32), 37);
  TwoLevelHashSketch sketch(seed);
  sketch.UpdateBatch(RandomItems(800, 29));
  ASSERT_GT(BruteForceNonzero(sketch), 0);
  ASSERT_TRUE(sketch.SummaryMatchesCounters());

  for (const bool compact : {false, true}) {
    std::string buffer;
    if (compact) {
      sketch.SerializeCompactTo(&buffer);
    } else {
      sketch.SerializeTo(&buffer);
    }
    size_t offset = 0;
    const auto decoded = TwoLevelHashSketch::Deserialize(buffer, &offset);
    ASSERT_NE(decoded, nullptr) << "compact=" << compact;
    EXPECT_EQ(offset, buffer.size());
    EXPECT_EQ(*decoded, sketch);
    EXPECT_TRUE(decoded->SummaryMatchesCounters()) << "compact=" << compact;
    EXPECT_FALSE(decoded->Empty());
  }

  // An empty sketch round-trips to Empty() in both encodings.
  TwoLevelHashSketch empty(seed);
  for (const bool compact : {false, true}) {
    std::string buffer;
    if (compact) {
      empty.SerializeCompactTo(&buffer);
    } else {
      empty.SerializeTo(&buffer);
    }
    size_t offset = 0;
    const auto decoded = TwoLevelHashSketch::Deserialize(buffer, &offset);
    ASSERT_NE(decoded, nullptr);
    EXPECT_TRUE(decoded->Empty()) << "compact=" << compact;
    EXPECT_TRUE(decoded->SummaryMatchesCounters());
  }
}

}  // namespace
}  // namespace setsketch
