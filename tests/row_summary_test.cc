// Property test for the per-row sign summaries of TwoLevelHashSketch
// (core/two_level_hash_sketch.h): after every mutator — Update,
// UpdateScalar, UpdateBatch, Merge, Clear, fixed and compact Deserialize,
// SketchBank::InstallSummary — each row summary equals a recount of the
// counters, and the union probes that read the summaries (ProbeTable,
// filled by ProbeUnionBuckets) equal a brute-force evaluation of the paper's tests on summed counters. The
// streams carry negative net frequencies, including a +1/-1 pair that
// cancels inside one row, so the counter fallback is exercised at every
// s around the 64-bit word boundaries.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimator_kernel.h"
#include "core/property_checks.h"
#include "core/sketch_bank.h"
#include "hash/prng.h"
#include "test_helpers.h"

namespace setsketch {
namespace {

const int kWidths[] = {1, 16, 32, 33, 64, 65, 128};
constexpr int kLevels = 12;
constexpr int kCopies = 4;
const std::vector<std::string> kNames = {"A", "B", "C"};

/// Asserts every summary matches its counters and every probe of every
/// view over `names` matches the brute-force evaluation.
void ExpectProbesAgree(const SketchBank& bank,
                       const std::vector<std::string>& names,
                       const std::string& context) {
  for (const std::string& name : names) {
    for (const TwoLevelHashSketch& x : bank.Sketches(name)) {
      ASSERT_TRUE(x.SummaryMatchesCounters()) << context << " " << name;
    }
  }
  const std::vector<SketchGroup> groups = bank.Groups(names);
  ProbeTable table;
  ASSERT_TRUE(table.Build(bank.Columns(names))) << context;
  for (int copy = 0; copy < table.copies(); ++copy) {
    const SketchGroup& group = groups[static_cast<size_t>(copy)];
    for (int level = 0; level < table.levels(); ++level) {
      const BruteForceUnionBucket truth = EvaluateUnionBucket(group, level);
      const std::string where = context + " copy " + std::to_string(copy) +
                                " level " + std::to_string(level);
      ASSERT_EQ(table.NonEmpty(copy, level), truth.nonempty) << where;
      ASSERT_EQ(table.UnionSingleton(copy, level), truth.singleton) << where;
      for (size_t k = 0; k < group.size(); ++k) {
        ASSERT_EQ(table.Occupied(copy, level, static_cast<int>(k)),
                  truth.occupied[k])
            << where << " column " << k;
        ASSERT_EQ(group[k]->LevelEmpty(level), !truth.occupied[k])
            << where << " column " << k;
      }
    }
  }
}

void ExpectAllViewsAgree(const SketchBank& bank, const std::string& context) {
  ExpectProbesAgree(bank, kNames, context);
  ExpectProbesAgree(bank, {"C", "A"}, context + " (C, A)");
  ExpectProbesAgree(bank, {"B"}, context + " (B)");
}

/// Two distinct elements copy 0 of `seed` maps to one level: +1 on one
/// and -1 on the other leaves that row with a positive and a negative
/// cell and a level total of 0.
std::pair<uint64_t, uint64_t> SameLevelPair(const SketchSeed& seed,
                                            SplitMix64* rng) {
  const uint64_t first = rng->Next();
  while (true) {
    const uint64_t second = rng->Next();
    if (second != first && seed.Level(second) == seed.Level(first)) {
      return {first, second};
    }
  }
}

std::vector<ElementDelta> SignedItems(size_t n, SplitMix64* rng) {
  std::vector<ElementDelta> items;
  for (size_t i = 0; i < n; ++i) {
    const int64_t delta = (rng->Next() % 3 == 0) ? -1 : 1;
    items.push_back(ElementDelta{rng->Next() % 200, delta});
  }
  return items;
}

TEST(RowSummaryPropertyTest, EveryMutatorKeepsProbesEqualToCounterSums) {
  for (const int s : kWidths) {
    SCOPED_TRACE("s=" + std::to_string(s));
    SplitMix64 rng(1000 + static_cast<uint64_t>(s));
    SketchBank bank(SketchFamily(TestParams(kLevels, s), kCopies, 77));
    for (const std::string& name : kNames) bank.AddStream(name);
    ExpectAllViewsAgree(bank, "fresh");

    // Update: legal inserts, lone deletions, and a cancellation inside
    // one row of copy 0.
    for (int i = 0; i < 40; ++i) bank.Apply("A", rng.Next() % 300, 1);
    bank.Apply("B", 5, -1);
    const auto [plus, minus] = SameLevelPair(*bank.family().seed(0), &rng);
    bank.Apply("C", plus, 1);
    bank.Apply("C", minus, -1);
    ExpectAllViewsAgree(bank, "Update");

    // UpdateScalar, the reference path.
    for (TwoLevelHashSketch& x : *bank.MutableSketches("B")) {
      for (const ElementDelta& u : SignedItems(30, &rng)) {
        x.UpdateScalar(u.element, u.delta);
      }
    }
    ExpectAllViewsAgree(bank, "UpdateScalar");

    // UpdateBatch, through the bank's batched route.
    ASSERT_TRUE(bank.ApplyBatch("A", SignedItems(300, &rng)));
    ASSERT_TRUE(bank.ApplyBatch("C", SignedItems(64, &rng)));
    ExpectAllViewsAgree(bank, "UpdateBatch");

    // Merge: ten deletions and then A's copies into B, and the exact
    // inverse of C's cancelling pair into C (its row returns to zero).
    {
      const StreamSummary a = bank.Summary("A");
      std::vector<TwoLevelHashSketch>& b = *bank.MutableSketches("B");
      for (size_t copy = 0; copy < b.size(); ++copy) {
        TwoLevelHashSketch negated(bank.family().seed(static_cast<int>(copy)));
        for (int i = 0; i < 10; ++i) negated.Update(rng.Next() % 300, -1);
        ASSERT_TRUE(b[copy].Merge(negated));
        ASSERT_TRUE(b[copy].Merge(a.sketches[copy]));
      }
      std::vector<TwoLevelHashSketch>& c = *bank.MutableSketches("C");
      TwoLevelHashSketch inverse(bank.family().seed(0));
      inverse.Update(plus, -1);
      inverse.Update(minus, 1);
      ASSERT_TRUE(c[0].Merge(inverse));
    }
    ExpectAllViewsAgree(bank, "Merge");

    // Clear one copy of A and refill it with a deletion only.
    {
      TwoLevelHashSketch& x = (*bank.MutableSketches("A"))[1];
      x.Clear();
      EXPECT_TRUE(x.Empty());
      x.Update(11, -1);
      EXPECT_FALSE(x.Empty());
    }
    ExpectAllViewsAgree(bank, "Clear");

    // Fixed and compact Deserialize, installed back with InstallSummary.
    for (const bool compact : {false, true}) {
      const std::string name = compact ? "B" : "C";
      StreamSummary decoded;
      for (const TwoLevelHashSketch& x : bank.Sketches(name)) {
        std::string bytes;
        if (compact) {
          x.SerializeCompactTo(&bytes);
        } else {
          x.SerializeTo(&bytes);
        }
        size_t offset = 0;
        std::string error;
        auto copy = TwoLevelHashSketch::Deserialize(bytes, &offset,
                                                    x.shared_seed(), &error);
        ASSERT_NE(copy, nullptr) << error;
        ASSERT_EQ(*copy, x);
        ASSERT_TRUE(copy->SummaryMatchesCounters());
        decoded.sketches.push_back(*copy);
      }
      ASSERT_TRUE(bank.InstallSummary(name, std::move(decoded)));
      ExpectAllViewsAgree(bank, compact ? "compact Deserialize"
                                        : "fixed Deserialize");
    }

    // InstallSummary replacing a stream with another stream's synopsis.
    ASSERT_TRUE(bank.InstallSummary("B", bank.Summary("A")));
    ExpectAllViewsAgree(bank, "InstallSummary");
  }
}

}  // namespace
}  // namespace setsketch
