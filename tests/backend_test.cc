// Tests for the pluggable distinct-sketch backends (DESIGN.md §3.8): the
// registry, the theta/KMV and SetSketch DistinctSketch implementations
// (accuracy, deletion-exactness, merge, canonical serialization), and the
// EstimateWithBackend expression seam.

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/set_sketch.h"
#include "core/sketch_backend.h"
#include "core/theta_sketch.h"
#include "expr/parser.h"
#include "util/stats.h"

namespace setsketch {
namespace {

const SketchBackendId kBackends[] = {SketchBackendId::kThetaKmv,
                                     SketchBackendId::kSetSketch};

BackendOptions TestOptions(uint32_t size = 4096, uint64_t seed = 42) {
  BackendOptions options;
  options.size = size;
  options.seed = seed;
  return options;
}

// ---------------------------------------------------------------------------
// Registry

TEST(BackendRegistryTest, NamesRoundTrip) {
  for (uint8_t raw = 0; raw <= kMaxSketchBackendId; ++raw) {
    const auto id = static_cast<SketchBackendId>(raw);
    SketchBackendId parsed;
    ASSERT_TRUE(ParseSketchBackendName(SketchBackendName(id), &parsed))
        << SketchBackendName(id);
    EXPECT_EQ(parsed, id);
  }
  SketchBackendId parsed;
  EXPECT_FALSE(ParseSketchBackendName("hyperloglogish", &parsed));
  EXPECT_TRUE(KnownSketchBackend(0));
  EXPECT_FALSE(KnownSketchBackend(kMaxSketchBackendId + 1));
}

TEST(BackendRegistryTest, FactoryCreatesEveryNonDefaultBackend) {
  EXPECT_EQ(CreateDistinctSketch(SketchBackendId::kTwoLevelHash,
                                 TestOptions()),
            nullptr);
  for (const SketchBackendId id : kBackends) {
    auto sketch = CreateDistinctSketch(id, TestOptions());
    ASSERT_NE(sketch, nullptr);
    EXPECT_EQ(sketch->backend(), id);
    EXPECT_TRUE(sketch->Empty());
  }
}

// ---------------------------------------------------------------------------
// Accuracy + deletion handling, shared across backends

TEST(BackendSketchTest, EstimatesWithinTargetError) {
  for (const SketchBackendId id : kBackends) {
    auto sketch = CreateDistinctSketch(id, TestOptions());
    const int n = 200000;
    for (int e = 0; e < n; ++e) {
      sketch->Update(static_cast<uint64_t>(e) * 2654435761ULL + 17, +1);
    }
    EXPECT_LT(RelativeError(sketch->EstimateDistinct(), n),
              sketch->TargetRelativeError())
        << SketchBackendName(id);
  }
}

TEST(BackendSketchTest, DeletionsLeaveNoTrace) {
  // Insert n elements, then delete all but `survivors`: the sketch must
  // estimate the *net* set, the linearity property the paper's synopsis
  // is built around and sampling baselines lack.
  for (const SketchBackendId id : kBackends) {
    auto sketch = CreateDistinctSketch(id, TestOptions());
    auto ghost = CreateDistinctSketch(id, TestOptions());
    const int n = 100000, survivors = 5000;
    for (int e = 0; e < n; ++e) sketch->Update(e, +1);
    for (int e = survivors; e < n; ++e) sketch->Update(e, -1);
    for (int e = 0; e < survivors; ++e) ghost->Update(e, +1);
    if (id == SketchBackendId::kSetSketch) {
      // Strictly linear backends end bit-identical to never having seen
      // the deleted elements (Equals compares full counter state).
      EXPECT_TRUE(sketch->Equals(*ghost)) << SketchBackendName(id);
    }
    // Theta is history-dependent (the threshold only lowers on inserts),
    // so only the *estimate* is order-robust there — still within target,
    // which is exactly what the sampling baselines fail.
    EXPECT_LT(RelativeError(sketch->EstimateDistinct(), survivors),
              sketch->TargetRelativeError())
        << SketchBackendName(id);
  }
}

TEST(BackendSketchTest, DeleteToEmptyIsEmpty) {
  for (const SketchBackendId id : kBackends) {
    auto sketch = CreateDistinctSketch(id, TestOptions(64));
    for (int e = 0; e < 5000; ++e) sketch->Update(e, +1);
    EXPECT_FALSE(sketch->Empty());
    for (int e = 0; e < 5000; ++e) sketch->Update(e, -1);
    EXPECT_TRUE(sketch->Empty()) << SketchBackendName(id);
    EXPECT_EQ(sketch->EstimateDistinct(), 0.0) << SketchBackendName(id);
  }
}

TEST(BackendSketchTest, MergeEqualsConcatenatedStream) {
  for (const SketchBackendId id : kBackends) {
    auto left = CreateDistinctSketch(id, TestOptions(256));
    auto right = CreateDistinctSketch(id, TestOptions(256));
    auto whole = CreateDistinctSketch(id, TestOptions(256));
    for (int e = 0; e < 30000; ++e) {
      auto& half = (e % 2 == 0) ? left : right;
      half->Update(e, +1);
      whole->Update(e, +1);
    }
    ASSERT_TRUE(left->Merge(*right));
    if (id == SketchBackendId::kSetSketch) {
      EXPECT_TRUE(left->Equals(*whole)) << SketchBackendName(id);
    } else {
      // Theta thresholds depend on per-sketch insert history; the merged
      // estimate must still agree with the concatenated stream's.
      EXPECT_LT(RelativeError(left->EstimateDistinct(), 30000),
                left->TargetRelativeError())
          << SketchBackendName(id);
    }
  }
}

TEST(BackendSketchTest, MergeRefusesMismatchedConfig) {
  for (const SketchBackendId id : kBackends) {
    auto sketch = CreateDistinctSketch(id, TestOptions(256, 1));
    auto wrong_seed = CreateDistinctSketch(id, TestOptions(256, 2));
    auto wrong_size = CreateDistinctSketch(id, TestOptions(512, 1));
    EXPECT_FALSE(sketch->Merge(*wrong_seed));
    EXPECT_FALSE(sketch->Merge(*wrong_size));
    const auto other =
        (id == SketchBackendId::kThetaKmv) ? SketchBackendId::kSetSketch
                                           : SketchBackendId::kThetaKmv;
    auto wrong_backend = CreateDistinctSketch(other, TestOptions(256, 1));
    EXPECT_FALSE(sketch->Merge(*wrong_backend));
  }
}

// ---------------------------------------------------------------------------
// Serialization

TEST(BackendSketchTest, SerializeRoundTripsAndIsCanonical) {
  std::mt19937_64 rng(7);
  for (const SketchBackendId id : kBackends) {
    auto sketch = CreateDistinctSketch(id, TestOptions(512, 9));
    for (int e = 0; e < 50000; ++e) sketch->Update(rng(), +1);
    std::string bytes;
    sketch->SerializeTo(&bytes);
    size_t offset = 0;
    std::string error;
    auto restored =
        DeserializeDistinctSketch(bytes, &offset, nullptr, &error);
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_EQ(offset, bytes.size());
    EXPECT_TRUE(restored->Equals(*sketch));
    // Canonical: re-serializing the restored sketch gives the same bytes
    // (summary caches and anti-entropy repair compare encodings).
    std::string again;
    restored->SerializeTo(&again);
    EXPECT_EQ(again, bytes) << SketchBackendName(id);
  }
}

TEST(BackendSketchTest, DeserializeRejectsMutatedEncodings) {
  // Truncations and single-byte mutations must fail cleanly or decode to
  // a *valid* sketch (never crash / over-read). Exhaustive truncation,
  // sampled mutation.
  std::mt19937_64 rng(11);
  for (const SketchBackendId id : kBackends) {
    auto sketch = CreateDistinctSketch(id, TestOptions(64, 3));
    for (int e = 0; e < 3000; ++e) sketch->Update(rng(), +1);
    std::string bytes;
    sketch->SerializeTo(&bytes);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::string truncated = bytes.substr(0, cut);
      size_t offset = 0;
      std::string error;
      auto decoded =
          DeserializeDistinctSketch(truncated, &offset, nullptr, &error);
      // Truncation may still decode if the cut lands past the payload's
      // self-delimited end — impossible here because we cut strictly
      // inside, so every decode must fail.
      EXPECT_EQ(decoded, nullptr) << SketchBackendName(id) << " cut=" << cut;
    }
    for (int trial = 0; trial < 500; ++trial) {
      std::string mutated = bytes;
      mutated[rng() % mutated.size()] = static_cast<char>(rng());
      size_t offset = 0;
      std::string error;
      auto decoded =
          DeserializeDistinctSketch(mutated, &offset, nullptr, &error);
      if (decoded != nullptr) {
        EXPECT_LE(offset, mutated.size());
        std::string reencoded;
        decoded->SerializeTo(&reencoded);  // Must not crash.
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Expression seam

using Lookup = std::unordered_map<std::string, std::unique_ptr<DistinctSketch>>;

std::function<const DistinctSketch*(const std::string&)> LeafOf(
    const Lookup& lookup) {
  return [&lookup](const std::string& name) -> const DistinctSketch* {
    auto it = lookup.find(name);
    return it == lookup.end() ? nullptr : it->second.get();
  };
}

/// Three overlapping streams: A = [0, 60k), B = [40k, 120k), C = [100k,
/// 140k) — ground truths computed from the ranges.
Lookup BuildStreams(SketchBackendId id) {
  Lookup lookup;
  const BackendOptions options = TestOptions(4096, 21);
  auto ingest = [&](const std::string& name, int lo, int hi) {
    auto sketch = CreateDistinctSketch(id, options);
    for (int e = lo; e < hi; ++e) sketch->Update(e, +1);
    lookup.emplace(name, std::move(sketch));
  };
  ingest("A", 0, 60000);
  ingest("B", 40000, 120000);
  ingest("C", 100000, 140000);
  return lookup;
}

double Estimate(const std::string& text, const Lookup& lookup,
                bool* ok = nullptr, std::string* error = nullptr) {
  ParseResult parsed = ParseExpression(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  BackendEstimate result =
      EstimateWithBackend(*parsed.expression, LeafOf(lookup));
  if (ok != nullptr) *ok = result.ok;
  if (error != nullptr) *error = result.error;
  return result.estimate;
}

TEST(BackendExpressionTest, ThetaHandlesEveryConnectiveNested) {
  Lookup lookup = BuildStreams(SketchBackendId::kThetaKmv);
  const double tolerance = 0.15;
  EXPECT_LT(RelativeError(Estimate("A | B", lookup), 120000), tolerance);
  EXPECT_LT(RelativeError(Estimate("A & B", lookup), 20000), tolerance);
  EXPECT_LT(RelativeError(Estimate("A - B", lookup), 40000), tolerance);
  EXPECT_LT(RelativeError(Estimate("(A & B) | C", lookup), 60000), tolerance);
  EXPECT_LT(RelativeError(Estimate("(A | B) - (B & C)", lookup), 100000),
            tolerance);
}

TEST(BackendExpressionTest, SetSketchHandlesUnionsAndOneLevelIE) {
  Lookup lookup = BuildStreams(SketchBackendId::kSetSketch);
  EXPECT_LT(RelativeError(Estimate("A | B | C", lookup), 140000), 0.1);
  // Inclusion-exclusion amplifies noise; looser tolerance.
  EXPECT_LT(RelativeError(Estimate("A & B", lookup), 20000), 0.5);
  EXPECT_LT(RelativeError(Estimate("A - B", lookup), 40000), 0.35);
  bool ok = true;
  std::string error;
  Estimate("(A & B) | C", lookup, &ok, &error);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("theta_kmv"), std::string::npos) << error;
}

TEST(BackendExpressionTest, RefusesMixedBackendsAndMissingStreams) {
  Lookup lookup;
  lookup.emplace("A", CreateDistinctSketch(SketchBackendId::kThetaKmv,
                                           TestOptions()));
  lookup.emplace("B", CreateDistinctSketch(SketchBackendId::kSetSketch,
                                           TestOptions()));
  bool ok = true;
  std::string error;
  Estimate("A | B", lookup, &ok, &error);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("mixed sketch backends"), std::string::npos) << error;
  Estimate("A | Missing", lookup, &ok, &error);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("no backend sketch"), std::string::npos) << error;
}

TEST(BackendSketchTest, ThetaShrinkKeepsSampleBounded) {
  ThetaKmvSketch sketch(TestOptions(64, 5));
  for (int e = 0; e < 100000; ++e) sketch.Update(e, +1);
  EXPECT_LE(sketch.SampleSize(), 128u);  // <= 2k by construction.
  EXPECT_LT(sketch.theta(), ThetaKmvSketch::kThetaMax);
  EXPECT_LT(RelativeError(sketch.EstimateDistinct(), 100000), 0.5);
}

TEST(BackendSketchTest, SetSketchRegistersTrackMaxOccupiedRank) {
  SetSketchBackend sketch(TestOptions(16, 5));
  sketch.Update(123, +1);
  int occupied = 0;
  for (uint32_t reg = 0; reg < 16; ++reg) {
    if (sketch.Register(reg) != 0) ++occupied;
  }
  EXPECT_EQ(occupied, 1);
  sketch.Update(123, -1);
  for (uint32_t reg = 0; reg < 16; ++reg) {
    EXPECT_EQ(sketch.Register(reg), 0);
  }
}

}  // namespace
}  // namespace setsketch
