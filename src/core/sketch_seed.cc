#include "core/sketch_seed.h"


#include "hash/bit_util.h"
#include "hash/prng.h"
#include "util/check.h"

namespace setsketch {

bool SketchParams::Valid() const {
  if (levels < 1 || levels > 64) return false;
  if (num_second_level < 1 || num_second_level > kMaxSecondLevel) {
    return false;
  }
  if (first_level_kind != FirstLevelKind::kMix64 &&
      first_level_kind != FirstLevelKind::kKWisePoly) {
    return false;
  }
  if (independence < 0 || independence > kMaxIndependence) return false;
  if (first_level_kind == FirstLevelKind::kKWisePoly && independence < 2) {
    return false;
  }
  return true;
}

SketchSeed::SketchSeed(const SketchParams& params, uint64_t seed_value)
    : params_(params),
      seed_value_(seed_value),
      first_level_(FirstLevelHash::Mix64(0)) {
  SETSKETCH_CHECK(params.Valid());
  SplitMix64 sm(seed_value);
  first_level_ = FirstLevelHash::FromIdentity(
      params.first_level_kind, params.independence, sm.Next());
  second_level_.reserve(static_cast<size_t>(params.num_second_level));
  for (int j = 0; j < params.num_second_level; ++j) {
    second_level_.push_back(PairwiseBitHash::FromSeed(sm.Next()));
  }
  level_mask_ =
      params.levels >= 64 ? ~0ULL : ((1ULL << params.levels) - 1);
}

SecondLevelSlice SecondLevelSlice::Build(
    const std::vector<PairwiseBitHash>& gs) {
  SETSKETCH_CHECK(gs.size() <= 64);
  // Transpose: bit j of columns[k] = bit k of a_j.
  std::array<uint64_t, 64> columns{};
  SecondLevelSlice slice;
  for (size_t j = 0; j < gs.size(); ++j) {
    const uint64_t a = gs[j].a();
    for (size_t k = 0; k < 64; ++k) {
      columns[k] |= ((a >> k) & 1ULL) << j;
    }
    slice.bias_ |= static_cast<uint64_t>(gs[j].b()) << j;
  }
  // Memoize every 8-column subset fold: entry b extends the fold of b with
  // its lowest set bit cleared by that bit's column.
  for (size_t t = 0; t < 8; ++t) {
    slice.fold_[t][0] = 0;
    for (size_t b = 1; b < 256; ++b) {
      const size_t k = static_cast<size_t>(std::countr_zero(b));
      slice.fold_[t][b] = slice.fold_[t][b & (b - 1)] ^ columns[8 * t + k];
    }
  }
  return slice;
}

const SecondLevelSlice* SketchSeed::slice() const {
  if (params_.num_second_level > 64) return nullptr;
  std::call_once(slice_once_, [this] {
    slice_ = std::make_unique<const SecondLevelSlice>(
        SecondLevelSlice::Build(second_level_));
  });
  return slice_.get();
}

int SketchSeed::Level(uint64_t element) const {
  // LSB of the (masked) first-level hash: level l with probability
  // 2^-(l+1); an all-zero sample is absorbed into the last level.
  return LsbClamped(first_level_(element) & level_mask_, params_.levels - 1);
}

SketchFamily::SketchFamily(const SketchParams& params, int num_copies,
                           uint64_t master_seed)
    : params_(params), master_seed_(master_seed) {
  SETSKETCH_CHECK(num_copies >= 1);
  SplitMix64 sm(master_seed);
  seeds_.reserve(static_cast<size_t>(num_copies));
  for (int i = 0; i < num_copies; ++i) {
    seeds_.push_back(std::make_shared<const SketchSeed>(params, sm.Next()));
  }
}

}  // namespace setsketch
