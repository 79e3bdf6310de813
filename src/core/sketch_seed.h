// Shared hash-function bundles ("stored coins") for 2-level hash sketches.
//
// Sketches are only comparable/combinable when they were built with the
// exact same first- and second-level hash functions (Section 3.2). A
// SketchSeed bundles one first-level function h and s second-level functions
// g_1..g_s, all derived deterministically from a single 64-bit seed value —
// so distributed sites that agree on (params, seed value) draw identical
// "coins", exactly the stored-coins distributed-streams model of Gibbons
// and Tirthapura that Section 4 of the paper appeals to.
//
// A SketchFamily derives r independent SketchSeeds from one master seed,
// matching the paper's "r independent 2-level hash sketch pairs".

#ifndef SETSKETCH_CORE_SKETCH_SEED_H_
#define SETSKETCH_CORE_SKETCH_SEED_H_

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "hash/hash_family.h"

namespace setsketch {

/// Bit-sliced ("transposed") evaluator of a whole second-level family
/// g_1..g_s at once, for s <= 64.
///
/// Each g_j(x) = parity(a_j & x) ^ b_j is linear over GF(2), so the family
/// is an s x 64 bit matrix A (row j = a_j) plus a bias vector b, and
/// evaluating all s functions is the GF(2) matrix-vector product A·x ^ b.
/// Storing A transposed — column k packs bit k of every a_j into one
/// 64-bit word — turns that product into an XOR-fold of the <= 64 columns
/// selected by x's set bits. Same functions, different evaluation order
/// (GF(2) addition is commutative), so the result is bit-identical to
/// calling each g_j — with no per-function popcounts in the hot path.
///
/// The fold itself is memoized a byte at a time (the classic
/// "method of four Russians"): fold_[t][b] precomputes the XOR of the 8
/// columns for byte t selected by b, so evaluating all s functions is 8
/// table loads + 7 XORs per element, independent and pipelineable. The 8
/// tables cost 16 KiB per SketchSeed and are built lazily on first use.
class SecondLevelSlice {
 public:
  /// Builds the transposed fold tables of `gs` (requires gs.size() <= 64).
  static SecondLevelSlice Build(const std::vector<PairwiseBitHash>& gs);

  /// All s second-level bits of `x`: bit j of the result is g_j(x).
  uint64_t Bits(uint64_t x) const {
    uint64_t fold = bias_;
    for (size_t t = 0; t < 8; ++t) {
      fold ^= fold_[t][(x >> (8 * t)) & 0xffULL];
    }
    return fold;
  }

 private:
  /// fold_[t][b] = XOR of the columns {8t + k : bit k of b set}, where
  /// bit j of column k is bit k of a_j.
  std::array<std::array<uint64_t, 256>, 8> fold_{};
  uint64_t bias_ = 0;  ///< Bit j = b_j.
};

/// Shape and hashing configuration of a 2-level hash sketch.
struct SketchParams {
  /// Number of first-level buckets (the paper's Theta(log M) levels).
  int levels = 48;
  /// Number of second-level hash functions (the paper's s; its experiments
  /// fix s = 32).
  int num_second_level = 32;
  /// First-level hash family (idealized mixing vs t-wise polynomial).
  FirstLevelKind first_level_kind = FirstLevelKind::kMix64;
  /// Independence t for the polynomial family (ignored for kMix64).
  int independence = 8;

  friend bool operator==(const SketchParams& a,
                         const SketchParams& b) = default;

  /// True iff the configuration is usable: levels in [1, 64], s in
  /// [1, kMaxSecondLevel], a known first-level kind, and independence in
  /// [2, kMaxIndependence] for the polynomial family (in [0,
  /// kMaxIndependence] for kMix64, which ignores it). Every decoder checks
  /// it before building a family from a header, so these bounds are also
  /// what a hostile header can make a receiver allocate.
  bool Valid() const;
};

/// Largest copy count r a decoder accepts from a header (hello handshake,
/// snapshot): bounds the family it builds before anything else is read.
inline constexpr int kMaxCopies = 1 << 16;

/// Largest s SketchParams::Valid accepts. The paper fixes s = 32, and
/// Lemma 3.1's false-singleton rate 2^-s is negligible long before the
/// bit-sliced second-level evaluation ends at s = 64; the bound leaves
/// room for the scalar path above it while capping what a header can
/// make a receiver allocate (a copy holds levels x 2s int64 counters, at
/// most 128 KiB here).
inline constexpr int kMaxSecondLevel = 128;

/// Largest t-wise independence SketchParams::Valid accepts (Section 3.6
/// needs Theta(log 1/eps)).
inline constexpr int kMaxIndependence = 64;

/// One bundle of hash functions: h plus g_1..g_s.
class SketchSeed {
 public:
  /// Derives all hash functions deterministically from `seed_value`.
  SketchSeed(const SketchParams& params, uint64_t seed_value);

  const SketchParams& params() const { return params_; }
  uint64_t seed_value() const { return seed_value_; }

  const FirstLevelHash& first_level() const { return first_level_; }
  const PairwiseBitHash& second_level(int j) const {
    return second_level_[static_cast<size_t>(j)];
  }
  int num_second_level() const {
    return static_cast<int>(second_level_.size());
  }

  /// First-level bucket index of `element` in [0, levels).
  int Level(uint64_t element) const;

  /// Bit-sliced evaluator of the whole second-level family, built lazily on
  /// first use and cached (thread-safe). Returns nullptr when s > 64;
  /// callers then keep the per-function scalar path, which the slice is
  /// bit-identical to by construction.
  const SecondLevelSlice* slice() const;

  /// Two seeds are interchangeable iff params and seed value match.
  friend bool operator==(const SketchSeed& a, const SketchSeed& b) {
    return a.params_ == b.params_ && a.seed_value_ == b.seed_value_;
  }

 private:
  SketchParams params_;
  uint64_t seed_value_;
  FirstLevelHash first_level_;
  std::vector<PairwiseBitHash> second_level_;
  uint64_t level_mask_;
  mutable std::once_flag slice_once_;
  mutable std::unique_ptr<const SecondLevelSlice> slice_;
};

/// r independent SketchSeeds derived from one master seed.
class SketchFamily {
 public:
  SketchFamily(const SketchParams& params, int num_copies,
               uint64_t master_seed);

  int size() const { return static_cast<int>(seeds_.size()); }
  const SketchParams& params() const { return params_; }
  uint64_t master_seed() const { return master_seed_; }

  /// The i-th copy's seed bundle (shared, immutable).
  const std::shared_ptr<const SketchSeed>& seed(int i) const {
    return seeds_[static_cast<size_t>(i)];
  }

 private:
  SketchParams params_;
  uint64_t master_seed_;
  std::vector<std::shared_ptr<const SketchSeed>> seeds_;
};

}  // namespace setsketch

#endif  // SETSKETCH_CORE_SKETCH_SEED_H_
