// The 2-level hash sketch synopsis of Section 3.1.
//
// Conceptually a Theta(log M) x s x 2 array of element counters: an incoming
// element e is routed to first-level bucket LSB(h(e)) and, within that
// bucket, each second-level function g_j routes it to one of two counters.
// An update <e, +/-v> adds +/-v to all s selected counters, which makes the
// synopsis *linear* in the stream: the sketch at the end of an update stream
// is identical to the sketch of the stream's net multiset — deletions leave
// no trace (the paper's key robustness property), and sketches of disjoint
// stream fragments combine by plain counter addition (used by the
// distributed model).
//
// Each first-level row also carries a summary kept exact by every
// mutator: one "cell > 0" bit per counter plus a "row has a negative
// cell" bit. On rows without negative cells (every row of a legal
// stream) the paper's emptiness and singleton tests are word operations
// on these bits (core/property_checks.h), so a query reads one word per
// row instead of the row's counters.

#ifndef SETSKETCH_CORE_TWO_LEVEL_HASH_SKETCH_H_
#define SETSKETCH_CORE_TWO_LEVEL_HASH_SKETCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/sketch_seed.h"
#include "stream/update.h"
#include "util/aligned_alloc.h"

namespace setsketch {

/// Counter addition as two's-complement wrapping. Update deltas are any
/// int64, so a counter can leave the int64 range; every counter add in
/// the sketch goes through this (signed overflow would be undefined
/// behaviour), which keeps the synopsis linear modulo 2^64.
inline int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// One 2-level hash sketch over one update stream.
class TwoLevelHashSketch {
 public:
  /// Creates an empty sketch drawing its hash functions from `seed`.
  explicit TwoLevelHashSketch(std::shared_ptr<const SketchSeed> seed);

  /// Processes one update <e, +/-v>: O(s) counter additions. The s
  /// second-level bits come from the seed's bit-sliced transpose (one
  /// XOR-fold, no popcounts) when s <= 64, from the per-function scalar
  /// path otherwise — bit-identical either way.
  void Update(uint64_t element, int64_t delta);

  /// Reference implementation of Update that always evaluates the s
  /// second-level functions one popcount at a time. Kept public so the
  /// equivalence tests and kernel benches can pin the sliced path against
  /// it; production callers should use Update.
  void UpdateScalar(uint64_t element, int64_t delta);

  /// Applies a run of updates addressed to this sketch's stream. Same
  /// result as calling Update per item; amortizes the per-call setup and
  /// separates hashing from counter scatter for better pipelining.
  void UpdateBatch(std::span<const ElementDelta> batch);

  /// Applies the element/delta part of `u` (the stream id is the caller's
  /// concern — a sketch summarizes exactly one stream).
  void Apply(const setsketch::Update& u) { Update(u.element, u.delta); }

  /// Counter X[level, j, bit] (the paper's X[i1, i2, i3]).
  int64_t Count(int level, int j, int bit) const {
    return counters_[CellIndex(level, j, bit)];
  }

  /// Total element count (sum of net frequencies) mapped to `level`.
  /// Equals Count(level, j, 0) + Count(level, j, 1) for every j.
  int64_t LevelTotal(int level) const {
    return WrappingAdd(Count(level, 0, 0), Count(level, 0, 1));
  }

  /// True iff no element with nonzero net frequency maps to `level`
  /// (LevelTotal(level) == 0). Decided from the row summary: on a row
  /// with no negative cell, the total is zero iff neither cell of pair 0
  /// is positive; a row with a negative cell reads the counters.
  bool LevelEmpty(int level) const {
    if (((negative_rows_ >> level) & 1) != 0) [[unlikely]] {
      return LevelTotal(level) == 0;
    }
    return (PositiveRow(level)[0] & 3) == 0;
  }

  /// Row summary of first-level bucket `level`: row_words() words of
  /// "cell > 0" bits, cell (j, b) at bit 2j + b of the row (bit
  /// (2j + b) % 64 of word (2j + b) / 64). Every mutator keeps it exact.
  const uint64_t* PositiveRow(int level) const {
    return positive_.data() +
           static_cast<size_t>(level) * static_cast<size_t>(row_words_);
  }
  /// ceil(2s / 64): words per row summary.
  int row_words() const { return row_words_; }
  /// row_words() at the largest s SketchParams::Valid accepts.
  static constexpr int kMaxRowWords = (2 * kMaxSecondLevel + 63) / 64;

  /// Bit `level` set iff some cell of row `level` is negative. Only
  /// streams whose net frequencies go negative (illegal in the paper's
  /// model) have such rows; readers fall back to the counters there.
  uint64_t negative_rows() const { return negative_rows_; }

  /// True iff the row summaries equal a plain recount of the counters
  /// (the invariant every mutator keeps; checked by debug builds after
  /// bulk operations and by tests).
  bool SummaryMatchesCounters() const;

  /// Adds `other`'s counters into this sketch. Both sketches must share the
  /// same SketchSeed; the result is the sketch of the concatenated streams.
  /// Returns false (and changes nothing) on seed/shape mismatch.
  bool Merge(const TwoLevelHashSketch& other);

  /// Resets all counters to zero.
  void Clear();

  /// True iff every counter is zero: no row has a positive or a negative
  /// cell. O(levels * row_words()) over the row summaries.
  bool Empty() const;

  const SketchSeed& seed() const { return *seed_; }
  const std::shared_ptr<const SketchSeed>& shared_seed() const {
    return seed_;
  }
  int levels() const { return seed_->params().levels; }
  int num_second_level() const { return seed_->params().num_second_level; }

  /// Size of the counter array in bytes (the synopsis' dominant cost).
  size_t CounterBytes() const { return counters_.size() * sizeof(int64_t); }

  /// Appends a portable binary encoding (params, seed value, counters) to
  /// `*out`. The encoding is self-delimiting. Fixed-width counters:
  /// simple, O(levels * s) bytes.
  void SerializeTo(std::string* out) const;

  /// Appends the compact wire encoding: zigzag varint counters with
  /// zero-run-length. Counter arrays are mostly zeros/small values, so
  /// this is typically 5-20x smaller than SerializeTo — what the
  /// distributed model ships between sites and coordinator.
  void SerializeCompactTo(std::string* out) const;

  /// Decodes a sketch previously written by SerializeTo or
  /// SerializeCompactTo starting at (*data)[*offset]; advances *offset
  /// past it. Returns nullptr on a malformed or truncated encoding.
  static std::unique_ptr<TwoLevelHashSketch> Deserialize(
      const std::string& data, size_t* offset);

  /// Same, for a receiver that knows the seed this copy must carry: a
  /// header declaring other params or another seed value is refused
  /// before any counter is allocated, and the decoded sketch shares
  /// `expected`. On nullptr, *error says whether the copy was malformed
  /// or foreign.
  static std::unique_ptr<TwoLevelHashSketch> Deserialize(
      const std::string& data, size_t* offset,
      const std::shared_ptr<const SketchSeed>& expected, std::string* error);

  /// Two sketches are equal iff they share seed identity and all counters.
  friend bool operator==(const TwoLevelHashSketch& a,
                         const TwoLevelHashSketch& b);

 private:
  size_t CellIndex(int level, int j, int bit) const {
    return (static_cast<size_t>(level) *
                static_cast<size_t>(num_second_level_) +
            static_cast<size_t>(j)) *
               2 +
           static_cast<size_t>(bit);
  }

  /// Scatters one update whose second-level bits are already evaluated
  /// (bit j of `mask` selects the counter of pair j). Leaves the row
  /// summary to the caller's SummarizeRows.
  void ApplyMask(int level, uint64_t mask, int64_t delta);

  /// Recomputes the summary of every row whose bit is set in `rows`
  /// from the counters.
  void SummarizeRows(uint64_t rows);

  /// Every row's bit, for SummarizeRows.
  uint64_t AllRows() const {
    return levels() >= 64 ? ~uint64_t{0} : (uint64_t{1} << levels()) - 1;
  }

  uint64_t* MutablePositiveRow(int level) {
    return positive_.data() +
           static_cast<size_t>(level) * static_cast<size_t>(row_words_);
  }

  /// Records whether row `level` has a negative cell. Writes only on a
  /// change, so shard workers updating adjacent copies do not share a
  /// written line through this member.
  void SetRowNegative(int level, bool negative) {
    const uint64_t bit = uint64_t{1} << level;
    if (((negative_rows_ & bit) != 0) != negative) [[unlikely]] {
      negative_rows_ ^= bit;
    }
  }

  std::shared_ptr<const SketchSeed> seed_;
  int num_second_level_;
  int row_words_;
  /// Cached seed_->slice(); nullptr iff s > 64 (scalar fallback).
  const SecondLevelSlice* slice_;
  /// Cache-line aligned: the server's shard workers partition adjacent
  /// sketch copies, and alignment keeps the copy-range split from false
  /// sharing a line across workers (util/aligned_alloc.h).
  std::vector<int64_t, AlignedAllocator<int64_t>> counters_;
  /// Row summaries, levels x row_words_ words (see PositiveRow), padded
  /// to whole cache lines for the same reason as counters_.
  std::vector<uint64_t, AlignedAllocator<uint64_t>> positive_;
  /// Bit `level` set iff row `level` has a negative cell (levels <= 64).
  uint64_t negative_rows_ = 0;
};

}  // namespace setsketch

#endif  // SETSKETCH_CORE_TWO_LEVEL_HASH_SKETCH_H_
