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
    return Count(level, 0, 0) + Count(level, 0, 1);
  }

  /// True iff no element with nonzero net frequency maps to `level`.
  bool LevelEmpty(int level) const { return LevelTotal(level) == 0; }

  /// Adds `other`'s counters into this sketch. Both sketches must share the
  /// same SketchSeed; the result is the sketch of the concatenated streams.
  /// Returns false (and changes nothing) on seed/shape mismatch.
  bool Merge(const TwoLevelHashSketch& other);

  /// Resets all counters to zero.
  void Clear();

  /// True iff every counter is zero. O(1): Update/Merge/Clear/Deserialize
  /// maintain the nonzero-cell count (the coordinator and property checks
  /// call this per query).
  bool Empty() const { return nonzero_cells_ == 0; }

  /// Number of counter cells currently nonzero (the invariant behind
  /// Empty(); exposed for tests).
  int64_t NonzeroCells() const { return nonzero_cells_; }

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
  /// (bit j of `mask` selects the counter of pair j), tracking zero/nonzero
  /// cell transitions.
  void ApplyMask(int level, uint64_t mask, int64_t delta);

  /// O(cells) ground-truth recount of nonzero counters — the invariant
  /// behind Empty(); compared against nonzero_cells_ by debug checks
  /// after bulk operations (Merge, compact decode).
  int64_t RecountNonzeroCells() const;

  std::shared_ptr<const SketchSeed> seed_;
  int num_second_level_;
  /// Cached seed_->slice(); nullptr iff s > 64 (scalar fallback).
  const SecondLevelSlice* slice_;
  /// Cache-line aligned: the server's shard workers partition adjacent
  /// sketch copies, and alignment keeps the copy-range split from false
  /// sharing a line across workers (util/aligned_alloc.h).
  std::vector<int64_t, AlignedAllocator<int64_t>> counters_;
  int64_t nonzero_cells_ = 0;
};

}  // namespace setsketch

#endif  // SETSKETCH_CORE_TWO_LEVEL_HASH_SKETCH_H_
