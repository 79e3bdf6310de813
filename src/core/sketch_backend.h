// Pluggable distinct-count sketch backends (ROADMAP item 3).
//
// The paper's 2-level hash sketch is one *strategy* for summarizing an
// update stream; PR 5's EstimatorKernel made its probe surface a seam, and
// this header makes the sketch itself one. A stream is tagged with a
// SketchBackendId at creation time:
//
//   * kTwoLevelHash (the default) keeps the bank-native r-copy column path
//     completely unchanged — default-tagged streams never touch anything in
//     this file, which is what keeps pre-refactor answers bit-identical.
//   * Alternative backends implement DistinctSketch: one linear,
//     deletion-aware, mergeable synopsis per stream, self-describing on the
//     wire (backend id + options + payload), created/parsed through the
//     registry below so every layer (bank, stream summaries and the
//     snapshots that embed them, the hello handshake) speaks backends by
//     id, never by concrete class.
//
// Estimation goes through exactly one seam: EstimateWithBackend resolves
// an expression's leaves, checks backend homogeneity, and dispatches to
// the backend's own expression algebra. tools/analyze.py forbids direct
// `->EstimateDistinct(...)` / `->EstimateExpression(...)` calls outside
// the backend implementation files, mirroring the existing
// EstimateSetExpression planner-seam ban.

#ifndef SETSKETCH_CORE_SKETCH_BACKEND_H_
#define SETSKETCH_CORE_SKETCH_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "expr/expression.h"
#include "stream/update.h"

namespace setsketch {

/// Wire/WAL identity of a sketch backend. Values are part of the persisted
/// and on-the-wire format — never renumber, only append.
enum class SketchBackendId : uint8_t {
  kTwoLevelHash = 0,  ///< The paper's synopsis (bank-native; no DistinctSketch).
  kThetaKmv = 1,      ///< Threshold-theta KMV with net-frequency counters.
  kSetSketch = 2,     ///< SetSketch (Ertl 2021), counter-backed registers.
};

/// Highest assigned backend id (for iteration / validation).
inline constexpr uint8_t kMaxSketchBackendId = 2;

/// Shared shape knob for DistinctSketch backends, carried in the hello
/// handshake and WAL snapshot header next to SketchParams. `size` is the
/// backend's accuracy/space dial (theta: target sample size k; SetSketch:
/// register count); `seed` fixes the hash functions ("stored coins") and is
/// derived from the family master seed so distributed sites that agree on
/// configuration draw identical coins.
struct BackendOptions {
  uint32_t size = 4096;
  uint64_t seed = 42;

  friend bool operator==(const BackendOptions& a,
                         const BackendOptions& b) = default;
};

/// Abstract distinct-count synopsis over one update stream: linear in the
/// net multiset (deletion-transparent), mergeable with same-configured
/// instances, self-delimitingly serializable.
class DistinctSketch {
 public:
  virtual ~DistinctSketch() = default;

  virtual SketchBackendId backend() const = 0;
  virtual const BackendOptions& options() const = 0;

  /// Processes one update <e, +/-v> (net-frequency semantics).
  virtual void Update(uint64_t element, int64_t delta) = 0;

  /// Applies a run of updates; same result as per-item Update.
  void UpdateBatch(std::span<const ElementDelta> batch) {
    for (const ElementDelta& item : batch) Update(item.element, item.delta);
  }

  /// Adds `other` into this sketch (concatenated-streams semantics).
  /// Returns false (changing nothing) on backend/options mismatch.
  virtual bool Merge(const DistinctSketch& other) = 0;

  /// Estimated number of elements with nonzero net frequency.
  virtual double EstimateDistinct() const = 0;

  /// Relative standard error this configuration targets (the epsilon the
  /// EXPERIMENTS shootout holds each backend to).
  virtual double TargetRelativeError() const = 0;

  /// Evaluates a set expression whose leaves all resolve (via `leaf`) to
  /// sketches of this backend and options. Called through
  /// EstimateWithBackend only. Returns false with *error on unsupported
  /// shapes (backends document their expression algebra).
  virtual bool EstimateExpression(
      const Expression& expr,
      const std::function<const DistinctSketch*(const std::string&)>& leaf,
      double* out, std::string* error) const = 0;

  /// True iff the net multiset summarized is empty.
  virtual bool Empty() const = 0;

  /// Resident bytes of synopsis state.
  virtual size_t MemoryBytes() const = 0;

  /// Appends the self-delimiting tagged encoding (backend id, options,
  /// payload); the inverse is DeserializeDistinctSketch.
  virtual void SerializeTo(std::string* out) const = 0;

  virtual std::unique_ptr<DistinctSketch> Clone() const = 0;

  /// Deep state equality (same backend, options, counters).
  virtual bool Equals(const DistinctSketch& other) const = 0;
};

/// Bounds every backend accepts for BackendOptions::size (theta sample
/// size / SetSketch register count). Decoders reject encodings outside
/// this range before allocating anything.
inline constexpr uint32_t kMinBackendSize = 16;
inline constexpr uint32_t kMaxBackendSize = 1u << 22;

/// The backends' shared 64-bit mixer (SplitMix64-style finalizer keyed by
/// the seed): full-width uniform output, deterministic in (x, seed), so
/// sites that agree on BackendOptions draw identical coins — the same
/// stored-coins contract SketchSeed gives the 2-level sketches.
inline uint64_t BackendHash64(uint64_t x, uint64_t seed) {
  uint64_t z = x + (seed | 1ULL) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= seed * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Registry: the one place that maps backend ids to names and factories.

/// Canonical lower_snake name of a backend id ("two_level_hash",
/// "theta_kmv", "set_sketch"); "unknown" for unassigned ids.
const char* SketchBackendName(SketchBackendId id);

/// Parses a canonical backend name; false if unrecognized.
bool ParseSketchBackendName(std::string_view name, SketchBackendId* id);

/// True iff `id` is an assigned backend id (including kTwoLevelHash).
bool KnownSketchBackend(uint8_t id);

/// Creates an empty DistinctSketch of `id`. Returns nullptr for
/// kTwoLevelHash (bank-native, not a DistinctSketch) and unknown ids.
std::unique_ptr<DistinctSketch> CreateDistinctSketch(
    SketchBackendId id, const BackendOptions& options);

/// Decodes a tagged DistinctSketch encoding starting at (*data)[*offset],
/// advancing *offset past it. Returns nullptr with *error on malformed
/// input or an unknown backend tag.
std::unique_ptr<DistinctSketch> DeserializeDistinctSketch(
    const std::string& data, size_t* offset, std::string* error);

// ---------------------------------------------------------------------------
// The estimation seam.

/// Outcome of a backend-dispatched expression estimate.
struct BackendEstimate {
  bool ok = false;
  double estimate = 0.0;
  SketchBackendId backend = SketchBackendId::kTwoLevelHash;
  std::string error;
};

/// Resolves every leaf of `expr` through `leaf`, validates that all leaves
/// are present and share one backend + options, and evaluates through that
/// backend's expression algebra. This is the only sanctioned entry point
/// for non-default estimation (enforced by tools/analyze.py).
BackendEstimate EstimateWithBackend(
    const Expression& expr,
    const std::function<const DistinctSketch*(const std::string&)>& leaf);

}  // namespace setsketch

#endif  // SETSKETCH_CORE_SKETCH_BACKEND_H_
