// A bank of aligned 2-level hash sketches over a set of named streams.
//
// The estimation architecture (Figure 1 of the paper) maintains, for every
// input stream, r independent sketch copies where copy i of *every* stream
// uses the same hash functions. SketchBank owns that r x streams matrix,
// routes updates, and hands estimators the per-copy SketchGroups they
// consume.

#ifndef SETSKETCH_CORE_SKETCH_BANK_H_
#define SETSKETCH_CORE_SKETCH_BANK_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/property_checks.h"
#include "core/sketch_backend.h"
#include "core/sketch_seed.h"
#include "core/two_level_hash_sketch.h"
#include "stream/update.h"

namespace setsketch {

/// One stream's share of a mixed update batch: the bank's sketch storage
/// for the stream plus the element/delta items addressed to it, in
/// arrival order. Default-backend streams carry their r-copy column;
/// alternative-backend streams carry the single DistinctSketch (exactly
/// one of the two pointers is set). Produced by SketchBank::GroupUpdates;
/// consumed by the batched ingest paths (ApplyBatch, ParallelIngest, the
/// server's shard workers — which apply backend groups on one worker
/// only, since a DistinctSketch has no independent copy ranges).
struct StreamBatch {
  std::vector<TwoLevelHashSketch>* column = nullptr;
  DistinctSketch* backend_sketch = nullptr;
  std::vector<ElementDelta> items;
};

/// One stream's synopsis as the unit that moves between banks — summary
/// pulls, repair, snapshots, site summaries: the default backend's r
/// aligned copies (backend == 0, backend_sketch null) or one
/// alternative-backend DistinctSketch (backend != 0, sketches empty).
/// distributed/summary_codec.h owns its byte layout. shared_ptr so a
/// decoded entry stays copyable; InstallSummary clones it into the bank.
struct StreamSummary {
  uint8_t backend = 0;
  std::vector<TwoLevelHashSketch> sketches;
  std::shared_ptr<const DistinctSketch> backend_sketch;
};

/// r aligned sketch copies per named stream.
///
/// Every stream carries an ingest *epoch counter* that is bumped whenever
/// its counters may have changed (Apply/ApplyBatch, and any MutableSketches
/// hand-out). Cached derived state — notably query/plan_cache.h's memoized
/// merges — is valid exactly as long as the epochs it was built under are
/// unchanged. Spurious bumps (mutable access that ends up writing nothing)
/// only cost a rebuild, never a stale answer.
class SketchBank {
 public:
  /// Creates a bank whose copies draw hash functions from `family`.
  /// `backend_size` dials any alternative-backend streams (theta sample
  /// size / SetSketch registers); their hash seed derives from the
  /// family's master seed so distributed banks agree on coins.
  explicit SketchBank(SketchFamily family, uint32_t backend_size = 4096);

  /// Registers a stream (no-op if already present). Returns true if newly
  /// added.
  bool AddStream(const std::string& name);

  /// Registers a stream under an alternative sketch backend (DESIGN.md
  /// §3.8). kTwoLevelHash delegates to AddStream — the default path is
  /// untouched by construction. Returns true if newly added; false if the
  /// name exists under *any* backend (a stream's backend is fixed at
  /// creation).
  bool AddStreamWithBackend(const std::string& name, SketchBackendId backend,
                            const BackendOptions& options);

  bool HasStream(const std::string& name) const {
    return streams_.contains(name) || backend_streams_.contains(name);
  }

  /// Backend tag of `name`; kTwoLevelHash for default and unknown streams.
  SketchBackendId StreamBackend(const std::string& name) const;

  /// The DistinctSketch of an alternative-backend stream; nullptr for
  /// default-backend and unknown streams.
  const DistinctSketch* BackendSketch(const std::string& name) const;

  /// Mutable access for ingest; bumps the stream's epoch like
  /// MutableSketches. nullptr for default-backend and unknown streams.
  DistinctSketch* MutableBackendSketch(const std::string& name);

  /// Number of streams tagged `backend` (STATS reporting).
  size_t BackendStreamCount(SketchBackendId backend) const;

  /// The BackendOptions every alternative-backend stream of this bank
  /// shares (size from construction, seed derived from the family master
  /// seed — the stored-coins contract).
  const BackendOptions& backend_options() const { return backend_options_; }

  std::vector<std::string> StreamNames() const;

  /// Routes one update to all r sketches of `name`. Returns false if the
  /// stream is unknown.
  bool Apply(const std::string& name, uint64_t element, int64_t delta);

  /// Routes a homogeneous batch to all r sketches of `name` through the
  /// batched kernel (one UpdateBatch per copy, so each copy's counters
  /// stay hot across the whole run). Returns false if the stream is
  /// unknown.
  bool ApplyBatch(const std::string& name,
                  std::span<const ElementDelta> items);

  /// Groups a mixed batch by stream once (update ids index `names_by_id`)
  /// and fans each group to all r copies via the batched kernel. Updates
  /// addressing unknown ids/streams are skipped. Returns the number of
  /// updates applied (per logical update, not per copy).
  size_t ApplyBatch(const std::vector<std::string>& names_by_id,
                    const std::vector<Update>& updates);

  /// Groups `updates` by resolved stream column (groups ordered by first
  /// appearance; per-stream arrival order preserved), dropping updates
  /// that address unknown ids/streams. Adds the number of grouped updates
  /// to *applied when non-null. The shared grouping step of every batched
  /// ingest route.
  std::vector<StreamBatch> GroupUpdates(
      const std::vector<std::string>& names_by_id,
      const std::vector<Update>& updates, size_t* applied = nullptr);

  /// The r sketches of stream `name` (must exist).
  const std::vector<TwoLevelHashSketch>& Sketches(
      const std::string& name) const;

  /// Builds the per-copy groups for `names`, i.e. groups[i] holds the i-th
  /// sketch of each named stream, in the given order. Returns an empty
  /// vector if any name is unknown.
  std::vector<SketchGroup> Groups(
      const std::vector<std::string>& names) const;

  /// Mutable access to the r sketches of `name` for bulk/parallel ingest
  /// (see query/parallel_ingest.h); nullptr if unknown. Callers must not
  /// resize the vector.
  std::vector<TwoLevelHashSketch>* MutableSketches(const std::string& name);

  /// Stream `name`'s synopsis (must exist): a copy of its r sketches, or
  /// a clone of its DistinctSketch.
  StreamSummary Summary(const std::string& name) const;

  /// True iff InstallSummary(name, summary) would succeed: it must not
  /// change an existing stream's backend. The summary's shape (copy
  /// count, coins, backend options) is this bank's by construction — it
  /// was taken from a bank of this configuration or decoded for this one
  /// (DecodeStreamSummary). On false, *error (when non-null) says why,
  /// phrased to follow "stream '<name>' ".
  bool CanInstallSummary(const std::string& name,
                         const StreamSummary& summary,
                         std::string* error) const;

  /// Adds or replaces stream `name` with `summary` (snapshot restore,
  /// repair, summary pulls, site-summary views). Refuses, installing
  /// nothing, whatever CanInstallSummary refuses. Bumps the stream's
  /// epoch, so every cache keyed on (bank_id, epoch) notices.
  bool InstallSummary(const std::string& name, StreamSummary summary,
                      std::string* error = nullptr);

  int num_copies() const { return family_.size(); }
  const SketchFamily& family() const { return family_; }

  /// Ingest epoch of stream `name`: starts at 1 on registration and is
  /// bumped on every (potential) counter mutation. Returns 0 for unknown
  /// streams, so "epoch changed" also covers stream (re)creation.
  uint64_t StreamEpoch(const std::string& name) const;

  /// Process-unique identity of this bank instance. Two banks never share
  /// an id (even across destruction/recreation within one process), so
  /// (bank_id, stream epochs) keys derived state unambiguously — a
  /// recovered or reloaded bank can never satisfy a stale cache entry.
  uint64_t bank_id() const { return bank_id_; }

  /// Total bytes of counter state across all streams and copies.
  size_t CounterBytes() const;

 private:
  SketchFamily family_;
  BackendOptions backend_options_;
  uint64_t bank_id_;
  std::unordered_map<std::string, std::vector<TwoLevelHashSketch>> streams_;
  /// Streams under alternative backends: one DistinctSketch each (no r
  /// copies — those backends carry their accuracy in BackendOptions).
  std::unordered_map<std::string, std::unique_ptr<DistinctSketch>>
      backend_streams_;
  std::unordered_map<std::string, uint64_t> epochs_;
};

}  // namespace setsketch

#endif  // SETSKETCH_CORE_SKETCH_BANK_H_
