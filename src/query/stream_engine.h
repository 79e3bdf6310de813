// The one-pass stream-processing engine of the paper's architecture
// (Figure 1): a set of named update streams, each summarized by r aligned
// 2-level hash sketches, plus a registry of continuous set-expression
// queries answered on demand from the synopses alone.
//
// This is the library's highest-level public API — see
// examples/quickstart.cpp for a tour.

#ifndef SETSKETCH_QUERY_STREAM_ENGINE_H_
#define SETSKETCH_QUERY_STREAM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/confidence.h"
#include "core/set_difference_estimator.h"  // WitnessOptions
#include "core/set_expression_estimator.h"
#include "core/sketch_bank.h"
#include "distributed/summary_codec.h"
#include "expr/exact_evaluator.h"
#include "expr/expression.h"
#include "query/plan_cache.h"
#include "stream/exact_set_store.h"

namespace setsketch {

/// One-pass engine: ingest updates, answer set-expression cardinalities.
class StreamEngine {
 public:
  /// The synopsis shape (core/sketch_config.h) plus engine-local knobs.
  struct Options : SketchConfig {
    /// Also keep exact stream state so answers can report ground truth.
    /// Costs O(distinct elements) memory — for tests/demos only.
    bool track_exact = false;
    /// Witness-estimator tuning.
    WitnessOptions witness;
  };

  explicit StreamEngine(const Options& options);

  /// Registers a stream under Options::default_backend; returns its dense
  /// id (idempotent — re-registering returns the existing id).
  StreamId RegisterStream(const std::string& name);

  /// Registers a stream under an explicit sketch backend (the server's
  /// per-stream PUSH tags resolve through this). Idempotent like
  /// RegisterStream; an existing stream keeps its original backend — the
  /// caller checks StreamBackend when a conflict must be refused.
  StreamId RegisterStreamWithBackend(const std::string& name,
                                     SketchBackendId backend);

  /// Backend tag of a registered stream (kTwoLevelHash for unknown names).
  SketchBackendId StreamBackend(const std::string& name) const {
    return bank_.StreamBackend(name);
  }

  /// Id of a registered stream, if any.
  std::optional<StreamId> IdOf(const std::string& name) const;

  /// Registered names in id order.
  const std::vector<std::string>& stream_names() const { return names_; }

  /// Outcome of registering a continuous query.
  struct QueryHandle {
    int id = -1;          ///< Valid query id, or -1 on failure.
    std::string error;    ///< Parse error, if any.
    bool ok() const { return id >= 0; }
  };

  /// Registers a continuous query from text (see expr/parser.h grammar).
  /// Streams named in the query are auto-registered.
  QueryHandle RegisterQuery(const std::string& text);

  /// Registers a continuous query from an existing AST.
  QueryHandle RegisterQuery(ExprPtr expression);

  /// Number of registered queries.
  int num_queries() const { return static_cast<int>(queries_.size()); }

  /// Ingests one update by stream name. Returns false for unknown streams.
  bool Ingest(const std::string& stream, uint64_t element, int64_t delta);

  /// Ingests one update by stream id (ids assigned by RegisterStream).
  bool Ingest(const Update& update);

  /// Ingests a batch; returns how many were routed successfully.
  size_t IngestAll(const std::vector<Update>& updates);

  /// Ingests a batch with `threads` workers partitioned by sketch-copy
  /// range (bit-identical to IngestAll; see query/parallel_ingest.h).
  /// Exact tracking, when enabled, is applied serially.
  size_t IngestAllParallel(const std::vector<Update>& updates, int threads);

  /// Serializes the engine's full synopsis state: sketch configuration,
  /// master seed, every stream's sketches (compact encoding), and the
  /// registered query texts. Exact-tracking state is NOT serialized.
  std::string SaveSnapshot() const;

  /// Restores an engine from SaveSnapshot bytes. The restored engine has
  /// track_exact = false (ground truth is not part of a synopsis
  /// snapshot). Returns nullptr on malformed input, or when the streams
  /// would build more than `counter_budget` bytes of sketch counters
  /// (DecodeStreamSummary); a caller restoring its own larger engine
  /// passes a larger budget.
  static std::unique_ptr<StreamEngine> LoadSnapshot(
      const std::string& bytes,
      uint64_t counter_budget = kMaxDecodedCounterBytes);

  /// A point-in-time answer to one continuous query.
  struct Answer {
    std::string expression;    ///< Rendered query text.
    double estimate = 0.0;     ///< Estimated |E|.
    Interval interval;         ///< ~95% interval (witness Wilson interval
                               ///< propagated through the union interval).
    bool ok = false;           ///< False when estimation failed (see detail).
    ExpressionEstimate detail; ///< Full estimator diagnostics.
    int64_t exact = -1;        ///< Ground truth if track_exact, else -1.
  };

  /// Answers query `query_id` from the current synopses.
  Answer AnswerQuery(int query_id) const;

  /// Static + synopsis-informed diagnosis of a registered query.
  struct Explanation {
    bool ok = false;
    std::string expression;          ///< Registered form.
    bool provably_empty = false;     ///< True => |E| = 0 for any data.
    std::vector<std::string> streams;
    double union_estimate = 0.0;     ///< Current |union of streams|.
    int witness_level = -1;          ///< Level Figure 6 would probe.
    double expected_valid_fraction = 0.0;  ///< P[union singleton] there.
    std::string report;              ///< Rendered multi-line summary.
  };

  /// Explains query `query_id`: emptiness proof, the witness-sampling
  /// geometry implied by current data, and the planner's view (canonical
  /// plan, sharing, probe table, cache state).
  Explanation ExplainQuery(int query_id) const;

  /// Answers every registered query.
  std::vector<Answer> AnswerAll() const;

  /// One-shot estimate of an ad-hoc expression (text). Unknown streams make
  /// the answer not-ok.
  Answer EstimateNow(const std::string& text) const;

  /// Total updates ingested.
  int64_t updates_processed() const { return updates_processed_; }

  /// Plan-cache counters for the compiled-query path every answer runs
  /// through (hits / misses / epoch invalidations / probe tables built /
  /// ...).
  PlanCache::Stats plan_cache_stats() const { return plan_cache_->stats(); }

  /// The engine's plan cache (mutable: answering caches plans). Exposed
  /// for EXPLAIN-style tooling; ingest epochs keep it consistent.
  PlanCache& plan_cache() const { return *plan_cache_; }

  /// Synopsis memory across all streams and copies, in bytes.
  size_t SynopsisBytes() const { return bank_.CounterBytes(); }

  const SketchBank& bank() const { return bank_; }

 private:
  Answer AnswerExpression(const CompiledQuery& query) const;
  QueryHandle RegisterCompiled(PlanCache::Compiled query);

  Options options_;
  SketchBank bank_;
  // All query answering funnels through the plan cache: canonicalized,
  // compiled once, memoized answers invalidated by the bank's stream
  // epochs. Behind a unique_ptr so the engine stays movable (PlanCache
  // owns a mutex); never null after construction.
  std::unique_ptr<PlanCache> plan_cache_;
  std::vector<std::string> names_;  // Id -> name.
  std::unordered_map<std::string, StreamId> ids_;
  std::vector<PlanCache::Compiled> queries_;  // Compiled at registration.
  int64_t updates_processed_ = 0;
  std::unique_ptr<ExactSetStore> exact_;  // Null unless track_exact.
};

// ---------------------------------------------------------------------------
// Snapshot codec, exposed standalone so other synopsis holders (the sketch
// server's crash-recovery checkpoints and sketchtool's bank files are
// exactly this byte format) can persist and restore without owning a
// StreamEngine.

/// Decoded form of a snapshot: everything needed to rebuild a synopsis.
struct EngineSnapshotData {
  SketchConfig config;
  WitnessOptions witness;
  int64_t updates_processed = 0;
  /// Every stream's name and synopsis, in id order.
  std::vector<std::pair<std::string, StreamSummary>> streams;
  std::vector<std::string> query_texts;
};

/// Serializes a synopsis in StreamEngine::SaveSnapshot's format: u32
/// magic "SKSN", u8 version 4, `bank`'s config (EncodeSketchConfig, the
/// hello's codec), the witness epsilon, beta and pooling flag, then each
/// stream in `names` order (each must exist in `bank`) as a u32-length
/// name and its synopsis (distributed/summary_codec.h), then the query
/// texts. Restorers refuse a config that is not == their own.
std::string EncodeEngineSnapshot(const SketchBank& bank,
                                 const WitnessOptions& witness,
                                 int64_t updates_processed,
                                 const std::vector<std::string>& names,
                                 const std::vector<std::string>& query_texts);

/// Parses EncodeEngineSnapshot bytes. False with *error on malformed
/// input, another magic or another version byte, a configuration
/// DecodeSketchConfig refuses, witness options WitnessOptions::Valid
/// refuses, a stream whose synopsis does not match the header's
/// configuration, or streams that would build more than `counter_budget`
/// bytes of sketch counters (DecodeStreamSummary).
bool DecodeEngineSnapshot(const std::string& bytes, uint64_t counter_budget,
                          EngineSnapshotData* out, std::string* error);

}  // namespace setsketch

#endif  // SETSKETCH_QUERY_STREAM_ENGINE_H_
