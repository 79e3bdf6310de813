// Compiled, epoch-invalidated query plans for set-expression estimation
// (DESIGN.md section 3.3).
//
// Every query text is compiled once (CompiledQuery: the parsed tree, the
// canonical plan of expr/canonical.h with its text and hash, the stream
// list, the provably-empty verdict and the display string) and kept in a
// text memo, so a repeated text is one hash lookup. Plans are cached
// under their structural hash, so "A | (B & C)" and "(C & B) | A" share
// one entry. A plan holds the canonical DAG, a reusable scratch arena
// for witness evaluation, and the fully memoized answer. Validity is
// governed by SketchBank's per-stream ingest epochs plus its
// process-unique bank id: a repeated query over an unchanged bank is
// answered from the memo with no sketch access at all. A recovered /
// reloaded bank always carries a fresh bank id, so stale plans can never
// answer for it.
//
// A stale or cold plan is answered from a ProbeTable
// (core/estimator_kernel.h) filled straight from the live bank: bitsets
// over every (copy, level) cell of the union's non-empty and
// union-singleton bits and of each plan stream's occupancy bit —
// everything the Section 4 estimator reads. Nothing is copied or merged;
// the witness condition B(E) is the canonical DAG evaluated once per
// query as OR / AND / AND-NOT over whole bitsets, and every count is a
// popcount. The engine, the router and site-summary views fill the
// table on the calling thread; the server has BeginQuery shape it in
// copy-range parts and fills each on the shard worker that owns those
// copies (server/sketch_server.h).
//
// Planned evaluation is bit-identical to direct EstimateSetExpression over
// the same bank: both build the same table through one fill routine, and
// canonicalization preserves the Boolean witness function pointwise
// (tests/plan_cache_test.cc asserts exact equality, including through
// ingest -> invalidation -> re-query cycles).
//
// Thread safety: all public methods are serialized on an internal mutex,
// but the caller must keep `bank` quiescent (no concurrent mutation) for
// the duration of any call that takes one — the server holds its ingest
// locks, the engine is externally synchronized. FinishQuery takes no
// bank (only the probe table the caller filled), so evaluation can run
// after the caller released its ingest locks; see BeginQuery.

#ifndef SETSKETCH_QUERY_PLAN_CACHE_H_
#define SETSKETCH_QUERY_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/confidence.h"
#include "core/estimator_kernel.h"
#include "core/set_expression_estimator.h"
#include "core/sketch_bank.h"
#include "expr/canonical.h"
#include "expr/expression.h"
#include "util/thread_annotations.h"

namespace setsketch {

/// The data-independent compilation of one query: everything a QUERY
/// derives from its text alone. Immutable once built and shared, so a
/// caller may keep using it after releasing the cache (or after the
/// cache evicted it).
struct CompiledQuery {
  std::string error;        ///< Parse error; every other field is empty.
  ExprPtr expression;       ///< The parsed tree.
  std::string display;      ///< expression->ToString(), what answers carry.
  /// expression->StreamNames(): distinct, in first-occurrence order.
  std::vector<std::string> streams;
  CanonicalPlan plan;       ///< Canonicalize(*expression).
  std::string canonical;    ///< plan.ToString(), the entry collision guard.
  bool provably_empty = false;  ///< ProvablyEmpty(plan).

  bool ok() const { return expression != nullptr; }
};

/// Compiles a parsed tree (non-null).
std::shared_ptr<const CompiledQuery> CompileQuery(ExprPtr expression);
/// Parses and compiles `text`; a parse failure lands in `error`.
std::shared_ptr<const CompiledQuery> CompileQuery(const std::string& text);

/// Compiles, caches, and answers set-expression queries over a SketchBank.
class PlanCache {
 public:
  struct Options {
    /// Witness-estimator tuning shared by every plan.
    WitnessOptions witness;
    /// Maximum cached plans, and separately maximum remembered texts;
    /// least-recently-used ones are evicted.
    size_t max_entries = 128;
  };

  /// Monotonic counters (see server STATS `plan_cache_*` lines).
  struct Stats {
    uint64_t hits = 0;           ///< Answered from the memoized result.
    uint64_t misses = 0;         ///< No cached plan: compile + evaluate.
    uint64_t invalidations = 0;  ///< Cached plan, stale epochs: re-evaluate.
    /// Plan entries built (a text that compiles to a cached plan, or
    /// is answered without one, builds none).
    uint64_t compiles = 0;
    uint64_t evictions = 0;      ///< LRU evictions.
    /// Probe tables built, one per stale/cold answer (STATS consumers
    /// read it under this name).
    uint64_t merge_builds = 0;
    uint64_t backend_queries = 0;  ///< Routed to an alternative backend.
    uint64_t entries = 0;        ///< Current cached plans.
    /// Bytes of probe tables and witness scratch arenas held by entries.
    uint64_t memo_bytes = 0;
  };

  /// Outcome of a planned query.
  struct Result {
    bool ok = false;           ///< Estimation succeeded.
    bool cache_hit = false;    ///< Answered from the memo, nothing rebuilt.
    double estimate = 0.0;     ///< Estimated |E|.
    Interval interval;         ///< ~95% interval (witness + union).
    ExpressionEstimate detail; ///< Full estimator diagnostics.
    std::string canonical;     ///< Canonical plan rendering.
    std::string error;         ///< Parse / unknown-stream error, if any.
  };

  using Compiled = std::shared_ptr<const CompiledQuery>;

  explicit PlanCache(const Options& options);

  /// The compilation of `text`, from the text memo when the exact text
  /// was compiled before (one hash lookup), else compiled now — outside
  /// the cache's mutex — and remembered. The memo holds at most
  /// max_entries texts, least-recently-used first out, and evicting a
  /// plan drops the texts that compiled to it. Parse failures are
  /// remembered too (CompiledQuery::error).
  Compiled Compile(const std::string& text);

  /// Plans (or reuses the cached plan for) `query` and answers it against
  /// `bank`: BeginQuery, then FinishQuery on a miss. Provably-empty
  /// expressions short-circuit to an exact 0.
  Result Query(const CompiledQuery& query, const SketchBank& bank);

  /// Compile(text), then Query; parse failures surface in Result::error.
  Result Query(const std::string& text, const SketchBank& bank);

  /// Compiles `expr` without the text memo (the tree is borrowed for
  /// this call only), then Query.
  Result Query(const Expression& expr, const SketchBank& bank);

  /// True, with *result an exact 0, when `query` is provably empty and
  /// none of its streams is registered in `bank` under an alternative
  /// backend (whose own algebra answers such queries). Reads only the
  /// bank's stream registry, no counters, so a caller need not quiesce
  /// ingest for it.
  static bool AnswerProvablyEmpty(const CompiledQuery& query,
                                  const SketchBank& bank, Result* result);

  /// True iff any of `streams` is registered under an alternative sketch
  /// backend in `bank` — such queries route around the memo machinery
  /// (DistinctSketch synopses are tiny; there is no r-copy probe worth
  /// memoizing) straight to the backend's expression algebra, which
  /// BeginQuery runs inline over the quiesced bank. Reads only the
  /// bank's stream registry.
  static bool UsesBackendStreams(const std::vector<std::string>& streams,
                                 const SketchBank& bank);

  /// A BeginQuery miss: everything FinishQuery needs to evaluate without
  /// the bank — the canonical plan and its text, the bank identity, the
  /// per-stream epochs (canonical, sorted stream order) taken at probe
  /// time, and the probe table with the stream columns it is filled from.
  struct SnapshotRequest {
    CanonicalPlan plan;
    std::string canonical;  ///< plan.ToString().
    uint64_t bank_id = 0;
    std::vector<uint64_t> epochs;
    /// The bank's columns for plan.streams; borrowed, valid while the
    /// bank stays quiesced.
    std::vector<const ProbeTable::SketchColumn*> columns;
    ProbeTable table;
    std::string error;  ///< Unknown stream / mismatched seeds, if any.

    /// Fills part `part` of the table (ProbeTable::FillPart); distinct
    /// parts may be filled from different threads.
    void Fill(int part) { table.FillPart(columns, part); }
  };

  /// Two-phase query for callers that must not evaluate while holding
  /// their ingest locks (the server: a burst of cold expressions would
  /// otherwise stall PUSH admission for the duration of each estimate).
  ///
  /// BeginQuery runs under the caller's locks: on a fresh memoized
  /// result (or a provably-empty or backend-routed expression) it fills
  /// *hit and returns true; otherwise it probes the plan's table from
  /// `bank` into *request and returns false. With `parts` == 0 it fills
  /// the table here, so `bank` must be quiesced. With `parts` > 0 it only
  /// shapes the table in that many copy-range parts (ProbeTable::Reset),
  /// reading stream epochs and columns but no counters, so pending ingest
  /// need not have drained yet; the caller then fills every part with
  /// the bank quiesced (SnapshotRequest::Fill, e.g. on the threads that
  /// own those copies). Either way the caller releases its locks and
  /// calls FinishQuery, which evaluates the table and installs the result
  /// under the probe's epochs — unless a concurrent FinishQuery already
  /// installed a result under newer epochs, in which case this probe's
  /// (still point-in-time-correct) answer is returned without regressing
  /// the newer memo. A part that failed to fill (mismatched seeds) makes
  /// FinishQuery answer the typed "sketch probe failed" error.
  bool BeginQuery(const CompiledQuery& query, const SketchBank& bank,
                  Result* hit, SnapshotRequest* request, int parts = 0);
  Result FinishQuery(SnapshotRequest request);

  /// Human-readable EXPLAIN report of a compiled query (its parse error,
  /// if any): canonical plan, CSE sharing, probe table shape, the
  /// cache/epoch state of the matching entry and, when it holds an answer
  /// for `bank`, that answer's evidence — the Figure 5 level, nonempty
  /// count over copies (p_hat), saturation, and the witness count over
  /// valid observations (read-only — compiles and promotes nothing).
  /// `parts` is the number of copy-range parts the caller's stale probes
  /// shape the table in (BeginQuery).
  std::string Explain(const CompiledQuery& query, const SketchBank& bank,
                      int parts = 1) const;

  Stats stats() const;

  /// Drops every cached plan and remembered text (counters are
  /// retained).
  void Clear();

 private:
  struct Entry {
    CanonicalPlan plan;
    std::string canonical;            ///< plan.ToString() (collision guard).

    uint64_t bank_id = 0;             ///< Bank the result belongs to.
    std::vector<uint64_t> epochs;     ///< Per plan.streams, at probe time.
    Result result;                    ///< Memoized full answer.
    bool result_built = false;

    ProbeTable table;                 ///< Last probe (storage reused).
    std::vector<uint64_t> scratch;    ///< B(E) bitset arena, per node.
    uint64_t last_used = 0;           ///< LRU tick.
  };

  /// A remembered text (see Compile).
  struct TextEntry {
    Compiled compiled;
    uint64_t last_used = 0;           ///< LRU tick, shared with entries.
  };

  /// Evaluates a backend-routed query (see UsesBackendStreams).
  Result BackendQuery(const CompiledQuery& query, const SketchBank& bank)
      SETSKETCH_EXCLUDES(mutex_);

  Entry* FindOrCompileLocked(const CanonicalPlan& plan,
                             const std::string& canonical)
      SETSKETCH_REQUIRES(mutex_);
  /// True iff the entry's memoized result is valid for `bank`'s current
  /// (bank_id, epochs).
  bool FreshLocked(const Entry& entry, const SketchBank& bank) const
      SETSKETCH_REQUIRES(mutex_);
  /// Evaluates the entry's plan over request.table and installs the
  /// memoized result keyed by the request's (bank_id, epochs).
  Result EvaluateLocked(Entry* entry, SnapshotRequest request)
      SETSKETCH_REQUIRES(mutex_);
  /// Evicts least-recently-used plans (with their texts) and texts
  /// beyond max_entries.
  void EvictIfNeededLocked() SETSKETCH_REQUIRES(mutex_);

  const Options options_;
  mutable Mutex mutex_;
  std::unordered_map<uint64_t, Entry> entries_ SETSKETCH_GUARDED_BY(mutex_);
  std::unordered_map<std::string, TextEntry> texts_
      SETSKETCH_GUARDED_BY(mutex_);
  Stats stats_ SETSKETCH_GUARDED_BY(mutex_);
  uint64_t tick_ SETSKETCH_GUARDED_BY(mutex_) = 0;
};

}  // namespace setsketch

#endif  // SETSKETCH_QUERY_PLAN_CACHE_H_
