#include "query/plan_cache.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "expr/parser.h"

namespace setsketch {

namespace {

std::string HashToHex(uint64_t hash) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kDigits[(hash >> shift) & 0xf];
  }
  return out;
}

// Shapes the probe table for `streams` over `bank` into *request
// (reusing its table storage), recording the probe's bank id, epochs and
// columns, or request->error. With parts == 0 it fills the table here in
// one part; otherwise it leaves `parts` parts for the caller to fill.
void Probe(const std::vector<std::string>& streams, const SketchBank& bank,
           int parts, PlanCache::SnapshotRequest* request) {
  request->error.clear();
  request->bank_id = bank.bank_id();
  request->epochs.resize(streams.size());
  for (size_t k = 0; k < streams.size(); ++k) {
    request->epochs[k] = bank.StreamEpoch(streams[k]);
  }
  request->columns = bank.Columns(streams);
  if (request->columns.size() != streams.size()) {
    request->error = "unknown stream in expression";
  } else if (!request->table.Reset(request->columns, std::max(parts, 1))) {
    request->error = "sketch probe failed (ragged columns)";
  } else if (parts == 0) {
    request->Fill(0);
  }
}

// The memoized answer's estimator evidence: the Figure 5 union stage
// and the witness stage.
void AppendEvidence(const ExpressionEstimate& detail, std::ostream* out) {
  const UnionEstimate& u = detail.union_part;
  const WitnessEstimate& w = detail.expression;
  *out << "memo evidence: union level " << u.level << ", nonempty "
       << u.nonempty_count << "/" << u.copies << " copies (p_hat " << u.p_hat
       << "), saturated " << (u.saturated ? "yes" : "no") << ", estimate "
       << u.estimate << "; witness level " << w.level << ", witnesses "
       << w.witnesses << "/" << w.valid_observations
       << " valid observations, estimate " << w.estimate << "\n";
}

// A zero-capacity cache would evict the entry FindOrCompileLocked just
// inserted and hand back a dangling pointer; one entry is the usable
// minimum.
PlanCache::Options Sanitize(PlanCache::Options options) {
  if (options.max_entries == 0) options.max_entries = 1;
  return options;
}

}  // namespace

std::shared_ptr<const CompiledQuery> CompileQuery(ExprPtr expression) {
  auto query = std::make_shared<CompiledQuery>();
  query->display = expression->ToString();
  query->streams = expression->StreamNames();
  query->plan = Canonicalize(*expression);
  query->canonical = query->plan.ToString();
  query->provably_empty = ProvablyEmpty(query->plan);
  query->expression = std::move(expression);
  return query;
}

std::shared_ptr<const CompiledQuery> CompileQuery(const std::string& text) {
  ParseResult parsed = ParseExpression(text);
  if (!parsed.ok()) {
    auto query = std::make_shared<CompiledQuery>();
    query->error = std::move(parsed.error);
    return query;
  }
  return CompileQuery(std::move(parsed.expression));
}

PlanCache::PlanCache(const Options& options) : options_(Sanitize(options)) {}

PlanCache::Compiled PlanCache::Compile(const std::string& text) {
  {
    MutexLock lock(&mutex_);
    const auto it = texts_.find(text);
    if (it != texts_.end()) {
      it->second.last_used = ++tick_;
      return it->second.compiled;
    }
  }
  // Parse, canonicalize and the emptiness check run unlocked, so a cold
  // text never holds up other queries' hits. Two threads compiling one
  // new text both do the work; the first to land is remembered.
  Compiled compiled = CompileQuery(text);
  MutexLock lock(&mutex_);
  TextEntry& slot = texts_[text];
  if (slot.compiled == nullptr) slot.compiled = compiled;
  slot.last_used = ++tick_;
  EvictIfNeededLocked();
  return compiled;
}

PlanCache::Result PlanCache::Query(const std::string& text,
                                   const SketchBank& bank) {
  const Compiled query = Compile(text);
  if (!query->ok()) {
    Result result;
    result.error = query->error;
    return result;
  }
  return Query(*query, bank);
}

PlanCache::Result PlanCache::Query(const Expression& expr,
                                   const SketchBank& bank) {
  // Aliasing constructor with no owner: the compilation borrows `expr`,
  // and nothing this call leaves behind keeps it (plan entries copy the
  // plan and its text only).
  return Query(*CompileQuery(ExprPtr(ExprPtr(), &expr)), bank);
}

namespace {

// Algebraically empty expressions (A - A, ...) are answered exactly,
// with no sketch access and no cache entry: the estimate is 0 for every
// possible stream contents.
PlanCache::Result ExactEmptyResult(std::string canonical) {
  PlanCache::Result result;
  result.ok = true;
  result.cache_hit = true;
  result.estimate = 0.0;
  result.canonical = std::move(canonical);
  result.detail.ok = true;
  result.detail.expression.ok = true;
  return result;
}

}  // namespace

bool PlanCache::UsesBackendStreams(const std::vector<std::string>& streams,
                                   const SketchBank& bank) {
  for (const std::string& name : streams) {
    if (bank.StreamBackend(name) != SketchBackendId::kTwoLevelHash) {
      return true;
    }
  }
  return false;
}

bool PlanCache::AnswerProvablyEmpty(const CompiledQuery& query,
                                    const SketchBank& bank, Result* result) {
  if (!query.provably_empty || UsesBackendStreams(query.streams, bank)) {
    return false;
  }
  *result = ExactEmptyResult(query.canonical);
  return true;
}

PlanCache::Result PlanCache::BackendQuery(const CompiledQuery& query,
                                          const SketchBank& bank) {
  Result result;
  result.canonical = query.canonical;
  // Homogeneity first, so a two-level stream mixed into a backend query
  // reports "mixed backends" rather than a confusing lookup miss.
  for (const std::string& name : query.streams) {
    if (!bank.HasStream(name)) {
      result.error = "unknown stream in expression";
      return result;
    }
    if (bank.StreamBackend(name) == SketchBackendId::kTwoLevelHash) {
      result.error = "mixed sketch backends in one expression ('" + name +
                     "' is two_level_hash)";
      return result;
    }
  }
  const BackendEstimate estimate = EstimateWithBackend(
      *query.expression,
      [&bank](const std::string& name) -> const DistinctSketch* {
        return bank.BackendSketch(name);
      });
  {
    MutexLock lock(&mutex_);
    ++stats_.backend_queries;
  }
  if (!estimate.ok) {
    result.error = estimate.error;
    return result;
  }
  result.ok = true;
  result.estimate = estimate.estimate;
  // The backends carry a design-point relative standard error rather than
  // a witness-count interval; report +/- 2 sigma around the estimate.
  const DistinctSketch* representative =
      bank.BackendSketch(query.streams.front());
  const double sigma =
      representative->TargetRelativeError() / 3.0 * estimate.estimate;
  result.interval.lo = std::max(0.0, estimate.estimate - 2.0 * sigma);
  result.interval.hi = estimate.estimate + 2.0 * sigma;
  result.detail.ok = true;
  result.detail.expression.ok = true;
  return result;
}

PlanCache::Result PlanCache::Query(const CompiledQuery& query,
                                   const SketchBank& bank) {
  Result hit;
  SnapshotRequest request;
  if (BeginQuery(query, bank, &hit, &request)) return hit;
  return FinishQuery(std::move(request));
}

bool PlanCache::BeginQuery(const CompiledQuery& query, const SketchBank& bank,
                           Result* hit, SnapshotRequest* request, int parts) {
  if (AnswerProvablyEmpty(query, bank, hit)) return true;
  if (UsesBackendStreams(query.streams, bank)) {
    // Backend-routed queries evaluate inline: the synopsis is a few KB
    // and the algebra is O(sample), so there is no cold evaluation worth
    // moving outside the caller's ingest locks.
    *hit = BackendQuery(query, bank);
    return true;
  }

  {
    MutexLock lock(&mutex_);
    Entry* entry = FindOrCompileLocked(query.plan, query.canonical);
    if (entry != nullptr && FreshLocked(*entry, bank)) {
      ++stats_.hits;
      *hit = entry->result;
      hit->cache_hit = true;
      return true;
    }
    // A structural-hash collision (entry == nullptr) is a miss that
    // FinishQuery answers from a scratch entry.
    if (entry != nullptr && entry->result_built) {
      ++stats_.invalidations;
    } else {
      ++stats_.misses;
    }
    ++stats_.merge_builds;
    // Borrow the entry's table storage; FinishQuery hands it back.
    if (entry != nullptr) std::swap(request->table, entry->table);
  }
  request->plan = query.plan;
  request->canonical = query.canonical;
  // The probe reads the bank's registry but no cache state, so concurrent
  // FinishQuery evaluations are not held up behind it.
  Probe(request->plan.streams, bank, parts, request);
  return false;
}

PlanCache::Result PlanCache::FinishQuery(SnapshotRequest request) {
  MutexLock lock(&mutex_);
  // The entry may have been evicted (or evaluated by a concurrent
  // FinishQuery) between the two phases; re-resolve it.
  Entry* entry = FindOrCompileLocked(request.plan, request.canonical);
  if (entry != nullptr && entry->result_built &&
      entry->bank_id == request.bank_id &&
      entry->epochs.size() == request.epochs.size()) {
    if (entry->epochs == request.epochs) {
      // A concurrent FinishQuery already landed this probe's answer.
      Result result = entry->result;
      result.cache_hit = true;
      return result;
    }
    for (size_t k = 0; k < request.epochs.size(); ++k) {
      if (entry->epochs[k] > request.epochs[k]) {
        // The installed memo is for newer epochs than this probe (epochs
        // are monotonic): answer the probe without regressing the entry
        // to older state.
        entry = nullptr;
        break;
      }
    }
  }
  Entry scratch_entry;
  if (entry == nullptr) {
    // Hash collision, or a newer-epoch memo to preserve: evaluate on a
    // scratch entry without touching the cache.
    scratch_entry.plan = std::move(request.plan);
    scratch_entry.canonical = std::move(request.canonical);
    entry = &scratch_entry;
  }
  return EvaluateLocked(entry, std::move(request));
}

bool PlanCache::FreshLocked(const Entry& entry,
                            const SketchBank& bank) const {
  if (!entry.result_built || entry.bank_id != bank.bank_id()) return false;
  for (size_t k = 0; k < entry.plan.streams.size(); ++k) {
    if (bank.StreamEpoch(entry.plan.streams[k]) != entry.epochs[k]) {
      return false;
    }
  }
  return true;
}

PlanCache::Entry* PlanCache::FindOrCompileLocked(const CanonicalPlan& plan,
                                                 const std::string& canonical) {
  const uint64_t key = plan.hash();
  ++tick_;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.canonical != canonical) return nullptr;  // Collision.
    it->second.last_used = tick_;
    return &it->second;
  }

  ++stats_.compiles;
  Entry entry;
  entry.plan = plan;
  entry.canonical = canonical;
  entry.last_used = tick_;

  Entry* inserted = &entries_.emplace(key, std::move(entry)).first->second;
  EvictIfNeededLocked();
  return inserted;
}

PlanCache::Result PlanCache::EvaluateLocked(Entry* entry,
                                            SnapshotRequest request) {
  Result result;
  result.canonical = entry->canonical;
  if (request.error.empty() && !request.table.Filled()) {
    request.error = "sketch probe failed (mismatched seeds)";
  }
  if (!request.error.empty()) {
    result.error = std::move(request.error);
    entry->result_built = false;
    return result;
  }

  // B(E) over every cell: the canonical DAG as OR / AND / AND-NOT passes
  // over the table's occupancy bitsets (the plan's columns are the
  // table's), into the entry's scratch arena.
  const CanonicalPlan& plan = entry->plan;
  const ProbeTable& table = request.table;
  std::vector<const uint64_t*> leaves(plan.streams.size());
  for (size_t k = 0; k < leaves.size(); ++k) {
    leaves[k] = table.occupancy(static_cast<int>(k));
  }
  const uint64_t* witness =
      EvaluatePlan(plan, leaves, table.words(), &entry->scratch);
  result.detail =
      EstimateExpressionWithKernel(table, witness, options_.witness);
  result.ok = result.detail.ok;
  if (result.ok) {
    result.estimate = result.detail.expression.estimate;
    result.interval = WitnessInterval(result.detail.expression,
                                      UnionInterval(result.detail.union_part));
  }

  entry->bank_id = request.bank_id;
  entry->epochs = std::move(request.epochs);
  entry->table = std::move(request.table);
  entry->result = result;
  entry->result_built = true;
  return result;
}

std::string PlanCache::Explain(const CompiledQuery& query,
                               const SketchBank& bank, int parts) const {
  if (!query.ok()) return "error: " + query.error + "\n";
  const CanonicalPlan& plan = query.plan;

  std::ostringstream out;
  out << "expression: " << query.display << "\n";
  out << "canonical plan: " << query.canonical << "\n";
  out << "canonical hash: " << HashToHex(plan.hash()) << "\n";
  out << "streams (" << plan.streams.size() << "):";
  for (const std::string& name : plan.streams) {
    out << " " << name;
    if (bank.StreamEpoch(name) == 0) out << " [unknown]";
  }
  out << "\n";
  if (UsesBackendStreams(plan.streams, bank)) {
    SketchBackendId backend = SketchBackendId::kTwoLevelHash;
    for (const std::string& name : plan.streams) {
      if (bank.StreamBackend(name) != SketchBackendId::kTwoLevelHash) {
        backend = bank.StreamBackend(name);
        break;
      }
    }
    out << "backend: " << SketchBackendName(backend)
        << " — routed to the backend's expression algebra "
           "(no plan memoization; synopses are merged inline)\n";
    return out.str();
  }
  out << "plan nodes: " << plan.nodes.size() << ", shared sub-expressions: "
      << plan.SharedNodeCount() << "\n";
  for (size_t id = 0; id < plan.nodes.size(); ++id) {
    const CanonicalNode& node = plan.nodes[id];
    if (node.kind == Expression::Kind::kStream || node.uses <= 1) continue;
    out << "  shared: " << plan.NodeToString(static_cast<int>(id))
        << " (used " << node.uses << "x)\n";
  }
  if (query.provably_empty) {
    out << "provably empty: answered exactly 0 without a plan\n";
    return out.str();
  }

  // The probe a stale or cold answer costs: one bitset over every
  // (copy, level) cell per fact, filled from one row-summary word group
  // per (stream, copy, level), then B(E) as one pass per plan node.
  const SketchParams& params = bank.family().params();
  parts = std::max(parts, 1);
  const ProbeTable::Layout layout =
      ProbeTable::LayoutOf(bank.num_copies(), params.levels, parts);
  out << "probe table: " << bank.num_copies() << " copies x "
      << params.levels << " levels in " << parts << " part(s), bitsets of "
      << layout.level_words
      << " word(s) per level: nonempty, union-singleton, "
      << plan.streams.size() << " occupancy ("
      << (2 + plan.streams.size()) * layout.bitset_words
      << " words); fill reads " << (2 * params.num_second_level + 63) / 64
      << " row-summary word(s) per stream and cell (counters only on rows "
         "with a negative cell); B(E) in "
      << plan.nodes.size() << " bitset pass(es)\n";

  MutexLock lock(&mutex_);
  auto it = entries_.find(plan.hash());
  if (it == entries_.end() || it->second.canonical != query.canonical) {
    out << "cache: MISS (not compiled yet)\n";
  } else {
    const Entry& entry = it->second;
    if (!entry.result_built || entry.bank_id != bank.bank_id()) {
      out << "cache: COMPILED (no valid result for this bank)\n";
    } else {
      std::vector<std::string> changed;
      for (size_t k = 0; k < entry.plan.streams.size(); ++k) {
        if (bank.StreamEpoch(entry.plan.streams[k]) != entry.epochs[k]) {
          changed.push_back(entry.plan.streams[k]);
        }
      }
      if (changed.empty()) {
        out << "cache: HIT (all stream epochs current)\n";
      } else {
        out << "cache: STALE (changed streams:";
        for (const std::string& name : changed) out << " " << name;
        out << ")\n";
      }
      AppendEvidence(entry.result.detail, &out);
    }
  }
  out << "plan cache: hits=" << stats_.hits << " misses=" << stats_.misses
      << " invalidations=" << stats_.invalidations
      << " merge_builds=" << stats_.merge_builds
      << " entries=" << entries_.size() << "\n";
  return out.str();
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(&mutex_);
  Stats stats = stats_;
  stats.entries = entries_.size();
  stats.memo_bytes = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    stats.memo_bytes +=
        entry.table.Bytes() + entry.scratch.size() * sizeof(uint64_t);
  }
  return stats;
}

void PlanCache::Clear() {
  MutexLock lock(&mutex_);
  entries_.clear();
  texts_.clear();
}

void PlanCache::EvictIfNeededLocked() {
  while (entries_.size() > options_.max_entries) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    const uint64_t key = victim->first;
    entries_.erase(victim);
    ++stats_.evictions;
    std::erase_if(texts_, [key](const auto& text) {
      const CompiledQuery& query = *text.second.compiled;
      return query.ok() && query.plan.hash() == key;
    });
  }
  while (texts_.size() > options_.max_entries) {
    auto victim = texts_.begin();
    for (auto it = texts_.begin(); it != texts_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    texts_.erase(victim);
  }
}

}  // namespace setsketch
