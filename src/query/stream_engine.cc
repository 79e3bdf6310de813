#include "query/stream_engine.h"

#include <cmath>
#include <cstring>
#include <unordered_set>

#include "core/estimator_config.h"
#include "distributed/summary_codec.h"
#include "query/parallel_ingest.h"

namespace setsketch {

namespace {

constexpr uint32_t kSnapshotMagic = 0x534B534E;  // "SKSN"
// Layout version; SSN1 and SSN2 files were versions 1 and 2, and
// version 3 spelled the configuration as fixed-width fields.
constexpr uint8_t kSnapshotVersion = 4;

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(const std::string& data, size_t* offset, T* value) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

void AppendString(std::string* out, const std::string& s) {
  AppendPod(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool ReadString(const std::string& data, size_t* offset, std::string* s) {
  uint32_t length = 0;
  if (!ReadPod(data, offset, &length)) return false;
  if (data.size() - *offset < length) return false;
  *s = data.substr(*offset, length);
  *offset += length;
  return true;
}

}  // namespace

StreamEngine::StreamEngine(const Options& options)
    : options_(options),
      bank_(options),
      plan_cache_(std::make_unique<PlanCache>(
          PlanCache::Options{options.witness})) {
  if (options_.track_exact) {
    exact_ = std::make_unique<ExactSetStore>(0);
  }
}

StreamId StreamEngine::RegisterStream(const std::string& name) {
  return RegisterStreamWithBackend(name, options_.default_backend);
}

StreamId StreamEngine::RegisterStreamWithBackend(const std::string& name,
                                                 SketchBackendId backend) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const StreamId id = static_cast<StreamId>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  bank_.AddStreamWithBackend(name, backend, bank_.backend_options());
  if (exact_) exact_->AddStream();
  return id;
}

std::optional<StreamId> StreamEngine::IdOf(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

StreamEngine::QueryHandle StreamEngine::RegisterQuery(
    const std::string& text) {
  return RegisterCompiled(plan_cache_->Compile(text));
}

StreamEngine::QueryHandle StreamEngine::RegisterQuery(ExprPtr expression) {
  if (!expression) {
    QueryHandle handle;
    handle.error = "null expression";
    return handle;
  }
  return RegisterCompiled(CompileQuery(std::move(expression)));
}

StreamEngine::QueryHandle StreamEngine::RegisterCompiled(
    PlanCache::Compiled query) {
  QueryHandle handle;
  if (!query->ok()) {
    handle.error = query->error;
    return handle;
  }
  for (const std::string& name : query->streams) RegisterStream(name);
  handle.id = static_cast<int>(queries_.size());
  queries_.push_back(std::move(query));
  return handle;
}

bool StreamEngine::Ingest(const std::string& stream, uint64_t element,
                          int64_t delta) {
  auto it = ids_.find(stream);
  if (it == ids_.end()) return false;
  return Ingest(Update{it->second, element, delta});
}

bool StreamEngine::Ingest(const Update& update) {
  if (update.stream >= names_.size()) return false;
  const std::string& name = names_[update.stream];
  if (!bank_.Apply(name, update.element, update.delta)) return false;
  if (exact_) exact_->Apply(update);
  ++updates_processed_;
  return true;
}

size_t StreamEngine::IngestAll(const std::vector<Update>& updates) {
  size_t routed = 0;
  for (const Update& u : updates) {
    if (Ingest(u)) ++routed;
  }
  return routed;
}

size_t StreamEngine::IngestAllParallel(const std::vector<Update>& updates,
                                       int threads) {
  const size_t applied =
      ParallelIngest(&bank_, names_, updates, threads);
  if (exact_) {
    for (const Update& u : updates) exact_->Apply(u);
  }
  updates_processed_ += static_cast<int64_t>(applied);
  return applied;
}

std::string EncodeEngineSnapshot(const SketchBank& bank,
                                 const WitnessOptions& witness,
                                 int64_t updates_processed,
                                 const std::vector<std::string>& names,
                                 const std::vector<std::string>& query_texts) {
  std::string out;
  AppendPod(&out, kSnapshotMagic);
  AppendPod(&out, kSnapshotVersion);
  EncodeSketchConfig(bank.config(), &out);
  AppendPod(&out, witness.epsilon);
  AppendPod(&out, witness.beta);
  AppendPod(&out, static_cast<uint8_t>(witness.pool_all_levels));
  AppendPod(&out, updates_processed);
  AppendPod(&out, static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    AppendString(&out, name);
    EncodeStreamSummary(bank, name, &out);
  }
  AppendPod(&out, static_cast<uint32_t>(query_texts.size()));
  for (const std::string& text : query_texts) {
    AppendString(&out, text);
  }
  return out;
}

bool DecodeEngineSnapshot(const std::string& bytes, uint64_t counter_budget,
                          EngineSnapshotData* out, std::string* error) {
  *out = EngineSnapshotData{};
  const auto fail = [error](std::string message) {
    *error = std::move(message);
    return false;
  };
  size_t offset = 0;
  uint32_t magic = 0;
  uint8_t version = 0;
  if (!ReadPod(bytes, &offset, &magic) || magic != kSnapshotMagic) {
    return fail("not an engine snapshot (bad magic)");
  }
  if (!ReadPod(bytes, &offset, &version) || version != kSnapshotVersion) {
    return fail("unsupported engine snapshot version " +
                std::to_string(version));
  }
  if (!DecodeSketchConfig(bytes, &offset, &out->config, error)) return false;
  WitnessOptions& witness = out->witness;
  uint8_t pooled = 0;
  if (!ReadPod(bytes, &offset, &witness.epsilon) ||
      !ReadPod(bytes, &offset, &witness.beta) ||
      !ReadPod(bytes, &offset, &pooled)) {
    return fail("truncated snapshot header");
  }
  witness.pool_all_levels = pooled != 0;
  if (!witness.Valid()) return fail("invalid witness options");
  // Every stream is decoded for the configuration the header declares.
  const SketchBank shape(out->config);

  uint32_t num_streams = 0;
  if (!ReadPod(bytes, &offset, &out->updates_processed) ||
      !ReadPod(bytes, &offset, &num_streams)) {
    return fail("truncated stream count");
  }
  std::unordered_set<std::string> seen;
  for (uint32_t i = 0; i < num_streams; ++i) {
    std::string name;
    if (!ReadString(bytes, &offset, &name)) {
      return fail("truncated stream name");
    }
    if (!seen.insert(name).second) {
      return fail("stream '" + name + "' appears twice");
    }
    StreamSummary summary;
    std::string why;
    if (!DecodeStreamSummary(bytes, &offset, &shape, &counter_budget,
                             &summary, &why)) {
      return fail("stream '" + name + "' " + why);
    }
    out->streams.emplace_back(std::move(name), std::move(summary));
  }
  uint32_t num_queries = 0;
  if (!ReadPod(bytes, &offset, &num_queries)) {
    return fail("truncated query count");
  }
  for (uint32_t i = 0; i < num_queries; ++i) {
    std::string text;
    if (!ReadString(bytes, &offset, &text)) {
      return fail("truncated query text");
    }
    out->query_texts.push_back(std::move(text));
  }
  if (offset != bytes.size()) return fail("trailing bytes after snapshot");
  return true;
}

std::string StreamEngine::SaveSnapshot() const {
  std::vector<std::string> query_texts;
  query_texts.reserve(queries_.size());
  for (const PlanCache::Compiled& query : queries_) {
    query_texts.push_back(query->display);
  }
  return EncodeEngineSnapshot(bank_, options_.witness, updates_processed_,
                              names_, query_texts);
}

std::unique_ptr<StreamEngine> StreamEngine::LoadSnapshot(
    const std::string& bytes, uint64_t counter_budget) {
  EngineSnapshotData data;
  std::string error;
  if (!DecodeEngineSnapshot(bytes, counter_budget, &data, &error)) {
    return nullptr;
  }
  Options options;
  static_cast<SketchConfig&>(options) = data.config;
  options.witness = data.witness;
  auto engine = std::make_unique<StreamEngine>(options);
  for (auto& [name, summary] : data.streams) {
    // Decoding matched every synopsis to the header's configuration,
    // which this engine adopts. Registering afterwards assigns the id and
    // leaves the installed synopsis alone.
    if (!engine->bank_.InstallSummary(name, std::move(summary))) {
      return nullptr;
    }
    engine->RegisterStream(name);
  }
  for (const std::string& text : data.query_texts) {
    if (!engine->RegisterQuery(text).ok()) return nullptr;
  }
  engine->updates_processed_ = data.updates_processed;
  return engine;
}

StreamEngine::Answer StreamEngine::AnswerExpression(
    const CompiledQuery& query) const {
  Answer answer;
  answer.expression = query.display;
  // Compiled path: reuse the cached plan's memoized answer when this
  // bank's stream epochs are unchanged, otherwise re-answer from a fresh
  // probe table over the live bank. Bit-identical to direct estimation
  // (the provably-empty shortcut lives inside the cache too).
  const PlanCache::Result planned = plan_cache_->Query(query, bank_);
  answer.ok = planned.ok;
  answer.estimate = planned.estimate;
  answer.interval = planned.interval;
  answer.detail = planned.detail;
  if (exact_) {
    StreamNameMap name_map;
    for (size_t i = 0; i < names_.size(); ++i) {
      name_map.emplace(names_[i], static_cast<StreamId>(i));
    }
    answer.exact = ExactCardinality(*query.expression, *exact_, name_map);
  }
  return answer;
}

StreamEngine::Answer StreamEngine::AnswerQuery(int query_id) const {
  if (query_id < 0 || query_id >= num_queries()) {
    Answer answer;
    answer.expression = "<invalid query id>";
    return answer;
  }
  return AnswerExpression(*queries_[static_cast<size_t>(query_id)]);
}

StreamEngine::Explanation StreamEngine::ExplainQuery(int query_id) const {
  Explanation explanation;
  if (query_id < 0 || query_id >= num_queries()) {
    explanation.report = "invalid query id";
    return explanation;
  }
  const CompiledQuery& query = *queries_[static_cast<size_t>(query_id)];
  explanation.ok = true;
  explanation.expression = query.display;
  explanation.provably_empty = query.provably_empty;
  explanation.streams = query.streams;

  std::string report = "query: " + explanation.expression + "\n";
  if (explanation.provably_empty) {
    report += "provably empty: |E| = 0 for any stream contents; no "
              "sampling needed\n";
    explanation.report = std::move(report);
    return explanation;
  }

  const std::vector<SketchGroup> groups = bank_.Groups(explanation.streams);
  const UnionEstimate union_estimate =
      options_.witness.mle_union
          ? EstimateSetUnionMle(groups, options_.witness.epsilon)
          : EstimateSetUnion(groups, options_.witness.epsilon);
  if (!options_.witness.Valid()) {
    report += "witness options admit no witness level\n";
  } else if (union_estimate.ok && union_estimate.estimate > 0) {
    explanation.union_estimate = union_estimate.estimate;
    explanation.witness_level =
        WitnessLevel(union_estimate.estimate, options_.witness.epsilon,
                     options_.witness.beta, options_.params.levels);
    // P[bucket singleton for the union] = (u/R)(1 - 1/R)^(u-1).
    const double big_r =
        std::ldexp(1.0, explanation.witness_level + 1);
    const double u = union_estimate.estimate;
    explanation.expected_valid_fraction =
        (u / big_r) *
        std::exp((u - 1.0) * std::log1p(-1.0 / big_r));
    report += "streams: " + std::to_string(explanation.streams.size()) +
              ", union estimate ~ " +
              std::to_string(static_cast<int64_t>(u)) + "\n";
    report += "witness level " +
              std::to_string(explanation.witness_level) +
              "; expected valid observations ~ " +
              std::to_string(static_cast<int>(
                  explanation.expected_valid_fraction *
                  bank_.num_copies())) +
              " of " + std::to_string(bank_.num_copies()) + " copies" +
              std::string(options_.witness.pool_all_levels
                              ? " (x ~1.4 levels each, pooled mode)\n"
                              : "\n");
  } else {
    report += "streams are empty; |E| = 0\n";
  }
  // Planner view: canonical form, CSE sharing, merge tasks and the plan
  // cache's epoch state for this query.
  report += "-- planner --\n";
  report += plan_cache_->Explain(query, bank_);
  explanation.report = std::move(report);
  return explanation;
}

std::vector<StreamEngine::Answer> StreamEngine::AnswerAll() const {
  std::vector<Answer> answers;
  answers.reserve(queries_.size());
  for (int i = 0; i < num_queries(); ++i) {
    answers.push_back(AnswerQuery(i));
  }
  return answers;
}

StreamEngine::Answer StreamEngine::EstimateNow(const std::string& text) const {
  const PlanCache::Compiled query = plan_cache_->Compile(text);
  if (!query->ok()) {
    Answer answer;
    answer.expression = text;
    return answer;
  }
  for (const std::string& name : query->streams) {
    if (!ids_.contains(name)) {
      Answer answer;
      answer.expression = query->display;
      return answer;  // Unknown stream: not ok.
    }
  }
  return AnswerExpression(*query);
}

}  // namespace setsketch
