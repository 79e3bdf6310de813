#include "cluster/cluster_router.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>

namespace setsketch {

namespace {

constexpr uint64_t kProbeBackoffSalt = 0x726F757470726F62ULL;  // "routprob"

/// RAII shared hold on the write gate for the push fan-out path.
class SharedGate {
 public:
  explicit SharedGate(RwGate* gate) : gate_(gate) { gate_->LockShared(); }
  ~SharedGate() { gate_->UnlockShared(); }
  SharedGate(const SharedGate&) = delete;
  SharedGate& operator=(const SharedGate&) = delete;

 private:
  RwGate* gate_;
};

/// RAII exclusive hold on the write gate for transfers.
class ExclusiveGate {
 public:
  explicit ExclusiveGate(RwGate* gate) : gate_(gate) {
    gate_->LockExclusive();
  }
  ~ExclusiveGate() { gate_->UnlockExclusive(); }
  ExclusiveGate(const ExclusiveGate&) = delete;
  ExclusiveGate& operator=(const ExclusiveGate&) = delete;

 private:
  RwGate* gate_;
};

std::string InDoubtKey(std::string_view site, uint64_t sequence) {
  return std::string(site) + '#' + std::to_string(sequence);
}

}  // namespace

ClusterRouter::ShardState::ShardState(const ClusterShard& shard_in,
                                      int backoff_initial_ms,
                                      int backoff_cap_ms)
    : shard(shard_in),
      probe_backoff(backoff_initial_ms, backoff_cap_ms,
                    Backoff::DeriveSeed(kProbeBackoffSalt, shard_in.name,
                                        shard_in.port)) {}

ClusterRouter::ClusterRouter(const Options& options)
    : options_(options),
      // Start refuses an invalid shape; until then the coins are the
      // default config's, so construction never aborts.
      coins_(ConstructibleConfig(options)),
      placement_(options.placement_seed, options.virtual_nodes),
      federated_(coins_.family(), coins_.config().backend_size),
      plan_cache_(PlanCache::Options{options.witness}) {
  if (options_.replicas < 0) options_.replicas = 0;
  // Capacity for the initial membership plus every future ADD_SHARD is
  // reserved up front so shards_ never reallocates: lock-free readers
  // index it up to num_shards_ while ADD_SHARD appends.
  shards_.reserve(options_.shards.size() + options_.max_dynamic_shards);
  for (const ClusterShard& shard : options_.shards) {
    ClusterShard named = shard;
    if (named.name.empty()) {
      named.name = named.host + ":" + std::to_string(named.port);
    }
    auto state = std::make_unique<ShardState>(
        named, options_.probe_backoff_initial_ms,
        options_.probe_backoff_cap_ms);
    placement_.AddNode(named.name);
    shard_index_by_name_.emplace(named.name, shards_.size());
    shards_.push_back(std::move(state));
  }
  num_shards_.store(shards_.size());
}

ClusterRouter::~ClusterRouter() { Stop(); }

bool ClusterRouter::Start(std::string* error) {
  if (!options_.Validate(error)) return false;
  if (shards_.empty()) {
    if (error != nullptr) *error = "a cluster needs at least one shard";
    return false;
  }
  if (!host_.Listen(options_, error)) return false;
  host_.Serve(&connections_);
  if (options_.probe_interval_ms > 0) {
    probe_thread_ = std::thread(&ClusterRouter::ProbeLoop, this);
  }
  return true;
}

std::string ClusterRouter::HandleFrame(const FrameView& frame,
                                       ServerConnection* connection) {
  switch (frame.opcode) {
    case Opcode::kPing: {
      HelloInfo hello;
      if (DecodeHello(std::string(frame.payload), /*response=*/false,
                      &hello)) {
        return EncodeFrame(
            Opcode::kPong,
            EncodeHello(HelloInfo{kFeatureSummaryPull, options_},
                        /*response=*/true));
      }
      return EncodeFrame(Opcode::kPong, frame.payload);
    }
    case Opcode::kPushUpdates:
      return HandlePushUpdates(frame.payload, connection);
    case Opcode::kQuery:
      return EncodeFrame(Opcode::kQueryResult,
                         EncodeQueryResult(Answer(std::string(frame.payload))));
    case Opcode::kStats:
      return EncodeFrame(Opcode::kStatsResult, RenderStats());
    case Opcode::kExplain:
      return EncodeFrame(Opcode::kExplainResult,
                         Explain(std::string(frame.payload)));
    case Opcode::kAddShard: {
      ShardAdminRequest request;
      std::string decode_error;
      if (!DecodeShardAdmin(std::string(frame.payload), &request,
                            &decode_error)) {
        return host_.Refuse(connection, WireError::kBadPayload,
                            decode_error);
      }
      ClusterShard shard;
      shard.name = request.name;
      shard.host = request.host;
      shard.port = request.port;
      uint64_t moved = 0;
      std::string admin_error;
      if (!AddShard(shard, &moved, &admin_error)) {
        return ErrorFrame(WireError::kBadMembership, admin_error);
      }
      AckInfo ack;
      ack.accepted = moved;
      return EncodeFrame(Opcode::kAck, EncodeAck(ack));
    }
    case Opcode::kDrainShard: {
      ShardAdminRequest request;
      std::string decode_error;
      if (!DecodeShardAdmin(std::string(frame.payload), &request,
                            &decode_error)) {
        return host_.Refuse(connection, WireError::kBadPayload,
                            decode_error);
      }
      uint64_t moved = 0;
      std::string admin_error;
      if (!DrainShard(request.name, &moved, &admin_error)) {
        return ErrorFrame(WireError::kBadMembership, admin_error);
      }
      AckInfo ack;
      ack.accepted = moved;
      return EncodeFrame(Opcode::kAck, EncodeAck(ack));
    }
    case Opcode::kPushSummary:
    case Opcode::kPullSummary:
    case Opcode::kPullRepair:
    case Opcode::kPushRepair:
      return host_.Refuse(connection, WireError::kBadPayload,
                          std::string(OpcodeName(frame.opcode)) +
                              " is not routed; address a shard directly");
    default:
      return host_.Refuse(connection, WireError::kUnknownOpcode,
                          std::string("unexpected opcode ") +
                              OpcodeName(frame.opcode));
  }
}

bool ClusterRouter::EnsureClientLocked(ShardState* state) {
  if (state->Has(kShardRefused) || state->Has(kShardRemoved)) return false;
  if (state->client == nullptr) {
    SketchClient::Options client_options;
    client_options.host = state->shard.host;
    client_options.port = state->shard.port;
    client_options.connect_timeout_ms = options_.shard_connect_timeout_ms;
    client_options.io_timeout_ms = options_.shard_io_timeout_ms;
    client_options.fault_injector = options_.shard_fault_injector;
    std::string dial_error;
    state->client = SketchClient::Connect(client_options, &dial_error);
    if (state->client == nullptr) return false;
    // Handshake every fresh connection: the config gate must hold for
    // the shard process currently answering, not one that once did.
    const HelloInfo mine{kFeatureSummaryPull, options_};
    HelloInfo theirs;
    const SketchClient::Status hello = state->client->Hello(mine, &theirs);
    if (!hello.ok) {
      // A transport failure is retryable; a peer that answered but could
      // not be config-checked (or disagreed) is permanently refused.
      if (state->client->connected()) state->Set(kShardRefused);
      state->client.reset();
      return false;
    }
    // Any shard may become a transfer's source or destination.
    constexpr uint8_t kNeeded = kFeatureSummaryPull | kFeatureRepair;
    if (mine.config != theirs.config ||
        (theirs.features & kNeeded) != kNeeded) {
      state->Set(kShardRefused);
      state->client.reset();
      return false;
    }
  }
  return true;
}

SketchClient::Status ClusterRouter::WithShard(
    size_t shard_index,
    const std::function<SketchClient::Status(SketchClient&)>& op) {
  ShardState* state = shards_[shard_index].get();
  MutexLock lock(&state->mutex);
  SketchClient::Status status;
  // Two attempts: a stale connection (shard restarted between calls)
  // fails once, redials, and succeeds — without declaring a live shard
  // dead. A genuinely dead shard fails both and is marked unhealthy.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!EnsureClientLocked(state)) {
      status.ok = false;
      if (status.error.empty()) {
        status.error = state->Has(kShardRefused)
                           ? "shard refused (CONFIG_MISMATCH)"
                       : state->Has(kShardRemoved)
                           ? "shard removed from membership"
                           : "shard unreachable";
      }
      continue;
    }
    status = op(*state->client);
    if (status.ok || status.retry) {
      state->Set(kShardHealthy);
      return status;
    }
    // Transport failures close the client's socket; drop it so the next
    // attempt (or call) redials. Server-side typed errors keep it.
    if (!state->client->connected()) state->client.reset();
  }
  // Real forward-op failures flip health immediately — flap damping
  // applies only to background probes (ProbeLoop).
  state->ClearBit(kShardHealthy);
  ++state->failures;
  return status;
}

bool ClusterRouter::ProbeLocked(ShardState* state) {
  // Like WithShard's retry shape, but with no health-bit writes: the
  // probe loop owns the healthy transition so it can apply flap damping.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!EnsureClientLocked(state)) {
      if (state->Has(kShardRefused) || state->Has(kShardRemoved)) {
        return false;
      }
      continue;
    }
    const SketchClient::Status status = state->client->Ping();
    if (status.ok) return true;
    if (!state->client->connected()) state->client.reset();
  }
  return false;
}

std::vector<size_t> ClusterRouter::PlacedIndices(
    const HashRing& placement, std::string_view stream) const {
  const std::vector<std::string> names = placement.Targets(
      stream, static_cast<size_t>(options_.replicas) + 1);
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) {
    indices.push_back(shard_index_by_name_.at(name));
  }
  return indices;
}

std::vector<size_t> ClusterRouter::TargetIndices(
    std::string_view stream) const {
  MutexLock lock(&placement_mutex_);
  return PlacedIndices(placement_, stream);
}

std::vector<std::string> ClusterRouter::WriteTargets(
    const std::string& stream) const {
  MutexLock lock(&placement_mutex_);
  return placement_.Targets(stream,
                            static_cast<size_t>(options_.replicas) + 1);
}

int ClusterRouter::ReadTargetIndex(const std::string& stream,
                                   bool* failover, bool* degraded) const {
  if (failover != nullptr) *failover = false;
  if (degraded != nullptr) *degraded = false;
  const std::vector<size_t> targets = TargetIndices(stream);
  for (size_t k = 0; k < targets.size(); ++k) {
    const uint32_t health = shards_[targets[k]]->health.load();
    if ((health & (kShardRefused | kShardRemoved | kShardStale)) != 0) {
      continue;
    }
    if ((health & kShardHealthy) == 0) continue;
    if (failover != nullptr && k > 0) *failover = true;
    return static_cast<int>(targets[k]);
  }
  if (options_.read_policy == ReadPolicy::kAvailable) {
    // Every complete copy is gone; answer from the best reachable
    // replica (stale but alive) and flag the result degraded.
    for (size_t k = 0; k < targets.size(); ++k) {
      const uint32_t health = shards_[targets[k]]->health.load();
      if ((health & (kShardRefused | kShardRemoved)) != 0) continue;
      if ((health & kShardHealthy) == 0) continue;
      if (failover != nullptr && k > 0) *failover = true;
      if (degraded != nullptr) *degraded = true;
      return static_cast<int>(targets[k]);
    }
  }
  return -1;
}

std::string ClusterRouter::ReadTarget(const std::string& stream) const {
  const int index = ReadTargetIndex(stream, nullptr, nullptr);
  return index < 0 ? std::string()
                   : shards_[static_cast<size_t>(index)]->shard.name;
}

void ClusterRouter::RecordInDoubt(std::string_view site,
                                  uint64_t sequence) {
  MutexLock lock(&in_doubt_mutex_);
  in_doubt_.insert(InDoubtKey(site, sequence));
}

void ClusterRouter::ClearInDoubt(std::string_view site,
                                 uint64_t sequence) {
  bool drained = false;
  {
    MutexLock lock(&in_doubt_mutex_);
    if (in_doubt_.erase(InDoubtKey(site, sequence)) > 0) {
      drained = in_doubt_.empty();
    }
  }
  if (drained) in_doubt_cv_.notify_all();
}

std::string ClusterRouter::HandlePushUpdates(std::string_view payload,
                                             ServerConnection* connection) {
  UpdateBatchView batch;
  std::string decode_error;
  if (!DecodePushUpdates(payload, &batch, &decode_error)) {
    return host_.Refuse(connection, WireError::kBadPayload, decode_error);
  }
  if (host_.draining()) {
    return ErrorFrame(WireError::kShuttingDown, "router is draining");
  }

  // Shared hold on the write gate: repair/migration transfers take it
  // exclusive, so their snapshots never interleave with a fan-out.
  SharedGate gate(&write_gate_);

  // Partition the batch by placed shard: every stream goes to its owner
  // plus replicas, each sub-batch keeping the ORIGINAL (site, sequence)
  // header so the shards' dedup windows see the client's identity. The
  // decoded names borrow the frame payload; only the sub-batches copy
  // them.
  struct SubBatch {
    UpdateBatch batch;
    std::vector<uint64_t> local_index;  ///< Per batch stream; kAbsent if none.
  };
  constexpr uint64_t kAbsent = ~uint64_t{0};
  std::map<size_t, SubBatch> per_shard;
  std::vector<std::vector<size_t>> shards_of_stream(
      batch.stream_names.size());
  for (size_t k = 0; k < batch.stream_names.size(); ++k) {
    const std::string_view name = batch.stream_names[k];
    const std::vector<size_t> placed = TargetIndices(name);
    for (const size_t shard_index : placed) {
      ShardState& state = *shards_[shard_index];
      const uint32_t health = state.health.load();
      if ((health & (kShardRefused | kShardRemoved)) != 0) continue;
      if ((health & kShardHealthy) == 0) {
        // A placed copy is being skipped: that shard's view of this
        // stream is now incomplete until anti-entropy repair, so it must
        // not serve reads.
        state.Set(kShardStale);
        continue;
      }
      shards_of_stream[k].push_back(shard_index);
    }
    if (shards_of_stream[k].empty()) {
      return ErrorFrame(WireError::kNoHealthyShard,
                        "stream '" + std::string(name) +
                            "' has no healthy shard");
    }
    for (const size_t shard_index : shards_of_stream[k]) {
      SubBatch& sub = per_shard[shard_index];
      if (sub.local_index.empty()) {
        sub.batch.site_id = batch.site_id;
        sub.batch.sequence = batch.sequence;
        sub.local_index.assign(batch.stream_names.size(), kAbsent);
      }
      if (sub.local_index[k] == kAbsent) {
        sub.local_index[k] = sub.batch.stream_names.size();
        sub.batch.stream_names.emplace_back(name);
        // Backend tags travel with the stream entry so a fan-out never
        // silently strips the client's backend selection.
        sub.batch.stream_backends.push_back(batch.stream_backends[k]);
      }
    }
  }
  for (const Update& u : batch.updates) {
    for (const size_t shard_index : shards_of_stream[u.stream]) {
      SubBatch& sub = per_shard.at(shard_index);
      sub.batch.updates.push_back(
          Update{static_cast<StreamId>(sub.local_index[u.stream]), u.element,
                 u.delta});
    }
  }

  // Forward sequentially; all-or-RETRY. A partial fan-out is safe to
  // retry: shards that already applied this (site, sequence) re-ACK as
  // duplicates without re-applying. Partially-applied identities are
  // recorded in-doubt so transfers wait for the retry to land.
  bool all_duplicate = true;
  bool any_applied = false;
  for (auto& [shard_index, sub] : per_shard) {
    const SketchClient::Status status = WithShard(
        shard_index, [&sub](SketchClient& client) {
          return client.ForwardUpdates(sub.batch);
        });
    if (status.retry || !status.ok) {
      if (!status.retry && status.code == WireError::kConfigMismatch) {
        // A typed refusal (e.g. a backend retag on an existing stream)
        // is permanent: bouncing it as backpressure would have the
        // client retry forever. The shard itself is healthy — relay its
        // refusal verbatim instead of marking it stale.
        if (any_applied && !batch.site_id.empty()) {
          RecordInDoubt(batch.site_id, batch.sequence);
        }
        std::string detail = status.error;
        const std::string prefix =
            std::string(WireErrorName(WireError::kConfigMismatch)) + ": ";
        if (detail.rfind(prefix, 0) == 0) detail.erase(0, prefix.size());
        return ErrorFrame(WireError::kConfigMismatch, detail);
      }
      if (!status.retry) {
        ++counters_.forward_failures;
        // The shard just died mid-fan-out: its placed copies missed this
        // write. Surface as backpressure; the client's retry loop
        // re-pushes the same sequence and the dedup window dedupes the
        // survivors.
        shards_[shard_index]->Set(kShardStale);
      }
      ++counters_.push_bounces;
      if (any_applied && !batch.site_id.empty()) {
        RecordInDoubt(batch.site_id, batch.sequence);
      }
      return EncodeFrame(Opcode::kRetryLater, "");
    }
    any_applied = true;
    if (!status.duplicate) all_duplicate = false;
    ++counters_.subbatches_forwarded;
    counters_.updates_forwarded += sub.batch.updates.size();
  }
  ++counters_.pushes_forwarded;
  if (!batch.site_id.empty()) ClearInDoubt(batch.site_id, batch.sequence);
  return EncodeFrame(
      Opcode::kAck,
      EncodeAck(AckInfo{batch.updates.size(), false,
                        all_duplicate && !per_shard.empty() &&
                            !batch.site_id.empty()}));
}

QueryResultInfo ClusterRouter::Answer(const std::string& expression_text) {
  ++counters_.queries_answered;
  QueryResultInfo result;
  // The text memo hands back the parse, stream list and emptiness verdict;
  // a repeated text compiles nothing.
  const PlanCache::Compiled query = plan_cache_.Compile(expression_text);
  if (!query->ok()) {
    result.error = query->error;
    return result;
  }
  result.expression = query->display;
  if (query->provably_empty) {
    result.ok = true;  // Exactly zero for any data (single-node parity).
    return result;
  }
  const std::vector<std::string>& names = query->streams;

  MutexLock query_lock(&query_mutex_);
  // Route every stream to its current read target, then pull summaries
  // shard by shard — sending the cached (bank_id, epoch) so unchanged
  // streams come back as one state byte.
  bool degraded_any = false;
  std::map<size_t, std::vector<std::string>> names_by_shard;
  for (const std::string& name : names) {
    bool failover = false;
    bool degraded = false;
    const int target = ReadTargetIndex(name, &failover, &degraded);
    if (target < 0) {
      result.error = "stream '" + name + "' has no healthy shard";
      return result;
    }
    if (failover) ++counters_.failovers;
    if (degraded) degraded_any = true;
    names_by_shard[static_cast<size_t>(target)].push_back(name);
  }
  for (const auto& [shard_index, shard_names] : names_by_shard) {
    SummaryPullRequest request;
    request.streams.reserve(shard_names.size());
    for (const std::string& name : shard_names) {
      SummaryPullRequest::Key key;
      key.name = name;
      const auto it = pull_keys_.find(name);
      if (it != pull_keys_.end() && it->second.shard_index == shard_index) {
        key.bank_id = it->second.bank_id;
        key.epoch = it->second.epoch;
      }
      request.streams.push_back(std::move(key));
    }
    SummaryResult pulled;
    ++counters_.summary_pulls;
    const SketchClient::Status status = WithShard(
        shard_index, [this, &request, &pulled](SketchClient& client) {
          return client.PullSummaries(request, &coins_, &pulled);
        });
    if (!status.ok) {
      result.error = "shard '" +
                     shards_[shard_index]->shard.name +
                     "' summary pull failed: " + status.error;
      return result;
    }
    for (SummaryResult::Entry& entry : pulled.streams) {
      switch (entry.state) {
        case SummaryState::kUnknown:
          result.error = "unknown stream '" + entry.name + "'";
          return result;
        case SummaryState::kUnchanged: {
          const auto it = pull_keys_.find(entry.name);
          if (it == pull_keys_.end() ||
              it->second.shard_index != shard_index) {
            result.error = "shard '" + shards_[shard_index]->shard.name +
                           "' reported an unchanged summary we never "
                           "pulled for stream '" +
                           entry.name + "'";
            return result;
          }
          ++counters_.summary_streams_unchanged;
          break;
        }
        case SummaryState::kFull: {
          // The pull already refused a wrong copy count, foreign coins and
          // foreign backend options; the bank refuses a change of
          // synopsis type.
          std::string why;
          if (!federated_.InstallSummary(entry.name, std::move(entry.summary),
                                         &why)) {
            result.error = "stream '" + entry.name +
                           "' summary does not match this deployment: " +
                           why;
            return result;
          }
          pull_keys_[entry.name] =
              PullKey{shard_index, entry.bank_id, entry.epoch};
          ++counters_.summary_streams_full;
          break;
        }
      }
    }
  }

  QueryResultInfo answer =
      PlannedQueryResult(*query, plan_cache_.Query(*query, federated_));
  if (answer.ok && degraded_any) {
    answer.degraded = true;
    ++counters_.degraded_answers;
  }
  return answer;
}

std::string ClusterRouter::Explain(const std::string& text) const {
  // An expression reports every stream it touches; anything that fails to
  // parse is treated as one bare stream name (handy for scripts).
  // Compiled without the text memo, so EXPLAIN promotes nothing.
  const std::shared_ptr<const CompiledQuery> query = CompileQuery(text);
  const std::vector<std::string> names =
      query->ok() ? query->streams : std::vector<std::string>{text};
  std::ostringstream out;
  {
    MutexLock lock(&placement_mutex_);
    out << "placement ring replicas " << options_.replicas << "\n";
  }
  for (const std::string& name : names) {
    out << "stream " << name << " targets=";
    const std::vector<std::string> targets = WriteTargets(name);
    for (size_t k = 0; k < targets.size(); ++k) {
      if (k > 0) out << ",";
      out << targets[k];
    }
    const std::string read = ReadTarget(name);
    out << " read=" << (read.empty() ? "-" : read) << "\n";
  }
  if (query->ok()) {
    MutexLock query_lock(&query_mutex_);
    out << plan_cache_.Explain(*query, federated_);
  }
  return out.str();
}

size_t ClusterRouter::ProbeAll() {
  size_t healthy = 0;
  const size_t n = num_shards_.load();
  std::vector<size_t> to_repair;
  for (size_t i = 0; i < n; ++i) {
    ShardState* state = shards_[i].get();
    if (state->Has(kShardRemoved)) continue;
    ++counters_.probes;
    const SketchClient::Status status =
        WithShard(i, [](SketchClient& client) { return client.Ping(); });
    if (status.ok) {
      ++healthy;
      if (state->Has(kShardStale) && options_.auto_repair) {
        to_repair.push_back(i);
      }
    }
  }
  // A stale shard that answers again is repaired and re-admitted in
  // place — no router restart.
  for (const size_t i : to_repair) {
    MutexLock admin(&membership_mutex_);
    RepairShardLocked(i, nullptr);
  }
  return healthy;
}

void ClusterRouter::ProbeLoop() {
  // The lock is taken per iteration (instead of held across the loop with
  // unlock/lock around the probe sweep) so the thread-safety analysis can
  // see every acquire/release pair. Stop() notifies without the lock
  // held; since the wait is timed, a missed notify only delays exit by
  // one probe interval.
  while (!host_.draining()) {
    {
      MutexLock lock(&probe_mutex_);
      if (!host_.draining()) {
        probe_cv_.wait_for(
            probe_mutex_,
            std::chrono::milliseconds(options_.probe_interval_ms));
      }
    }
    if (host_.draining()) break;
    const auto now = std::chrono::steady_clock::now();
    const size_t n = num_shards_.load();
    std::vector<size_t> to_repair;
    for (size_t i = 0; i < n; ++i) {
      ShardState* state = shards_[i].get();
      if (state->Has(kShardRefused) || state->Has(kShardRemoved)) continue;
      // Capped-exponential backoff per failing shard: a dead shard is
      // redialed at widening intervals instead of every tick.
      if (now < state->next_probe_at) continue;
      ++counters_.probes;
      bool up;
      {
        MutexLock lock(&state->mutex);
        up = ProbeLocked(state);
      }
      if (up) {
        // Success heals immediately; only failures are damped.
        state->probe_failures = 0;
        state->next_probe_at = now;
        state->Set(kShardHealthy);
        if (state->Has(kShardStale) && options_.auto_repair) {
          to_repair.push_back(i);
        }
      } else {
        ++state->failures;
        ++state->probe_failures;
        // Flap damping: N consecutive probe failures before the healthy
        // bit drops, so one lost ping cannot evict a loaded shard.
        if (state->probe_failures >= static_cast<uint64_t>(std::max(
                                         options_.probe_flap_threshold,
                                         1))) {
          state->ClearBit(kShardHealthy);
        }
        state->next_probe_at =
            now + std::chrono::microseconds(
                      state->probe_backoff.NextDelayMicros(
                          static_cast<int>(std::min<uint64_t>(
                              state->probe_failures, 21))));
      }
    }
    for (const size_t i : to_repair) {
      if (host_.draining()) break;
      MutexLock admin(&membership_mutex_);
      RepairShardLocked(i, nullptr);
    }
  }
}

bool ClusterRouter::RepairShard(const std::string& name,
                                std::string* error) {
  size_t index = SIZE_MAX;
  {
    MutexLock lock(&placement_mutex_);
    const auto it = shard_index_by_name_.find(name);
    if (it != shard_index_by_name_.end()) index = it->second;
  }
  if (index == SIZE_MAX) {
    if (error != nullptr) *error = "unknown shard '" + name + "'";
    return false;
  }
  MutexLock admin(&membership_mutex_);
  return RepairShardLocked(index, error);
}

bool ClusterRouter::RepairShardLocked(size_t target_index,
                                      std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "repair of shard '" + shards_[target_index]->shard.name +
               "' failed: " + what;
    }
    return false;
  };
  ShardState* state = shards_[target_index].get();
  if (state->Has(kShardRefused)) return fail("refused (CONFIG_MISMATCH)");
  if (state->Has(kShardRemoved)) return fail("removed from membership");
  if (!state->Has(kShardStale)) return true;  // Nothing to repair.

  // A repair is the transfer with the placement unchanged; it dials every
  // member, this shard included, before anything moves.
  std::unique_ptr<HashRing> current;
  {
    MutexLock lock(&placement_mutex_);
    current = std::make_unique<HashRing>(placement_);
  }
  std::string why;
  if (!TransferLocked(*current, nullptr, &why)) return fail(why);
  if (state->Has(kShardStale)) {
    return fail("a placed stream has no complete source");
  }
  return true;
}

bool ClusterRouter::TransferLocked(const HashRing& next,
                                   uint64_t* streams_moved,
                                   std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };

  // Every member the next placement keeps must answer: one that does not
  // may hold the only copy of a stream no other manifest names, which a
  // flip would orphan and a repair would re-admit a shard without. Only a
  // shard the next placement drops may be dead (its streams are read
  // from replicas). Members are dialled before the gate is taken, so a
  // dead one fails the transfer without stalling pushes.
  const size_t n = num_shards_.load();
  const auto member = [this](size_t i) {
    return !shards_[i]->Has(kShardRefused) && !shards_[i]->Has(kShardRemoved);
  };
  const auto leaving = [this, &next](size_t i) {
    return std::find(next.nodes().begin(), next.nodes().end(),
                     shards_[i]->shard.name) == next.nodes().end();
  };
  for (size_t i = 0; i < n; ++i) {
    if (!member(i) || leaving(i)) continue;
    const SketchClient::Status ping =
        WithShard(i, [](SketchClient& client) { return client.Ping(); });
    if (!ping.ok) {
      return fail("shard '" + shards_[i]->shard.name +
                  "' unreachable: " + ping.error);
    }
  }

  // Quiesce: wait out in-doubt pushes with the gate open (their retries
  // need it), then hold it until the flip. The in-doubt set only changes
  // under a shared hold, so it is re-checked once the gate is ours.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.transfer_quiesce_timeout_ms);
  std::optional<ExclusiveGate> gate;
  while (!gate) {
    {
      MutexLock lock(&in_doubt_mutex_);
      while (!in_doubt_.empty()) {
        if (in_doubt_cv_.wait_until(in_doubt_mutex_, deadline) ==
                std::cv_status::timeout &&
            !in_doubt_.empty()) {
          return fail(std::to_string(in_doubt_.size()) +
                      " in-doubt write(s) still awaiting client retry");
        }
      }
    }
    gate.emplace(&write_gate_);
    MutexLock lock(&in_doubt_mutex_);
    if (!in_doubt_.empty()) gate.reset();
  }

  // Every member's manifest, read under the gate: no stream can be born
  // between this read and the flip.
  std::unordered_map<size_t, RepairManifest> manifests;
  std::unordered_map<size_t, std::unordered_set<std::string>> holds;
  std::set<std::string> streams;
  for (size_t i = 0; i < n; ++i) {
    if (!member(i)) continue;
    RepairManifest manifest;
    const SketchClient::Status status = WithShard(
        i, [&manifest](SketchClient& client) {
          return client.PullRepair(&manifest);
        });
    if (!status.ok) {
      if (leaving(i)) continue;
      return fail("shard '" + shards_[i]->shard.name +
                  "' manifest pull failed: " + status.error);
    }
    for (const RepairManifest::StreamInfo& info : manifest.streams) {
      holds[i].insert(info.name);
      streams.insert(info.name);
    }
    manifests.emplace(i, std::move(manifest));
  }

  // Diff: destination -> source -> streams. A shard holds a stream
  // completely when it is placed for it now, is not stale and holds it;
  // the first such shard in placement order is the stream's one source.
  // `incomplete` collects placed shards left without a stream nobody
  // holds completely; they stay (or become) stale.
  std::map<size_t, std::map<size_t, std::vector<std::string>>> plan;
  std::unordered_set<size_t> incomplete;
  {
    MutexLock lock(&placement_mutex_);
    for (const std::string& stream : streams) {
      const std::vector<size_t> now = PlacedIndices(placement_, stream);
      const auto complete = [&](size_t i) {
        return std::find(now.begin(), now.end(), i) != now.end() &&
               !shards_[i]->Has(kShardStale) && holds[i].contains(stream);
      };
      const auto source = std::find_if(now.begin(), now.end(), complete);
      for (const size_t destination : PlacedIndices(next, stream)) {
        if (complete(destination)) continue;
        if (source != now.end()) {
          plan[destination][*source].push_back(stream);
        } else if (std::find(now.begin(), now.end(), destination) ==
                   now.end()) {
          return fail("shard '" + shards_[destination]->shard.name +
                      "' cannot receive stream '" + stream +
                      "': no complete source");
        } else if (!holds[destination].contains(stream)) {
          // Nothing fresher exists than a copy a shard holds itself.
          incomplete.insert(destination);
        }
      }
    }
  }

  // Install, then verify against a re-pulled manifest.
  std::unordered_set<std::string> moved;
  for (const auto& [destination, by_source] : plan) {
    const std::string& name = shards_[destination]->shard.name;
    RepairInstall install;
    // A stale (or joining) shard's state is what the install replaces,
    // so are its windows: they may cover batches the install clobbers,
    // and keeping them would drop a client retry forever. A complete
    // member's windows cover batches it really holds, so it merges.
    install.replace_dedup = shards_[destination]->Has(kShardStale);
    DedupIndex windows;
    for (const auto& [source, names] : by_source) {
      FoldSiteWindows(manifests.at(source).sites, &windows);
      SummaryPullRequest request;
      for (const std::string& stream : names) {
        request.streams.push_back(SummaryPullRequest::Key{stream, 0, 0});
      }
      SummaryResult pulled;
      ++counters_.summary_pulls;
      const SketchClient::Status status = WithShard(
          source, [this, &request, &pulled](SketchClient& client) {
            return client.PullSummaries(request, &coins_, &pulled);
          });
      if (!status.ok) {
        return fail("shard '" + shards_[source]->shard.name +
                    "' transfer pull failed: " + status.error);
      }
      for (SummaryResult::Entry& entry : pulled.streams) {
        if (entry.state != SummaryState::kFull) {
          return fail("shard '" + shards_[source]->shard.name +
                      "' no longer holds stream '" + entry.name + "'");
        }
        ++counters_.summary_streams_full;
        moved.insert(entry.name);
        install.streams.push_back(RepairInstall::StreamState{
            std::move(entry.name), std::move(entry.summary)});
      }
    }
    install.sites = SiteWindows(windows);
    const SketchClient::Status pushed = WithShard(
        destination, [&install](SketchClient& client) {
          return client.PushRepair(install);
        });
    if (!pushed.ok) {
      return fail("PUSH_REPAIR to shard '" + name +
                  "' failed: " + pushed.error);
    }
    ++counters_.repairs;

    RepairManifest after;
    const SketchClient::Status verify = WithShard(
        destination,
        [&after](SketchClient& client) { return client.PullRepair(&after); });
    if (!verify.ok) {
      return fail("verification pull from shard '" + name +
                  "' failed: " + verify.error);
    }
    std::unordered_set<std::string> after_has;
    for (const RepairManifest::StreamInfo& info : after.streams) {
      after_has.insert(info.name);
    }
    for (const RepairInstall::StreamState& stream : install.streams) {
      if (!after_has.contains(stream.name)) {
        return fail("stream '" + stream.name +
                    "' missing on shard '" + name + "' after install");
      }
    }
    DedupIndex after_windows;
    FoldSiteWindows(after.sites, &after_windows);
    std::string stuck_site;
    if (!after_windows.Covers(windows, &stuck_site)) {
      return fail("site '" + stuck_site + "' watermark did not converge on "
                  "shard '" + name + "'");
    }
  }

  // Flip, and re-admit every stale shard the transfer completed, before
  // the gate is released.
  {
    MutexLock lock(&placement_mutex_);
    placement_ = next;
  }
  for (const auto& [index, manifest] : manifests) {
    ShardState* state = shards_[index].get();
    if (incomplete.contains(index)) {
      state->Set(kShardStale);
    } else if (state->Has(kShardStale)) {
      state->ClearBit(kShardStale);
      ++counters_.readmissions;
    }
  }
  if (streams_moved != nullptr) *streams_moved = moved.size();
  return true;
}

bool ClusterRouter::AddShard(const ClusterShard& shard_in,
                             uint64_t* streams_moved, std::string* error) {
  if (streams_moved != nullptr) *streams_moved = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  MutexLock admin(&membership_mutex_);

  ClusterShard shard = shard_in;
  if (shard.name.empty()) {
    shard.name = shard.host + ":" + std::to_string(shard.port);
  }
  std::unique_ptr<HashRing> next;
  {
    MutexLock lock(&placement_mutex_);
    if (shard_index_by_name_.contains(shard.name)) {
      return fail("shard '" + shard.name + "' is already a member");
    }
    next = std::make_unique<HashRing>(placement_);
  }
  next->AddNode(shard.name);
  // Tombstone reuse: a drained slot is revived in place (same ShardState
  // object, so lock-free readers keep a valid pointer) instead of
  // appending, so repeated add/drain cycles never grow the shard index
  // vector or exhaust the reserved capacity.
  size_t reuse_index = SIZE_MAX;
  for (size_t i = 0; i < num_shards_.load(); ++i) {
    if (shards_[i]->Has(kShardRemoved)) {
      reuse_index = i;
      break;
    }
  }
  if (reuse_index == SIZE_MAX && num_shards_.load() >= shards_.capacity()) {
    return fail("shard capacity exhausted (raise max_dynamic_shards)");
  }

  // Vet the candidate on a slot of its own BEFORE announcing it: dial,
  // handshake and the config gate.
  auto candidate = std::make_unique<ShardState>(
      shard, options_.probe_backoff_initial_ms,
      options_.probe_backoff_cap_ms);
  {
    MutexLock lock(&candidate->mutex);
    if (!EnsureClientLocked(candidate.get())) {
      return fail("shard '" + shard.name + "' " +
                  (candidate->Has(kShardRefused)
                       ? "refused: CONFIG_MISMATCH against the "
                         "deployment's stored coins"
                       : "unreachable"));
    }
  }

  // Announce the shard: routable by index but off the ring, and stale, so
  // the transfer fills every stream the next ring places on it and
  // replaces whatever an earlier membership left there.
  candidate->Set(kShardStale);
  const size_t new_index =
      reuse_index != SIZE_MAX ? reuse_index : num_shards_.load();
  if (reuse_index != SIZE_MAX) {
    // Revive the tombstoned slot in place. The slot has been removed
    // since its drain, so no push/query path is using its client; probe
    // scheduling state resets with it. The health word flips last, after
    // the new identity is fully installed.
    ShardState* revived = shards_[new_index].get();
    {
      MutexLock lock(&revived->mutex);
      MutexLock candidate_lock(&candidate->mutex);
      revived->shard = shard;
      revived->client = std::move(candidate->client);
    }
    revived->failures.store(0);
    revived->probe_failures = 0;
    revived->next_probe_at = {};
    revived->probe_backoff = candidate->probe_backoff;
    revived->health.store(candidate->health.load());
  } else {
    shards_.push_back(std::move(candidate));
  }
  {
    MutexLock lock(&placement_mutex_);
    shard_index_by_name_.emplace(shard.name, new_index);
  }
  if (reuse_index == SIZE_MAX) num_shards_.store(new_index + 1);

  std::string why;
  if (!TransferLocked(*next, streams_moved, &why)) {
    {
      MutexLock lock(&placement_mutex_);
      shard_index_by_name_.erase(shard.name);
    }
    shards_[new_index]->health.store(kShardRemoved);
    return fail("migration to shard '" + shard.name + "' failed: " + why);
  }
  return true;
}

bool ClusterRouter::DrainShard(const std::string& name_in,
                               uint64_t* streams_moved, std::string* error) {
  if (streams_moved != nullptr) *streams_moved = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  MutexLock admin(&membership_mutex_);

  size_t drain_index = SIZE_MAX;
  std::unique_ptr<HashRing> next;
  {
    MutexLock lock(&placement_mutex_);
    const auto it = shard_index_by_name_.find(name_in);
    if (it == shard_index_by_name_.end()) {
      return fail("unknown shard '" + name_in + "'");
    }
    drain_index = it->second;
    if (placement_.nodes().size() < 2) {
      return fail("cannot drain the last shard");
    }
    next = std::make_unique<HashRing>(placement_);
  }
  next->RemoveNode(name_in);

  // The drained shard may be dead: its streams still live on replicas,
  // which the transfer reads like any other source.
  std::string why;
  if (!TransferLocked(*next, streams_moved, &why)) {
    return fail("drain of shard '" + name_in + "' failed: " + why);
  }
  // Off the ring since the flip; tombstone the slot.
  {
    MutexLock lock(&placement_mutex_);
    shard_index_by_name_.erase(name_in);
  }
  shards_[drain_index]->Set(kShardRemoved);
  return true;
}

namespace {

/// Pulls the "ingest_*" lines out of a shard's STATS text and reflows
/// them as " key=value" pairs for the router's one-line-per-shard report.
std::string ExtractIngestStats(const std::string& stats_text) {
  std::string out;
  size_t begin = 0;
  while (begin < stats_text.size()) {
    size_t end = stats_text.find('\n', begin);
    if (end == std::string::npos) end = stats_text.size();
    const std::string_view line(stats_text.data() + begin, end - begin);
    if (line.substr(0, 7) == "ingest_") {
      const size_t space = line.find(' ');
      if (space != std::string_view::npos) {
        out += ' ';
        out += line.substr(0, space);
        out += '=';
        out += line.substr(space + 1);
      }
    }
    begin = end + 1;
  }
  return out;
}

}  // namespace

std::string ClusterRouter::RenderStats() {
  const StatsSnapshot s = stats();
  std::string out;
  SETSKETCH_STAT_RENDER(SETSKETCH_ROUTER_STATS)
  std::ostringstream shard_lines;
  const size_t n = num_shards_.load();
  for (size_t i = 0; i < n; ++i) {
    ShardState* state = shards_[i].get();
    const uint32_t health = state->health.load();
    // Healthy shards also report their ingest-path counters (bytes per
    // read batch, arena high-watermark), so one router STATS shows where
    // ingest hot spots sit across the deployment. Dead, refused or
    // removed shards are skipped rather than dialed — STATS must not
    // block on them.
    std::string ingest;
    if ((health & kShardHealthy) != 0 &&
        (health & (kShardRefused | kShardRemoved)) == 0) {
      std::string text;
      const SketchClient::Status status = WithShard(
          i, [&text](SketchClient& client) { return client.Stats(&text); });
      if (status.ok) ingest = ExtractIngestStats(text);
    }
    shard_lines << "shard " << state->shard.name
                << " host=" << state->shard.host
                << " port=" << state->shard.port
                << " healthy=" << ((health & kShardHealthy) != 0 ? 1 : 0)
                << " refused=" << ((health & kShardRefused) != 0 ? 1 : 0)
                << " stale=" << ((health & kShardStale) != 0 ? 1 : 0)
                << " removed=" << ((health & kShardRemoved) != 0 ? 1 : 0)
                << " failures=" << state->failures.load() << ingest << "\n";
  }
  return out + shard_lines.str();
}

ClusterRouter::StatsSnapshot ClusterRouter::stats() const {
  StatsSnapshot s;
  const size_t n = num_shards_.load();
  s.shards = n;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t health = shards_[i]->health.load();
    if ((health & kShardRemoved) != 0) {
      ++s.removed_shards;
      continue;
    }
    if ((health & kShardRefused) != 0) {
      ++s.refused_shards;
    } else if ((health & kShardHealthy) != 0) {
      ++s.healthy_shards;
    }
    if ((health & kShardStale) != 0) ++s.stale_shards;
  }
  s.replicas = options_.replicas;
  s.placement = "ring";
  s.read_policy =
      options_.read_policy == ReadPolicy::kAvailable ? "available" : "strict";
  host_.LoadFrontDoor(&s);
  SETSKETCH_STAT_LOAD(SETSKETCH_ROUTER_STATS)
  s.uptime_ms = host_.uptime_ms();
  return s;
}

void ClusterRouter::Stop() {
  // Stop accepting, then close every connection and join its thread.
  if (!host_.StopServing()) return;
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  host_.FinishStop();
}

void ClusterRouter::Wait() {
  host_.WaitForShutdown();
  Stop();
}

}  // namespace setsketch
