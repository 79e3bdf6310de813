#include "server/sketch_server.h"

#include <limits>

#include "query/stream_engine.h"
#include "util/check.h"

namespace setsketch {

namespace {

/// Applies one resolved group to copies [begin, end) of its column, or —
/// for an alternative-backend group — to the whole synopsis when
/// `owns_backend`.
void ApplyGroup(const StreamBatch& group, int begin, int end,
                bool owns_backend) {
  if (group.column == nullptr) {
    if (owns_backend) group.backend_sketch->UpdateBatch(group.items);
    return;
  }
  for (int i = begin; i < end; ++i) {
    (*group.column)[static_cast<size_t>(i)].UpdateBatch(group.items);
  }
}

}  // namespace

SketchServer::SketchServer(const Options& options)
    : options_(options),
      // Start refuses an invalid shape; until then the bank and the
      // coordinator hold the default one, so construction never aborts.
      bank_(ConstructibleConfig(options)),
      coordinator_(bank_.family().params(), bank_.num_copies(),
                   bank_.family().master_seed()),
      plan_cache_(PlanCache::Options{options.witness}) {
  if (options_.shards < 1) options_.shards = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
}

SketchServer::~SketchServer() { Stop(); }

bool SketchServer::Start(std::string* error) {
  if (!options_.Validate(error)) return false;
  // Recover persisted state BEFORE opening the listen socket: no client
  // can observe (or push into) a partially restored server.
  if (!options_.wal_dir.empty() && !RecoverAndOpenWal(error)) return false;
  if (!host_.Listen(options_, error)) return false;

  EpollServerBackend::Options backend_options;
  backend_options.io_threads = options_.io_threads;
  backend_options.read_chunk_bytes = options_.read_chunk_bytes;
  backend_options.idle_timeout_ms = options_.idle_timeout_ms;
  // io threads pin after the shard workers (worker t -> cpu t).
  backend_options.pin_cpu_offset = options_.pin_shards ? options_.shards : -1;
  epoll_backend_ = std::make_unique<EpollServerBackend>(backend_options,
                                                        &host_);
  if (!epoll_backend_->Start(error)) return false;

  queues_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    queues_.push_back(std::make_unique<ShardQueue>(options_.queue_capacity));
  }
  workers_.reserve(queues_.size());
  for (int i = 0; i < options_.shards; ++i) {
    workers_.emplace_back(&SketchServer::WorkerLoop, this, i);
  }
  host_.Serve(epoll_backend_.get());
  return true;
}

std::string SketchServer::HandleFrame(const FrameView& frame,
                                      Connection* connection) {
  const std::string_view payload = frame.payload;
  switch (frame.opcode) {
    case Opcode::kPing: {
      // A hello-carrying ping gets this server's own configuration back
      // (the cluster handshake); any other payload echoes, so plain
      // liveness pings are unaffected.
      HelloInfo hello;
      if (DecodeHello(std::string(payload), /*response=*/false, &hello)) {
        return EncodeFrame(
            Opcode::kPong,
            EncodeHello(HelloInfo{kFeatureSummaryPull | kFeatureRepair,
                                  options_},
                        /*response=*/true));
      }
      return EncodeFrame(Opcode::kPong, payload);
    }
    case Opcode::kPushUpdates:
      return HandlePushUpdates(payload, connection);
    case Opcode::kPushSummary:
      return HandlePushSummary(payload, connection);
    case Opcode::kPullSummary:
      return HandlePullSummary(payload, connection);
    case Opcode::kPullRepair:
      return EncodeFrame(Opcode::kRepairState,
                         EncodeRepairManifest(PullRepairManifest()));
    case Opcode::kPushRepair:
      return HandlePushRepair(payload, connection);
    case Opcode::kQuery:
      return EncodeFrame(Opcode::kQueryResult,
                         EncodeQueryResult(Answer(std::string(payload))));
    case Opcode::kStats:
      return EncodeFrame(Opcode::kStatsResult, RenderStats());
    case Opcode::kExplain:
      return EncodeFrame(Opcode::kExplainResult,
                         Explain(std::string(payload)));
    default:
      return host_.Refuse(connection, WireError::kUnknownOpcode,
                          std::string("unexpected opcode ") +
                              OpcodeName(frame.opcode));
  }
}

void SketchServer::OnReadBatch(size_t bytes, size_t frames,
                               size_t arena_high_watermark) {
  counters_.ingest_bytes_read += bytes;
  ++counters_.ingest_read_calls;
  const auto raise = [](std::atomic<uint64_t>* peak, uint64_t value) {
    uint64_t seen = peak->load(std::memory_order_relaxed);
    while (value > seen && !peak->compare_exchange_weak(seen, value)) {
    }
  };
  raise(&counters_.ingest_max_frames_per_read, frames);
  raise(&counters_.ingest_arena_hwm_bytes, arena_high_watermark);
}

std::shared_ptr<IngestBatch> SketchServer::ResolveBatchLocked(
    const std::vector<std::string_view>& stream_names,
    const std::vector<uint8_t>& stream_backends,
    const std::vector<Update>& updates, std::string* conflict) {
  const auto tag_of = [&stream_backends](size_t i) {
    return i < stream_backends.size() ? stream_backends[i] : uint8_t{0};
  };
  std::vector<StreamId> global_ids;
  global_ids.reserve(stream_names.size());
  // Backend conflicts are detected for EVERY named stream before any
  // stream is registered or any epoch bumped: a refused batch must leave
  // no trace (it is never WAL-logged, so recovery must not need it).
  for (size_t i = 0; i < stream_names.size(); ++i) {
    const std::string_view name = stream_names[i];
    const uint8_t tag = tag_of(i);
    if (tag == 0) continue;
    auto it = ids_.find(name);
    if (it == ids_.end()) continue;
    const SketchBackendId actual = bank_.StreamBackend(it->first);
    if (actual != static_cast<SketchBackendId>(tag)) {
      *conflict =
          "stream '" + std::string(name) + "' already uses the " +
          std::string(SketchBackendName(actual)) + " backend; refusing " +
          std::string(SketchBackendName(static_cast<SketchBackendId>(tag))) +
          " updates";
      return nullptr;
    }
  }
  for (size_t i = 0; i < stream_names.size(); ++i) {
    const std::string_view name = stream_names[i];
    auto it = ids_.find(name);
    if (it == ids_.end()) {
      // First sight of this stream: the only point where a name view is
      // materialized into owned storage. A nonzero backend tag selects
      // the stream's synopsis type here, once, forever.
      const uint8_t tag = tag_of(i);
      const SketchBackendId backend =
          tag != 0 ? static_cast<SketchBackendId>(tag)
                   : options_.default_backend;
      const StreamId id = static_cast<StreamId>(names_by_id_.size());
      std::string owned(name);
      bank_.AddStreamWithBackend(owned, backend, bank_.backend_options());
      names_by_id_.push_back(owned);
      it = ids_.emplace(std::move(owned), id).first;
    }
    global_ids.push_back(it->second);
  }
  // Group by (batch-local) stream id once; the decoder guarantees
  // u.stream < stream_names.size(). Shard workers then apply each group
  // through the batched kernel without any per-update resolution; backend
  // groups carry the single DistinctSketch instead of a copy column and
  // are applied whole by shard worker 0.
  auto resolved = std::make_shared<IngestBatch>();
  std::vector<int> group_of(global_ids.size(), -1);
  for (const Update& u : updates) {
    int& g = group_of[u.stream];
    if (g < 0) {
      g = static_cast<int>(resolved->groups.size());
      const std::string& name = names_by_id_[global_ids[u.stream]];
      StreamBatch group;
      if (bank_.StreamBackend(name) == SketchBackendId::kTwoLevelHash) {
        group.column = bank_.MutableSketches(name);
      } else {
        group.backend_sketch = bank_.MutableBackendSketch(name);
      }
      resolved->groups.push_back(std::move(group));
    }
    resolved->groups[static_cast<size_t>(g)].items.push_back(
        ElementDelta{u.element, u.delta});
  }
  resolved->num_updates = updates.size();
  return resolved;
}

std::string SketchServer::HandlePushUpdates(std::string_view payload,
                                            Connection* connection) {
  // Zero-copy decode: site id and stream names stay views into the
  // connection arena, update triples decode through bulk varint runs.
  // thread_local keeps the vectors' capacity warm across the io
  // thread's frames.
  // Per-frame scratch: the stale views are fully overwritten by
  // DecodePushUpdates before any read. analyze-ok: arena-escape
  thread_local UpdateBatchView batch;
  std::string decode_error;
  if (!DecodePushUpdates(payload, &batch, &decode_error)) {
    return host_.Refuse(connection, WireError::kBadPayload, decode_error);
  }
  return AdmitPush(batch.site_id, batch.sequence, batch.stream_names,
                   batch.stream_backends, batch.updates, payload);
}

std::string SketchServer::AdmitPush(
    std::string_view site_id, uint64_t sequence,
    const std::vector<std::string_view>& stream_names,
    const std::vector<uint8_t>& stream_backends,
    const std::vector<Update>& updates, std::string_view raw_payload) {
  if (host_.draining()) {
    return ErrorFrame(WireError::kShuttingDown, "server is draining");
  }
  const uint64_t num_updates = updates.size();
  {
    MutexLock lock(&push_mutex_);
    if (host_.draining()) {
      return ErrorFrame(WireError::kShuttingDown, "server is draining");
    }
    // Exactly-once admission: the seen-check, the durable append and the
    // enqueue are one atomic step under push_mutex_, so two connections
    // retransmitting the same (site, sequence) cannot both apply it.
    if (!site_id.empty() && dedup_.Seen(site_id, sequence)) {
      ++counters_.duplicates_dropped;
      return EncodeFrame(Opcode::kAck,
                         EncodeAck(AckInfo{num_updates, false, true}));
    }
    bool all_accept = true;
    for (const auto& queue : queues_) {
      if (!queue->CanAccept()) {
        queue->CountRejected();
        all_accept = false;
      }
    }
    if (!all_accept) {
      // Backpressure is a frame, not a blocked socket: the client owns
      // the retry policy. Nothing was applied or recorded: the retry is
      // a fresh admission attempt, not a duplicate.
      ++counters_.batches_rejected;
      return EncodeFrame(Opcode::kRetryLater, "");
    }
    // Resolve inside the push_mutex_ critical section: ResolveBatchLocked
    // bumps the touched streams' ingest epochs (MutableSketches), and
    // queries read epochs + counters under push_mutex_ with drained
    // queues. Keeping the bump and the enqueue atomic w.r.t. queries
    // means no query can observe a post-batch epoch over pre-batch
    // counters — which the plan cache would otherwise memoize as a stale
    // answer for the entire post-batch epoch. Resolving after the
    // dedup/backpressure gates also keeps rejected batches from bumping
    // epochs or registering streams.
    std::shared_ptr<IngestBatch> resolved;
    std::string conflict;
    {
      MutexLock registry_lock(&registry_mutex_);
      resolved =
          ResolveBatchLocked(stream_names, stream_backends, updates, &conflict);
    }
    if (resolved == nullptr) {
      // Backend-tag conflict: refused before the WAL append and before
      // any stream registration, exactly like a stored-coins mismatch —
      // mixed-backend counters must never merge.
      ++counters_.batches_rejected;
      return ErrorFrame(WireError::kConfigMismatch, conflict);
    }
    if (wal_ != nullptr) {
      // Durability before acknowledgment: the raw payload hits fsync'd
      // storage before the client can learn the batch was accepted.
      std::string wal_error;
      if (!wal_->Append(site_id, sequence, raw_payload, &wal_error)) {
        return ErrorFrame(WireError::kWalFailure, wal_error);
      }
    }
    if (!site_id.empty()) dedup_.Record(site_id, sequence);
    for (const auto& queue : queues_) queue->Push(resolved);
    ++counters_.batches_accepted;
    counters_.updates_enqueued += num_updates;
    persisted_updates_ += static_cast<int64_t>(num_updates);
    MaybeCompactLocked();
  }
  return EncodeFrame(Opcode::kAck,
                     EncodeAck(AckInfo{num_updates, false, false}));
}

std::string SketchServer::HandlePushSummary(std::string_view payload,
                                            Connection* connection) {
  if (host_.draining()) {
    return ErrorFrame(WireError::kShuttingDown, "server is draining");
  }
  Coordinator::IngestResult result;
  {
    MutexLock lock(&coordinator_mutex_);
    result = coordinator_.AddSiteSummary(std::string(payload));
  }
  if (!result.ok) {
    ++counters_.summaries_rejected;
    return host_.Refuse(connection, WireError::kRejectedSummary,
                        result.error);
  }
  ++counters_.summaries_accepted;
  return EncodeFrame(
      Opcode::kAck,
      EncodeAck(AckInfo{static_cast<uint64_t>(result.streams_merged),
                        result.replaced}));
}

std::string SketchServer::HandlePullSummary(std::string_view payload,
                                            Connection* connection) {
  SummaryPullRequest request;
  std::string decode_error;
  if (!DecodeSummaryPull(std::string(payload), &request, &decode_error)) {
    return host_.Refuse(connection, WireError::kBadPayload, decode_error);
  }
  return EncodeFrame(Opcode::kSummaryResult,
                     EncodeSummaryResult(PullSummaries(request)));
}

SummaryResult SketchServer::PullSummaries(const SummaryPullRequest& request) {
  ++counters_.summary_pulls;
  SummaryResult result;
  result.streams.reserve(request.streams.size());
  // Same quiesce as Answer: with the queues drained under push_mutex_,
  // the bank reflects exactly the ACKed batches, and the epochs read here
  // cannot race an in-flight admission.
  MutexLock push_lock(&push_mutex_);
  for (const auto& queue : queues_) queue->WaitDrained();
  MutexLock registry_lock(&registry_mutex_);
  for (const SummaryPullRequest::Key& key : request.streams) {
    SummaryResult::Entry entry;
    entry.name = key.name;
    if (!bank_.HasStream(key.name)) {
      entry.state = SummaryState::kUnknown;
    } else if (key.bank_id == bank_.bank_id() &&
               key.epoch == bank_.StreamEpoch(key.name)) {
      entry.state = SummaryState::kUnchanged;
    } else {
      entry.state = SummaryState::kFull;
      entry.bank_id = bank_.bank_id();
      entry.epoch = bank_.StreamEpoch(key.name);
      // The quiesce makes the copy a consistent post-ACK snapshot, and
      // the copy keeps it immutable once the locks drop.
      entry.summary = bank_.Summary(key.name);
    }
    result.streams.push_back(std::move(entry));
  }
  return result;
}

RepairManifest SketchServer::PullRepairManifest() {
  ++counters_.repair_pulls;
  RepairManifest manifest;
  // Same quiesce as PullSummaries, so the stream identities and the dedup
  // watermarks describe one consistent post-ACK state.
  MutexLock push_lock(&push_mutex_);
  for (const auto& queue : queues_) queue->WaitDrained();
  {
    MutexLock registry_lock(&registry_mutex_);
    manifest.streams.reserve(names_by_id_.size());
    for (const std::string& name : names_by_id_) {
      manifest.streams.push_back(RepairManifest::StreamInfo{
          name, bank_.bank_id(), bank_.StreamEpoch(name)});
    }
  }
  manifest.sites = SiteWindows(dedup_);
  return manifest;
}

bool SketchServer::InstallRepair(const RepairInstall& install,
                                 uint64_t* installed, WireError* code,
                                 std::string* error) {
  *installed = 0;
  MutexLock push_lock(&push_mutex_);
  for (const auto& queue : queues_) queue->WaitDrained();
  {
    MutexLock registry_lock(&registry_mutex_);
    // Validate every carried summary before touching the bank: the
    // install must be all-or-nothing, or a half-applied repair could be
    // re-admitted as converged.
    for (const RepairInstall::StreamState& stream : install.streams) {
      std::string why;
      if (!bank_.CanInstallSummary(stream.name, stream.summary, &why)) {
        *code = WireError::kConfigMismatch;
        *error = "stream '" + stream.name + "' " + why;
        return false;
      }
    }
    for (const RepairInstall::StreamState& stream : install.streams) {
      SETSKETCH_CHECK(bank_.InstallSummary(stream.name, stream.summary))
          << "validated repair summary failed to install for stream "
          << stream.name;
      if (!ids_.contains(stream.name)) {
        ids_.emplace(stream.name,
                     static_cast<StreamId>(names_by_id_.size()));
        names_by_id_.push_back(stream.name);
      }
    }
  }
  // Crash repair replaces the dedup index wholesale: this server's own
  // windows may cover batches the snapshot install just clobbered, and
  // keeping them would drop a client retry of such a batch forever.
  // Migration merges instead — the destination's windows cover batches
  // it really holds.
  if (install.replace_dedup) dedup_.Clear();
  FoldSiteWindows(install.sites, &dedup_);
  if (wal_ != nullptr && !CheckpointNowLocked()) {
    // Without a covering checkpoint a post-repair crash would recover the
    // pre-repair WAL tail; refuse so the router keeps the shard stale.
    *code = WireError::kWalFailure;
    *error = "repair installed but checkpointing it failed";
    return false;
  }
  ++counters_.repair_installs;
  *installed = install.streams.size();
  return true;
}

std::string SketchServer::HandlePushRepair(std::string_view payload,
                                           Connection* connection) {
  RepairInstall install;
  std::string error;
  bool decoded = false;
  {
    // Decoded for this bank: a synopsis of another shape is refused
    // before it allocates anything.
    MutexLock lock(&registry_mutex_);
    decoded = DecodeRepairInstall(std::string(payload), bank_, &install,
                                  &error);
  }
  if (!decoded) {
    return host_.Refuse(connection, WireError::kBadPayload, error);
  }
  if (host_.draining()) {
    return ErrorFrame(WireError::kShuttingDown,
                      "server is draining; repair refused");
  }
  uint64_t installed = 0;
  WireError code = WireError::kNone;
  if (!InstallRepair(install, &installed, &code, &error)) {
    return host_.Refuse(connection, code, error);
  }
  return EncodeFrame(Opcode::kAck, EncodeAck(AckInfo{installed}));
}

std::string SketchServer::EncodeBankSnapshot() {
  MutexLock lock(&registry_mutex_);
  return EncodeEngineSnapshot(bank_, options_.witness, persisted_updates_,
                              names_by_id_, {});
}

bool SketchServer::RecoverAndOpenWal(std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };

  Checkpoint checkpoint;
  std::string checkpoint_error;
  const bool have_checkpoint =
      ReadCheckpoint(options_.wal_dir, &checkpoint, &checkpoint_error);
  if (!have_checkpoint && !checkpoint_error.empty()) {
    // A corrupt checkpoint is unrecoverable (the WAL it covered is
    // compacted away); refusing to serve beats silently diverging.
    return fail(checkpoint_error);
  }
  if (have_checkpoint) {
    EngineSnapshotData data;
    std::string snapshot_error;
    // No counter budget: this server wrote the CRC-checked file from a
    // bank it held, and a bank of any size must come back.
    if (!DecodeEngineSnapshot(checkpoint.engine_snapshot,
                              std::numeric_limits<uint64_t>::max(), &data,
                              &snapshot_error)) {
      return fail("checkpoint engine snapshot: " + snapshot_error);
    }
    if (data.config != options_) {
      return fail(
          "checkpoint was written with a different sketch configuration "
          "(params, copies, seed, backend or backend size); refusing to "
          "mix incompatible synopses");
    }
    for (auto& [name, summary] : data.streams) {
      std::string why;
      if (!bank_.InstallSummary(name, std::move(summary), &why)) {
        return fail("checkpoint stream '" + name + "' " + why);
      }
      ids_.emplace(name, static_cast<StreamId>(names_by_id_.size()));
      names_by_id_.push_back(name);
    }
    dedup_ = checkpoint.dedup;
    persisted_updates_ = data.updates_processed;
  }

  // Replay the tail: every generation the checkpoint does not cover.
  // Linearity makes replay exact — re-applying the surviving batches
  // reproduces the pre-crash counters bit for bit.
  WalReplayStats replay_stats;
  std::string replay_error;
  const bool replayed = Wal::Replay(
      options_.wal_dir, checkpoint.covered_generation,
      [this](const WalRecord& record) {
        UpdateBatchView batch;
        std::string error;
        if (!DecodePushUpdates(record.payload, &batch, &error)) {
          return;  // CRC-valid but undecodable: skip, keep replaying.
        }
        // The admission path's own resolve registers first-seen streams
        // under the backend their tags chose (the raw payload preserves
        // the tags) and groups the updates; replay applies every group to
        // all copies inline. A conflicting tag was refused at admission,
        // so it never reaches the log; skip it like an undecodable record.
        const std::shared_ptr<IngestBatch> resolved = ResolveBatchLocked(
            batch.stream_names, batch.stream_backends, batch.updates,
            &error);
        if (resolved == nullptr) return;
        for (const StreamBatch& group : resolved->groups) {
          ApplyGroup(group, 0, options_.copies, /*owns_backend=*/true);
        }
        if (!record.site_id.empty()) {
          dedup_.Record(record.site_id, record.sequence);
        }
        ++counters_.recovered_batches;
        counters_.recovered_updates += resolved->num_updates;
        persisted_updates_ += static_cast<int64_t>(resolved->num_updates);
      },
      &replay_stats, &replay_error);
  if (!replayed) return fail(replay_error);
  if (have_checkpoint || replay_stats.records_replayed > 0) {
    counters_.recoveries.store(1);
  }

  Wal::Options wal_options;
  wal_options.dir = options_.wal_dir;
  wal_options.shards =
      static_cast<size_t>(options_.wal_shards > 0 ? options_.wal_shards : 1);
  wal_options.fsync = options_.wal_fsync;
  std::string open_error;
  wal_ = Wal::Open(wal_options, checkpoint.covered_generation, &open_error);
  if (wal_ == nullptr) return fail(open_error);
  return true;
}

void SketchServer::MaybeCompactLocked() {
  if (wal_ == nullptr || options_.snapshot_every_bytes == 0) return;
  if (wal_->bytes_appended() - bytes_at_last_checkpoint_ <
      options_.snapshot_every_bytes) {
    return;
  }
  // push_mutex_ is held: no new batches can enter, so draining the
  // queues gives a bank that exactly reflects every WAL record up to the
  // rotation point.
  for (const auto& queue : queues_) queue->WaitDrained();
  CheckpointNowLocked();  // Failure keeps the old segments replayable.
}

bool SketchServer::CheckpointNowLocked() {
  uint64_t covered_generation = 0;
  std::string wal_error;
  if (!wal_->Rotate(&covered_generation, &wal_error)) {
    return false;  // Keep serving on the old generation; retry later.
  }
  Checkpoint checkpoint;
  checkpoint.covered_generation = covered_generation;
  checkpoint.dedup = dedup_;
  checkpoint.engine_snapshot = EncodeBankSnapshot();
  bool written = false;
  if (WriteCheckpoint(options_.wal_dir, checkpoint, options_.wal_fsync,
                      &wal_error)) {
    wal_->Compact(covered_generation);
    ++counters_.snapshots_written;
    written = true;
  }
  // On write failure the old segments stay; recovery replays them plus
  // the new generation (dedup makes the overlap harmless: the checkpoint
  // that failed was never relied upon).
  bytes_at_last_checkpoint_ = wal_->bytes_appended();
  return written;
}

void SketchServer::WorkerLoop(int shard_index) {
  // Optional affinity: shard t on cpu t keeps each copy range's counter
  // lines resident in one core's cache (and, via first-touch paging, on
  // one NUMA node). Best-effort — a failed pin just runs unpinned.
  if (options_.pin_shards) PinCurrentThreadToCpu(shard_index);
  const int copies = options_.copies;
  const int shards = options_.shards;
  const int begin = shard_index * copies / shards;
  const int end = (shard_index + 1) * copies / shards;
  ShardQueue& queue = *queues_[static_cast<size_t>(shard_index)];
  while (std::shared_ptr<const IngestBatch> batch = queue.PopOrWait()) {
    if (batch->probe) {
      // A stale query's probe: fill the table cells of this shard's
      // copies, just written by the batches ahead of it.
      batch->probe(shard_index);
      queue.TaskDone();
      continue;
    }
    // A single DistinctSketch has no copy ranges to shard, so shard 0
    // applies backend groups whole — still single-writer, since every
    // queue sees every batch in the same order and only this shard
    // touches the synopsis.
    for (const StreamBatch& group : batch->groups) {
      ApplyGroup(group, begin, end, /*owns_backend=*/shard_index == 0);
    }
    counters_.updates_applied += batch->num_updates;
    queue.TaskDone();
  }
}

bool SketchServer::AnySiteSummaryLocked(
    const std::vector<std::string>& names) const {
  for (const std::string& name : names) {
    if (coordinator_.Sketches(name) != nullptr) return true;
  }
  return false;
}

void SketchServer::ProbeOnShardsLocked(PlanCache::SnapshotRequest* request) {
  // Part t holds the copies shard t owns; shard t fills it as a task
  // behind the batches it already holds.
  auto task = std::make_shared<IngestBatch>();
  task->probe = [request](int shard) { request->Fill(shard); };
  std::vector<bool> pending(queues_.size());
  for (size_t t = 0; t < queues_.size(); ++t) {
    pending[t] = !queues_[t]->Push(task);
  }
  // With no producer admitted, a drained queue has run its task.
  for (const auto& queue : queues_) queue->WaitDrained();
  for (size_t t = 0; t < queues_.size(); ++t) {
    // A stopped queue refused the task; its worker has applied
    // everything by now.
    if (pending[t]) request->Fill(static_cast<int>(t));
  }
}

std::optional<SketchBank> SketchServer::SummaryViewLocked(
    const std::vector<std::string>& names, std::string* error) const {
  if (!AnySiteSummaryLocked(names)) return std::nullopt;
  // Counter linearity: a stream's view column is its directly pushed
  // counters plus the site summaries' sum. Unknown names stay out of the
  // view, so the planner reports them.
  std::optional<SketchBank> view(std::in_place, bank_.family(),
                                 options_.backend_size);
  for (const std::string& name : names) {
    const std::vector<TwoLevelHashSketch>* from_sites =
        coordinator_.Sketches(name);
    if (!bank_.HasStream(name)) {
      if (from_sites != nullptr) {
        view->InstallSummary(name, StreamSummary{0, *from_sites, nullptr});
      }
      continue;
    }
    StreamSummary summary = bank_.Summary(name);
    if (from_sites != nullptr) {
      if (summary.backend != 0) {
        // Site summaries carry 2-level-hash copy vectors; there is no
        // sound cross-backend merge.
        *error = "stream '" + name +
                 "' mixes a backend sketch with site summaries; no "
                 "cross-backend merge exists";
        return std::nullopt;
      }
      for (size_t i = 0; i < summary.sketches.size(); ++i) {
        summary.sketches[i].Merge((*from_sites)[i]);
      }
    }
    view->InstallSummary(name, std::move(summary));
  }
  return view;
}

QueryResultInfo SketchServer::Answer(const std::string& expression_text) {
  ++counters_.queries_answered;
  // Compiled before any ingest lock: a repeated text is one lookup in the
  // plan cache's text memo (parse, canonical plan, streams, emptiness).
  const PlanCache::Compiled query = plan_cache_.Compile(expression_text);
  if (!query->ok()) {
    QueryResultInfo result;
    result.error = query->error;
    return result;
  }

  PlanCache::Result planned;
  bool answered = false;
  if (query->provably_empty) {
    // Exactly 0 for any data: the backend tags are all it reads, so
    // ingest keeps flowing.
    MutexLock registry_lock(&registry_mutex_);
    answered = PlanCache::AnswerProvablyEmpty(*query, bank_, &planned);
  }
  // Under push_mutex_ no batch enters, and the epochs a batch bumps at
  // admission are final, so a query over bank_'s two-level streams runs
  // BeginQuery before the queues drain: the memo check and, on a miss,
  // the probe table's shape (epochs and columns, no counters). The fill
  // then rides the shard queues behind the batches they already hold,
  // and each worker fills the cells of its own copies. A query touching
  // a site-summary or backend stream drains first and reads a view bank
  // or the backend synopses inline. Either way the estimation runs after
  // the locks are released.
  PlanCache::SnapshotRequest request;
  std::optional<SketchBank> view;
  if (!answered) {
    MutexLock push_lock(&push_mutex_);
    bool drain_first = false;
    {
      MutexLock registry_lock(&registry_mutex_);
      MutexLock coordinator_lock(&coordinator_mutex_);
      drain_first = AnySiteSummaryLocked(query->streams) ||
                    PlanCache::UsesBackendStreams(query->streams, bank_);
      if (!drain_first) {
        answered = plan_cache_.BeginQuery(*query, bank_, &planned, &request,
                                          options_.shards);
      }
    }
    if (!drain_first && !answered && request.error.empty()) {
      ProbeOnShardsLocked(&request);
    } else {
      // Every QUERY is an ingest barrier, also when it reads no counters.
      for (const auto& queue : queues_) queue->WaitDrained();
    }
    if (drain_first) {
      MutexLock registry_lock(&registry_mutex_);
      MutexLock coordinator_lock(&coordinator_mutex_);
      std::string error;
      view = SummaryViewLocked(query->streams, &error);
      if (!error.empty()) {
        QueryResultInfo result;
        result.error = std::move(error);
        return result;
      }
      answered = !view.has_value() &&
                 plan_cache_.BeginQuery(*query, bank_, &planned, &request);
    }
  }
  if (!answered) {
    planned = view.has_value() ? plan_cache_.Query(*query, *view)
                               : plan_cache_.FinishQuery(std::move(request));
  }
  return PlannedQueryResult(*query, planned);
}

std::string SketchServer::Explain(const std::string& expression_text) {
  // Compiled without the text memo: EXPLAIN compiles and promotes
  // nothing in the plan cache.
  const std::shared_ptr<const CompiledQuery> query =
      CompileQuery(expression_text);
  if (!query->ok()) return "error: " + query->error + "\n";
  // Same quiesce and view as Answer: the report reads stream membership
  // and epochs.
  MutexLock push_lock(&push_mutex_);
  for (const auto& queue : queues_) queue->WaitDrained();
  MutexLock registry_lock(&registry_mutex_);
  MutexLock coordinator_lock(&coordinator_mutex_);
  std::string error;
  const std::optional<SketchBank> view =
      SummaryViewLocked(query->streams, &error);
  if (!error.empty()) return "error: " + error + "\n";
  // A view is probed whole on this thread; bank_ in one part per shard.
  return view.has_value()
             ? plan_cache_.Explain(*query, *view)
             : plan_cache_.Explain(*query, bank_, options_.shards);
}

std::string SketchServer::RenderStats() const {
  const StatsSnapshot s = stats();
  std::string out;
  SETSKETCH_STAT_RENDER(SETSKETCH_SERVER_STATS)
  return out;
}

SketchServer::StatsSnapshot SketchServer::stats() const {
  StatsSnapshot s;
  host_.LoadFrontDoor(&s);
  SETSKETCH_STAT_LOAD(SETSKETCH_SERVER_STATS)
  // Each shard counts every batch it applied; a batch is fully applied
  // once all shards processed it.
  s.updates_applied /= static_cast<uint64_t>(options_.shards);
  if (wal_ != nullptr) {
    s.wal_records = wal_->records_appended();
    s.wal_bytes = wal_->bytes_appended();
    s.wal_generation = wal_->generation();
  }
  {
    // push_mutex_ guards the dedup index (same order as Answer: push
    // before registry).
    MutexLock push_lock(&push_mutex_);
    s.dedup_sites = dedup_.num_sites();
    s.dedup_window_bits = dedup_.OccupiedBits();
  }
  {
    MutexLock lock(&registry_mutex_);
    s.streams = names_by_id_.size();
    s.backend_streams =
        bank_.BackendStreamCount(SketchBackendId::kThetaKmv) +
        bank_.BackendStreamCount(SketchBackendId::kSetSketch);
  }
  s.backend_default = SketchBackendName(options_.default_backend);
  s.uptime_ms = host_.uptime_ms();
  s.shards = options_.shards;
  s.queue_capacity = options_.queue_capacity;
  const PlanCache::Stats plan = plan_cache_.stats();
  s.plan_cache_hits = plan.hits;
  s.plan_cache_misses = plan.misses;
  s.plan_cache_invalidations = plan.invalidations;
  s.plan_cache_merge_builds = plan.merge_builds;
  s.plan_cache_backend_queries = plan.backend_queries;
  s.plan_cache_entries = plan.entries;
  s.plan_cache_memo_bytes = plan.memo_bytes;
  s.ingest_io_threads = options_.io_threads;
  s.ingest_frames_per_read =
      s.ingest_read_calls > 0 ? static_cast<double>(s.frames_received) /
                                    static_cast<double>(s.ingest_read_calls)
                              : 0.0;
  return s;
}

void SketchServer::Stop() {
  // Stop accepting and join the io threads, which close every connection.
  if (!host_.StopServing()) return;

  // Drain: workers finish every queued batch, then exit. Nothing that
  // was acknowledged is lost.
  for (const auto& queue : queues_) queue->Stop();
  for (std::thread& worker : workers_) worker.join();

  // Fold the whole log into a final checkpoint: restarts after a
  // graceful stop recover from the snapshot alone, replaying nothing.
  // Producers and workers are joined, so push_mutex_ is uncontended —
  // taken anyway so the guarded dedup_/snapshot reads stay inside the
  // checked discipline.
  if (wal_ != nullptr) {
    MutexLock push_lock(&push_mutex_);
    Checkpoint checkpoint;
    checkpoint.covered_generation = wal_->generation();
    checkpoint.dedup = dedup_;
    checkpoint.engine_snapshot = EncodeBankSnapshot();
    std::string wal_error;
    if (WriteCheckpoint(options_.wal_dir, checkpoint, options_.wal_fsync,
                        &wal_error)) {
      wal_->Compact(checkpoint.covered_generation);
      ++counters_.snapshots_written;
    }
    // wal_ stays alive (it only holds closed-over counters and fds to
    // already-compacted files) so post-Stop stats keep their totals.
  }
  host_.FinishStop();
}

void SketchServer::Wait() {
  host_.WaitForShutdown();
  Stop();
}

}  // namespace setsketch
