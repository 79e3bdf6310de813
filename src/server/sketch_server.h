// SketchServer: a dependency-free POSIX TCP server that turns the
// in-process estimation architecture (Figure 1 of the paper) into a
// network service — the missing transport of the distributed-streams
// model, where sites *transmit* synopses and updates to a coordinator.
//
// Threading model:
//
//   acceptor thread ──▶ epoll io threads (server/epoll_backend.h), which
//                          │  multiplex every connection, scan frames
//                          │  zero-copy out of per-connection arenas,
//                          │  decode PUSH_UPDATES into views
//                          │  (server/protocol.h) and resolve stream
//                          │  names to dense ids
//                          ▼
//                       bounded ShardQueues (one per ingest shard)
//                          │  full queue => RETRY_LATER frame
//                          ▼
//                       worker threads, copy-range sharded: shard t owns
//                       sketch copies [t*r/S, (t+1)*r/S) of every stream
//
// Counters are therefore single-writer (lock-free ingest, bit-identical
// to serial), queries quiesce ingest by draining the queues while holding
// the producer mutex — a stale plan's probe rides them as one task per
// busy shard, so each worker fills the probe-table cells of the copies
// it owns — and graceful shutdown drains everything that was
// acknowledged before workers exit.
//
// Site summaries (PUSH_SUMMARY) are merged idempotently through the
// existing Coordinator; a query touching a summary-carried stream answers
// over a per-query view bank holding the directly pushed counters plus
// the summaries' sum (same-name streams merge by counter linearity).
//
// Fault tolerance (all opt-in via Options):
//
//   * Exactly-once ingest: each PUSH_UPDATES carries a (site_id,
//     sequence) key; a per-site dedup window (server/wal.h) re-ACKs
//     already-applied sequences without re-applying them. The seen-check,
//     WAL append and enqueue happen in one push_mutex_ critical section,
//     so concurrent retransmissions cannot double-apply.
//   * Durability: with Options::wal_dir set, accepted batches are
//     appended to a CRC-checked write-ahead log and fsync'd BEFORE the
//     ACK goes out; Start() replays the WAL tail (and restores the dedup
//     index) after a crash, rebuilding bit-identical sketch state by
//     counter linearity. snapshot_every_bytes compacts the log into
//     engine-snapshot checkpoints.
//   * Deadlines: response sends honor io_timeout_ms (poll-based,
//     src/server/socket_io.h) and the io loop drops connections idle for
//     idle_timeout_ms, so a stalled peer costs a connection, never a
//     wedged io thread.
//
// Coordinator summaries are NOT written to the WAL: PUSH_SUMMARY is
// already idempotent per site (latest summary wins), so a site that
// outlives the server re-pushes its summary after a restart. Only the
// update-ingest path carries exactly-once state.

#ifndef SETSKETCH_SERVER_SKETCH_SERVER_H_
#define SETSKETCH_SERVER_SKETCH_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/set_difference_estimator.h"  // WitnessOptions
#include "core/sketch_bank.h"
#include "distributed/coordinator.h"
#include "query/plan_cache.h"
#include "server/epoll_backend.h"
#include "server/protocol.h"
#include "server/shard_queue.h"
#include "server/wal.h"
#include "util/thread_annotations.h"

namespace setsketch {

class FaultInjector;

/// TCP sketch-serving endpoint. Start() spawns the threads; Stop() (or a
/// SHUTDOWN frame followed by Wait()) drains and joins them.
class SketchServer : private EpollServerBackend::Handler {
 public:
  /// The deployment-wide "stored coins" (core/sketch_config.h): clients
  /// pushing summaries must have been built with the same config. PUSH
  /// backend tags override default_backend per stream at first sight;
  /// mismatched tags on existing streams are refused (CONFIG_MISMATCH),
  /// exactly like foreign stored coins.
  struct Options : SketchConfig {
    /// Ingest shards (worker threads); each owns a copy range.
    int shards = 2;
    /// Max batches in flight per shard before RETRY_LATER.
    size_t queue_capacity = 64;

    /// TCP endpoint. Port 0 binds an ephemeral port (see port()).
    std::string bind_address = "127.0.0.1";
    int port = 0;
    int listen_backlog = 64;

    /// Recoverable (payload-level) protocol errors tolerated per
    /// connection before it is dropped with TOO_MANY_ERRORS.
    int max_connection_errors = 8;

    /// Estimator tuning for QUERY answers.
    WitnessOptions witness;

    /// Write-ahead log directory. Empty disables durability; non-empty
    /// makes every ACKed batch crash-safe (fsync before ACK) and enables
    /// recovery-on-startup from checkpoint + WAL tail.
    std::string wal_dir;
    /// WAL segment files per generation (spreads append + fsync load).
    int wal_shards = 2;
    /// fsync WAL appends and checkpoints (tests/benches may disable to
    /// measure the pure logging cost; a crash then loses recent ACKs).
    bool wal_fsync = true;
    /// Compact the WAL into a checkpoint roughly every this many logged
    /// bytes. 0 = only the final checkpoint at graceful Stop().
    uint64_t snapshot_every_bytes = 0;

    /// Deadline for sending any response frame; <= 0 = no deadline.
    int io_timeout_ms = 30000;
    /// Idle-connection deadline: a connection that received no bytes for
    /// this long is dropped. <= 0 = never.
    int idle_timeout_ms = 0;

    /// Event-loop threads serving the connections (server/epoll_backend.h).
    int io_threads = 1;
    /// Bytes drained from a socket per readable event; also the
    /// steady-state per-connection arena capacity.
    size_t read_chunk_bytes = 256u << 10;
    /// Pin threads to CPUs: shard worker t -> cpu t, epoll io thread i ->
    /// cpu shards + i (mod CPU count). Keeps each copy range's counters
    /// hot in one core's cache; with first-touch allocation the arrays
    /// also land on the owning worker's NUMA node.
    bool pin_shards = false;

    /// Test seam: injects faults into this server's response sends.
    FaultInjector* fault_injector = nullptr;
  };

  explicit SketchServer(const Options& options);
  ~SketchServer();

  SketchServer(const SketchServer&) = delete;
  SketchServer& operator=(const SketchServer&) = delete;

  /// Binds, listens and spawns acceptor + shard workers. Returns false
  /// (with *error filled) for a config SketchConfig::Validate refuses,
  /// before recovering or binding anything, or if recovery or the socket
  /// setup fails.
  bool Start(std::string* error = nullptr);

  /// Port actually bound (resolves ephemeral port 0); -1 before Start.
  int port() const { return port_; }

  /// Graceful shutdown: stop accepting, unblock connections, drain every
  /// shard queue, join all threads. Idempotent; safe from any thread
  /// except the server's own handlers (those request shutdown via the
  /// SHUTDOWN opcode instead, which Wait() executes).
  void Stop();

  /// Blocks until a SHUTDOWN frame (or Stop from another thread) and
  /// completes the shutdown.
  void Wait();

  /// Point-in-time serving counters (all monotonic except depths).
  struct StatsSnapshot {
    uint64_t connections_accepted = 0;
    uint64_t connections_active = 0;
    uint64_t frames_received = 0;
    uint64_t protocol_errors = 0;
    uint64_t batches_accepted = 0;
    uint64_t batches_rejected = 0;  ///< RETRY_LATER responses.
    uint64_t updates_enqueued = 0;
    /// Shard-applied update count summed over shards, divided by the
    /// shard count: a batch some shards have applied and others have not
    /// counts partially. Equals updates_enqueued once ingest drained
    /// (after any QUERY, which waits for the queues).
    uint64_t updates_applied = 0;
    uint64_t summaries_accepted = 0;
    uint64_t summaries_rejected = 0;
    uint64_t queries_answered = 0;
    uint64_t duplicates_dropped = 0;  ///< Dedup re-ACKs (not re-applied).
    uint64_t wal_records = 0;         ///< Batches appended this run.
    uint64_t wal_bytes = 0;           ///< Bytes appended this run.
    uint64_t wal_generation = 0;      ///< Current WAL generation (0 = off).
    uint64_t snapshots_written = 0;   ///< Checkpoint compactions.
    uint64_t recoveries = 0;          ///< 1 if Start() restored state.
    uint64_t recovered_batches = 0;   ///< WAL-tail batches replayed.
    uint64_t recovered_updates = 0;   ///< Updates inside those batches.
    uint64_t streams = 0;
    int shards = 0;
    size_t queue_capacity = 0;
    // Query-planner counters (see query/plan_cache.h).
    uint64_t plan_cache_hits = 0;
    uint64_t plan_cache_misses = 0;
    uint64_t plan_cache_invalidations = 0;
    /// Probe tables built for stale/cold plans (STATS consumers read it
    /// under this name).
    uint64_t plan_cache_merge_builds = 0;
    uint64_t plan_cache_backend_queries = 0;  ///< Backend-routed queries.
    uint64_t plan_cache_entries = 0;
    /// Bytes of probe tables and witness scratch held by cached plans.
    uint64_t plan_cache_memo_bytes = 0;
    // Backend-seam exposure (DESIGN.md §3.8).
    uint8_t backend_default = 0;        ///< Options::default_backend id.
    uint64_t backend_streams = 0;       ///< Streams on a non-default backend.
    // Cluster-facing health/exactly-once exposure.
    uint64_t dedup_sites = 0;        ///< Sites with a live dedup window.
    uint64_t dedup_window_bits = 0;  ///< Occupied bits across all windows.
    uint64_t summary_pulls = 0;      ///< PULL_SUMMARY requests served.
    uint64_t repair_pulls = 0;       ///< PULL_REPAIR manifests served.
    uint64_t repair_installs = 0;    ///< PUSH_REPAIR installs applied.
    uint64_t uptime_ms = 0;          ///< Milliseconds since Start().
    // Ingest I/O counters (the epoll loop's reads).
    uint64_t ingest_bytes_read = 0;  ///< Socket bytes drained by reads.
    uint64_t ingest_read_calls = 0;  ///< recv() calls that returned data.
    uint64_t ingest_max_frames_per_read = 0;  ///< Peak read-batch occupancy.
    uint64_t ingest_arena_hwm_bytes = 0;  ///< Peak buffered unparsed bytes.
  };
  StatsSnapshot stats() const
      SETSKETCH_EXCLUDES(push_mutex_, registry_mutex_);

  /// Answers a set-expression query over everything the server holds
  /// (pushed updates + merged site summaries). Public for in-process use
  /// and tests; QUERY frames route here.
  QueryResultInfo Answer(const std::string& expression_text)
      SETSKETCH_EXCLUDES(push_mutex_, registry_mutex_, coordinator_mutex_);

  /// Renders the query planner's EXPLAIN report for a text expression
  /// over the same bank or summary view Answer reads: canonical plan,
  /// CSE sharing, probe table and plan-cache state. EXPLAIN frames route
  /// here; parse failures yield an "error: ..." line.
  std::string Explain(const std::string& expression_text)
      SETSKETCH_EXCLUDES(push_mutex_, registry_mutex_, coordinator_mutex_);

  /// Serves a cluster summary pull over the direct-ingest bank: per
  /// requested stream, kUnknown if the bank has no such stream, kUnchanged
  /// when the caller's cached (bank_id, epoch) is still current, else a
  /// kFull entry with fresh identity + a copy of the sketch vector taken
  /// under the same quiesce as Answer (so it reflects every ACKed batch).
  /// Coordinator-carried streams are not served — cluster shards ingest
  /// via PUSH_UPDATES only. PULL_SUMMARY frames route here.
  SummaryResult PullSummaries(const SummaryPullRequest& request)
      SETSKETCH_EXCLUDES(push_mutex_, registry_mutex_);

  /// Serves an anti-entropy repair manifest: every direct-ingest stream's
  /// (bank_id, epoch) identity plus every site's dedup window, captured
  /// under the same quiesce as Answer so the pair is mutually consistent.
  /// PULL_REPAIR frames route here.
  RepairManifest PullRepairManifest()
      SETSKETCH_EXCLUDES(push_mutex_, registry_mutex_);

  /// Installs transferred repair state: replaces (or registers) each
  /// carried stream's sketch vector, then replaces or merges the dedup
  /// windows per `install.replace_dedup`, all under one ingest quiesce so
  /// no admitted batch interleaves with the install. With a WAL open, a
  /// checkpoint is forced before returning — a post-repair crash must
  /// recover the repaired state, not the pre-repair WAL tail. The install
  /// is all-or-nothing: validation failures install nothing. PUSH_REPAIR
  /// frames route here.
  bool InstallRepair(const RepairInstall& install, uint64_t* installed,
                     WireError* code, std::string* error)
      SETSKETCH_EXCLUDES(push_mutex_, registry_mutex_);

  /// The direct-ingest bank. Only safe to inspect when ingest is quiesced
  /// (after Stop, or from tests that know no pushes are in flight) —
  /// which is exactly why the guarded-member read is out of the analysis.
  const SketchBank& bank() const SETSKETCH_NO_THREAD_SAFETY_ANALYSIS {
    return bank_;
  }

  const Options& options() const { return options_; }

 private:
  /// Per-connection protocol state, owned by the epoll backend.
  using Connection = ServerConnection;

  void AcceptLoop();
  void WorkerLoop(int shard_index);

  // EpollServerBackend::Handler — the io loop's protocol hooks.
  // All run on io threads; per-connection calls are serialized by the
  // owning event loop.
  void OnFrame(const FrameView& frame, ServerConnection* connection,
               std::string* responses, bool* keep_open) override;
  void OnStreamError(WireError error, const std::string& message,
                     ServerConnection* connection,
                     std::string* responses) override;
  void OnResponsesSent(ServerConnection* connection) override;
  void OnReadBatch(size_t bytes, size_t frames,
                   size_t arena_high_watermark) override;
  void OnDisconnect(ServerConnection* connection) override;

  /// Dispatches one decoded frame (payload may borrow from a read
  /// buffer — it is only guaranteed alive for this call); returns the
  /// response frame and whether the connection should stay open.
  std::string HandleFrame(Opcode opcode, std::string_view payload,
                          Connection* connection, bool* keep_open);

  std::string HandlePushUpdates(std::string_view payload,
                                Connection* connection);
  std::string HandlePushSummary(std::string_view payload,
                                Connection* connection);
  std::string HandlePullSummary(std::string_view payload,
                                Connection* connection);
  std::string HandlePushRepair(std::string_view payload,
                               Connection* connection);
  std::string RenderStats() const;

  /// The bank a query over stream `names` must read when any of them is
  /// carried by a site summary: a view over bank_.family() whose columns
  /// are bank_'s column plus the coordinator's sum (counter linearity).
  /// nullopt when none has a site summary — the query then reads bank_
  /// itself — or, with *error set, when a backend-sketch stream also has
  /// site summaries (no cross-backend merge exists). Answer and Explain
  /// share it, so both see the same streams.
  std::optional<SketchBank> SummaryViewLocked(
      const std::vector<std::string>& names, std::string* error) const
      SETSKETCH_REQUIRES(registry_mutex_, coordinator_mutex_);

  /// True iff any of `names` is carried by a site summary.
  bool AnySiteSummaryLocked(const std::vector<std::string>& names) const
      SETSKETCH_REQUIRES(coordinator_mutex_);

  /// Fills a stale plan's probe table (shaped in options_.shards parts by
  /// BeginQuery) on the shard workers: a probe task on every queue,
  /// behind the batches it holds, so worker t fills the cells of the
  /// copies it owns once it applied them (a stopped queue's part is filled
  /// on the calling thread). Returns once every queue drained, so it also
  /// serves as the query's ingest barrier. Requires push_mutex_ held (no
  /// batch enters, no column moves).
  void ProbeOnShardsLocked(PlanCache::SnapshotRequest* request)
      SETSKETCH_REQUIRES(push_mutex_);

  /// The one exactly-once admission path every PUSH_UPDATES takes:
  /// draining gate, dedup seen-check, all-or-nothing queue admission,
  /// epoch-bumping resolve, WAL append (fsync before ACK), dedup record,
  /// enqueue — all under push_mutex_. Views may borrow from the caller's
  /// read buffer; everything enqueued or logged is owned.
  /// `stream_backends` carries one backend tag per stream name (0 = the
  /// server's default); a tag that contradicts an existing stream's
  /// backend refuses the whole batch with CONFIG_MISMATCH before any WAL
  /// append or enqueue.
  std::string AdmitPush(std::string_view site_id, uint64_t sequence,
                        const std::vector<std::string_view>& stream_names,
                        const std::vector<uint8_t>& stream_backends,
                        const std::vector<Update>& updates,
                        std::string_view raw_payload)
      SETSKETCH_EXCLUDES(push_mutex_, registry_mutex_);

  /// Restores checkpoint + WAL tail from options_.wal_dir and opens a
  /// fresh WAL generation. Called by Start() before listening. False +
  /// *error if persisted state is unusable (mismatched configuration,
  /// corrupt checkpoint) — refusing to serve beats silently diverging.
  /// Out of the analysis: it runs before any worker or io thread exists,
  /// so the guarded members it rebuilds (bank_, ids_, dedup_, wal_) have
  /// no concurrent readers yet — including inside the replay lambda,
  /// which the analysis would otherwise treat as an unlocked function.
  bool RecoverAndOpenWal(std::string* error)
      SETSKETCH_NO_THREAD_SAFETY_ANALYSIS;

  /// Checkpoint + compact when enough WAL bytes accumulated. Requires
  /// push_mutex_ held; drains the shard queues for a consistent bank.
  void MaybeCompactLocked() SETSKETCH_REQUIRES(push_mutex_);

  /// Rotates the WAL and checkpoints the current bank + dedup state
  /// unconditionally. Requires push_mutex_ held AND the shard queues
  /// drained (the bank must be quiesced). False when the rotation or the
  /// checkpoint write failed; the old segments then stay replayable.
  bool CheckpointNowLocked() SETSKETCH_REQUIRES(push_mutex_);

  /// Builds the engine-snapshot bytes for a checkpoint. Requires a
  /// quiesced bank (push_mutex_ held + queues drained, or threads
  /// joined); takes registry_mutex_ itself.
  std::string EncodeBankSnapshot() SETSKETCH_REQUIRES(push_mutex_)
      SETSKETCH_EXCLUDES(registry_mutex_);

  /// Registers unseen names and resolves the batch to per-stream groups
  /// of column pointer + element/delta items (the shard workers' batched
  /// ingest unit; WAL replay applies the same groups inline). Called
  /// with push_mutex_ AND registry_mutex_ held: the
  /// MutableSketches hand-outs bump the streams' ingest epochs, and that
  /// bump must be atomic with the enqueue w.r.t. queries (which read
  /// epochs + counters under push_mutex_ with drained queues), or a
  /// query in the gap would memoize pre-batch counters under the
  /// post-batch epoch. A nonzero backend tag selects the stream's backend
  /// at first sight (0 falls back to Options::default_backend); a tag
  /// that contradicts an existing stream's backend resolves to nullptr
  /// with *conflict naming the stream — the caller refuses the batch.
  std::shared_ptr<IngestBatch> ResolveBatchLocked(
      const std::vector<std::string_view>& stream_names,
      const std::vector<uint8_t>& stream_backends,
      const std::vector<Update>& updates, std::string* conflict)
      SETSKETCH_REQUIRES(push_mutex_, registry_mutex_);

  Options options_;

  /// Heterogeneous string hash: ids_ probes with string_views straight
  /// out of frame payloads, materializing a key only on first sight of a
  /// stream.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Stream registry + direct-ingest bank. registry_mutex_ guards the
  // name/id maps and stream registration; the counter cells themselves
  // are written only by shard workers (copy-range ownership).
  // Lock order: push_mutex_ -> registry_mutex_ -> coordinator_mutex_.
  mutable Mutex registry_mutex_;
  SketchBank bank_ SETSKETCH_GUARDED_BY(registry_mutex_);
  std::vector<std::string> names_by_id_ SETSKETCH_GUARDED_BY(registry_mutex_);
  std::unordered_map<std::string, StreamId, StringHash, std::equal_to<>>
      ids_ SETSKETCH_GUARDED_BY(registry_mutex_);

  // Site summaries, merged idempotently.
  mutable Mutex coordinator_mutex_;
  Coordinator coordinator_ SETSKETCH_GUARDED_BY(coordinator_mutex_);

  // Query planner: every QUERY text is compiled through its text memo
  // before any ingest lock, then answered here, over bank_ or over the
  // summary view SummaryViewLocked builds. Plans over bank_ are memoized
  // under its epochs; a view is a fresh bank per query, so its answers
  // never hit the memo. Internally synchronized; callers still quiesce
  // ingest for anything that reads counters.
  PlanCache plan_cache_;

  // Ingest pipeline. push_mutex_ serializes the all-or-nothing enqueue
  // across shards and is held (with drained queues) during queries.
  // Mutable: const stats() reads the dedup index under it. queues_ and
  // workers_ are sized by Start() before any producer exists and never
  // resized; the queues are internally synchronized.
  mutable Mutex push_mutex_;
  std::vector<std::unique_ptr<ShardQueue>> queues_;
  std::vector<std::thread> workers_;

  // Durability + exactly-once state, guarded by push_mutex_ (the dedup
  // decision, WAL append and enqueue must be one atomic admission step).
  // The wal_ pointer itself is set by RecoverAndOpenWal before the
  // threads start and never reassigned; Wal appends are internally
  // locked. Holding push_mutex_ across the append is what orders the
  // fsync before the dedup record + ACK.
  std::unique_ptr<Wal> wal_;
  DedupIndex dedup_ SETSKETCH_GUARDED_BY(push_mutex_);
  int64_t persisted_updates_ SETSKETCH_GUARDED_BY(push_mutex_) =
      0;  // Lifetime total, survives crashes.
  uint64_t bytes_at_last_checkpoint_ SETSKETCH_GUARDED_BY(push_mutex_) = 0;

  // Sockets. The acceptor hands every connection to the epoll backend,
  // which owns it from then on.
  int listen_fd_ = -1;
  int port_ = -1;
  std::thread acceptor_;
  std::unique_ptr<EpollServerBackend> epoll_backend_;

  // Lifecycle.
  std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();  // Reset by Start().
  Mutex lifecycle_mutex_;
  CondVar lifecycle_cv_;
  bool started_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
  bool shutdown_requested_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
  bool stop_started_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
  bool stopped_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
  /// Set on SHUTDOWN: new batches/summaries are refused while the
  /// already-acknowledged ones drain.
  std::atomic<bool> draining_{false};

  // Counters (atomics: touched from many threads).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> batches_accepted_{0};
  std::atomic<uint64_t> batches_rejected_{0};
  std::atomic<uint64_t> updates_enqueued_{0};
  std::atomic<uint64_t> shard_updates_applied_{0};  // Per-shard sum.
  std::atomic<uint64_t> summaries_accepted_{0};
  std::atomic<uint64_t> summaries_rejected_{0};
  std::atomic<uint64_t> queries_answered_{0};
  std::atomic<uint64_t> duplicates_dropped_{0};
  std::atomic<uint64_t> summary_pulls_{0};
  std::atomic<uint64_t> repair_pulls_{0};
  std::atomic<uint64_t> repair_installs_{0};
  std::atomic<uint64_t> snapshots_written_{0};
  std::atomic<uint64_t> recoveries_{0};
  std::atomic<uint64_t> recovered_batches_{0};
  std::atomic<uint64_t> recovered_updates_{0};
  // Ingest I/O counters (OnReadBatch).
  std::atomic<uint64_t> ingest_bytes_read_{0};
  std::atomic<uint64_t> ingest_read_calls_{0};
  std::atomic<uint64_t> ingest_max_frames_per_read_{0};
  std::atomic<uint64_t> ingest_arena_hwm_bytes_{0};
};

}  // namespace setsketch

#endif  // SETSKETCH_SERVER_SKETCH_SERVER_H_
