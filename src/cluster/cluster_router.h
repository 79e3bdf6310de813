// ClusterRouter: a federating front-end over sharded SketchServers.
//
// The router speaks the existing wire protocol (server/protocol.h) on
// both sides. Clients connect to it exactly as they would to a single
// SketchServer; behind it, stream names are placed onto N shard servers
// by a seeded consistent-hash ring (cluster/hash_ring.h), optionally with
// replicas.
//
//   client ──PUSH_UPDATES──▶ router ──┬─▶ owner shard   (PUSH_UPDATES,
//                                     └─▶ replica shard  original (site,
//                                                        sequence) kept)
//   client ──QUERY──────────▶ router ──▶ PULL_SUMMARY per owning shard,
//                                        installed into the router's
//                                        federated SketchBank and
//                                        answered by PlanCache::Query
//
// Correctness story, in terms of the paper's model:
//
//   * Placement is by stream NAME, so one shard holds every update of a
//     given stream — the router never has to merge one stream across
//     shards, and each shard's sketch vector is bit-identical to what a
//     single-node server would hold for that stream (same stored coins,
//     enforced by the PING hello handshake; linearity does the rest).
//   * Federated queries therefore reduce to the single-node answer path:
//     pull each stream's sketch vector from its owning shard into one
//     federated bank and answer through the same PlanCache a server
//     uses. tests/cluster_test.cc asserts the federated answer equals
//     the fault-free single-node answer exactly.
//   * Fan-out forwards keep the ORIGINAL (site_id, sequence) idempotency
//     header, so the shards' dedup windows keep exactly-once semantics
//     end to end: a client re-pushing after failover is re-ACKed where
//     already applied and applied where the recovering shard missed it.
//   * Failover: shards that miss a placed write are marked stale and
//     leave the read path; reads fail over to the next placed replica
//     (which, having ACKed every batch, is complete).
//
// Membership is repair. One state transfer serves anti-entropy repair,
// ADD_SHARD and DRAIN_SHARD: given the current placement and the next one
// (the same ring for a repair, the ring plus or minus one node for a
// membership change), it waits out in-doubt pushes, takes the write gate
// exclusively, pulls every member's repair manifest (stream identities
// + per-site dedup watermarks), and computes what each shard must receive:
// the streams the next placement gives it that it does not already hold
// completely, or all its placed streams when it is stale (a joining shard
// enters stale). Each stream comes from one complete source over the
// PULL_SUMMARY path and is installed with PUSH_REPAIR; a stale shard's
// dedup windows are replaced by the sources' (its own may cover batches
// the install clobbers), a complete member merges them. Every install is
// verified against a re-pulled manifest, then the placement flips and the
// stale bits clear, all before the gate is released — so no push can land
// between the manifest read and the flip, and no write is missed. Every
// member the next placement keeps must answer, or the transfer fails: a
// silent one may hold the only copy of a stream no other manifest names.
// Only the shard a drain removes may be dead. A stale shard that answers a
// probe again is repaired in place this way, with no router restart.
//
// Degraded reads: with `--read-policy available` the router answers from
// the best reachable replica even when every placed copy is stale, and
// flags the answer degraded (QUERY_RESULT status bit 0x02) instead of
// failing. The default `strict` policy preserves exactness.
//
// Each pulled stream is kept in the federated bank with its pull key: the
// shard it came from and that shard bank's (bank_id, epoch) — the plan
// cache's invalidation contract. A hot query over unchanged streams skips
// re-serialization (SummaryState::kUnchanged is one byte on the wire),
// bumps no federated epoch, and so is answered from the plan memo.

#ifndef SETSKETCH_CLUSTER_CLUSTER_ROUTER_H_
#define SETSKETCH_CLUSTER_CLUSTER_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/hash_ring.h"
#include "core/set_difference_estimator.h"  // WitnessOptions
#include "core/sketch_bank.h"
#include "core/sketch_seed.h"
#include "query/plan_cache.h"
#include "server/protocol.h"
#include "server/sketch_client.h"
#include "util/backoff.h"
#include "util/thread_annotations.h"

namespace setsketch {

class FaultInjector;

/// One shard server behind the router.
struct ClusterShard {
  std::string name;  ///< Placement identity (defaults to host:port).
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Shared/exclusive gate for write fan-out vs. state transfers. Push
/// fan-outs hold it shared; repair and migration transfers hold it
/// exclusive so their snapshots cannot interleave with applies. Writer
/// preference: a waiting exclusive blocks new shared acquires.
class RwGate {
 public:
  void LockShared() {
    MutexLock lock(&mutex_);
    while (exclusive_) cv_.wait(mutex_);
    ++shared_;
  }
  void UnlockShared() {
    MutexLock lock(&mutex_);
    if (--shared_ == 0) cv_.notify_all();
  }
  void LockExclusive() {
    MutexLock lock(&mutex_);
    while (exclusive_) cv_.wait(mutex_);
    exclusive_ = true;
    while (shared_ > 0) cv_.wait(mutex_);
  }
  void UnlockExclusive() {
    MutexLock lock(&mutex_);
    exclusive_ = false;
    cv_.notify_all();
  }

 private:
  Mutex mutex_;
  CondVar cv_;
  int shared_ SETSKETCH_GUARDED_BY(mutex_) = 0;
  bool exclusive_ SETSKETCH_GUARDED_BY(mutex_) = false;
};

/// Federating router node. Start() binds and serves; Stop()/Wait() mirror
/// SketchServer's lifecycle.
class ClusterRouter {
 public:
  /// What a QUERY may read when every placed copy of a stream is stale.
  enum class ReadPolicy {
    kStrict,     ///< Fail the query (exactness preserved).
    kAvailable,  ///< Answer from the best reachable replica, flagged
                 ///< degraded in the result status byte.
  };

  /// The deployment's stored coins (core/sketch_config.h): every shard
  /// must present an == config in its hello or it is refused
  /// (CONFIG_MISMATCH).
  struct Options : SketchConfig {
    /// Initial shard membership; ADD_SHARD / DRAIN_SHARD mutate it live
    /// (ring placement only).
    std::vector<ClusterShard> shards;
    /// Failover copies per stream beyond the owner (0 = no replication).
    int replicas = 1;
    /// Placement policy: consistent-hash ring unless static_placement.
    /// Static placement refuses online membership changes.
    bool static_placement = false;
    int virtual_nodes = 64;
    uint64_t placement_seed = 7;

    /// Estimator tuning for federated QUERY answers (must match the
    /// single-node configuration for bit-identical results).
    WitnessOptions witness;

    /// Client-facing TCP endpoint. Port 0 binds an ephemeral port.
    std::string bind_address = "127.0.0.1";
    int port = 0;
    int listen_backlog = 64;
    int max_connection_errors = 8;
    /// Client-facing deadlines (same semantics as SketchServer).
    int io_timeout_ms = 30000;
    int idle_timeout_ms = 0;

    /// Router -> shard deadlines.
    int shard_connect_timeout_ms = 2000;
    int shard_io_timeout_ms = 10000;

    /// Background health-probe interval; 0 disables the thread (tests
    /// and the CLI call ProbeAll() explicitly).
    int probe_interval_ms = 0;

    /// Per-shard probe backoff (util/backoff.h): a failing shard is
    /// reprobed at capped-exponential intervals instead of every tick,
    /// which is also the router's redial pacing for dead shards.
    int probe_backoff_initial_ms = 100;
    int probe_backoff_cap_ms = 5000;
    /// Flap damping: consecutive PROBE failures required before the
    /// probe loop clears the healthy bit. 1 = immediate (ProbeAll and
    /// real forward-op failures are always immediate regardless).
    int probe_flap_threshold = 1;
    /// Probe success on a stale shard triggers anti-entropy repair.
    bool auto_repair = true;
    /// Bound on waiting for in-doubt (site, sequence) pairs to drain
    /// before a repair/migration snapshot.
    int transfer_quiesce_timeout_ms = 5000;
    /// Online ADD_SHARD capacity beyond the initial membership.
    size_t max_dynamic_shards = 16;

    ReadPolicy read_policy = ReadPolicy::kStrict;

    /// Test seams: client-facing response sends / shard-facing sends.
    FaultInjector* fault_injector = nullptr;
    FaultInjector* shard_fault_injector = nullptr;
  };

  explicit ClusterRouter(const Options& options);
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Binds and spawns the acceptor (and the probe thread if enabled).
  /// Does NOT require shards to be up: connections are dialed lazily.
  /// Refuses a config SketchConfig::Validate refuses before binding.
  bool Start(std::string* error = nullptr);

  int port() const { return port_; }

  void Stop();
  void Wait();

  /// Synchronously probes every shard: dial + hello handshake. Marks
  /// shards healthy/unhealthy (immediately — no flap damping) and
  /// (permanently) refused on config mismatch. A stale shard that
  /// answers is repaired when Options::auto_repair is set. Returns the
  /// number of healthy shards.
  size_t ProbeAll();

  /// Anti-entropy catch-up for one stale shard (by placement name): the
  /// state transfer with the placement unchanged, which also fills every
  /// other stale member. A shard that is not stale has nothing to repair.
  /// Returns false (with *error) when the shard is refused or removed, a
  /// member does not answer, a transfer fails, or convergence cannot be
  /// verified — the shard then stays stale and out of the read path.
  bool RepairShard(const std::string& name, std::string* error = nullptr);

  /// Online membership: joins `shard` to the hash ring, transferring only
  /// the streams whose placement now includes it before the ring flips.
  /// *streams_moved receives the transferred stream count.
  /// Reuses a tombstoned (drained) slot when one exists, so repeated
  /// add/drain cycles never grow the shard index vector.
  bool AddShard(const ClusterShard& shard, uint64_t* streams_moved,
                std::string* error = nullptr);

  /// Online membership: migrates the named shard's ring segment to the
  /// shards that inherit it, then removes the shard from the ring and
  /// marks it removed (its tombstoned slot is reused by a later
  /// AddShard).
  bool DrainShard(const std::string& name, uint64_t* streams_moved,
                  std::string* error = nullptr);

  /// Federated query (QUERY frames route here; public for tests).
  QueryResultInfo Answer(const std::string& expression_text);

  /// Placement order (owner first) for a stream, by shard name.
  std::vector<std::string> WriteTargets(const std::string& stream) const;

  /// The shard a QUERY for this stream would currently read from; empty
  /// if none qualifies. Public for tests and the EXPLAIN rendering.
  std::string ReadTarget(const std::string& stream) const;

  /// Point-in-time counters.
  struct StatsSnapshot {
    size_t shards = 0;
    size_t healthy_shards = 0;
    size_t refused_shards = 0;
    size_t stale_shards = 0;
    size_t removed_shards = 0;
    uint64_t connections_accepted = 0;
    uint64_t connections_active = 0;
    uint64_t frames_received = 0;
    uint64_t protocol_errors = 0;
    uint64_t pushes_forwarded = 0;   ///< Batches ACKed to the client.
    uint64_t push_bounces = 0;       ///< RETRY_LATER answers to clients.
    uint64_t subbatches_forwarded = 0;
    uint64_t updates_forwarded = 0;  ///< Per placed copy.
    uint64_t forward_failures = 0;
    uint64_t failovers = 0;          ///< Reads served by a non-owner.
    uint64_t queries_answered = 0;
    uint64_t degraded_answers = 0;   ///< Answers served under kAvailable
                                     ///< from stale replicas.
    uint64_t summary_pulls = 0;      ///< PULL_SUMMARY round trips issued.
    uint64_t summary_streams_full = 0;
    uint64_t summary_streams_unchanged = 0;
    uint64_t probes = 0;
    uint64_t repairs = 0;            ///< Anti-entropy transfers applied.
    uint64_t readmissions = 0;       ///< Stale bits cleared after repair.
    uint64_t uptime_ms = 0;
  };
  StatsSnapshot stats() const;

  const Options& options() const { return options_; }

 private:
  /// Packed per-shard health word: one atomic load tells the push/query
  /// paths everything they may not do with a shard.
  static constexpr uint32_t kShardHealthy = 1u << 0;
  static constexpr uint32_t kShardRefused = 1u << 1;  ///< Config mismatch;
                                                      ///< permanent.
  static constexpr uint32_t kShardStale = 1u << 2;    ///< Missed >= 1
                                                      ///< placed write.
  static constexpr uint32_t kShardRemoved = 1u << 3;  ///< Drained; slot
                                                      ///< retired.

  /// Per-shard connection + health. The mutex serializes use of the
  /// lazily-dialed client; the health word is atomic so the push/query
  /// paths can skip known-dead shards without taking the lock.
  struct ShardState {
    ShardState(const ClusterShard& shard_in, int backoff_initial_ms,
               int backoff_cap_ms);

    bool Has(uint32_t bit) const { return (health.load() & bit) != 0; }
    void Set(uint32_t bit) { health.fetch_or(bit); }
    void ClearBit(uint32_t bit) { health.fetch_and(~bit); }

    ClusterShard shard;
    Mutex mutex;
    std::unique_ptr<SketchClient> client SETSKETCH_GUARDED_BY(mutex);
    std::atomic<uint32_t> health{kShardHealthy};
    std::atomic<uint64_t> failures{0};

    /// Probe-loop scheduling state; touched only by the probe thread.
    uint64_t probe_failures = 0;  ///< Consecutive (for flap damping).
    std::chrono::steady_clock::time_point next_probe_at{};
    Backoff probe_backoff;
  };

  struct Connection {
    int fd = -1;
    int errors = 0;
    uint64_t frames = 0;
    /// SHUTDOWN was handled on this connection: the lifecycle wait is
    /// released only after the ACK is queued on the socket, so Stop()'s
    /// shutdown(SHUT_RDWR) sweep can never cut the client off before
    /// the ACK bytes are in flight.
    bool notify_shutdown = false;
  };

  /// Where a stream in federated_ was pulled from: the shard, and that
  /// shard bank's (bank_id, epoch) at the pull. Sent back with the next
  /// pull of the stream from the same shard, so an unchanged stream
  /// comes back as kUnchanged.
  struct PullKey {
    size_t shard_index = 0;
    uint64_t bank_id = 0;
    uint64_t epoch = 0;
  };

  void AcceptLoop();
  void HandleConnection(int fd);
  void ProbeLoop();

  std::string HandleFrame(const FrameView& frame, Connection* connection,
                          bool* keep_open);
  std::string HandlePushUpdates(std::string_view payload,
                                Connection* connection);
  /// Not const: fetches each healthy shard's STATS over its connection to
  /// fold the per-shard ingest counters into the report.
  std::string RenderStats();
  /// EXPLAIN for an expression (or a bare stream name): per-stream
  /// placement lines ("stream <name> targets=a,b read=r"), then the
  /// planner's report over the federated bank as the last query left it.
  std::string Explain(const std::string& text) const
      SETSKETCH_EXCLUDES(query_mutex_);

  /// Dials + handshakes the shard's client if needed. Sets the refused
  /// bit on config mismatch; leaves healthy-bit transitions to callers
  /// (WithShard is immediate, the probe loop applies flap damping).
  bool EnsureClientLocked(ShardState* state)
      SETSKETCH_REQUIRES(state->mutex);
  /// Runs `op` on the shard's connected client under its mutex; marks the
  /// shard unhealthy on transport failure. One redial retry.
  SketchClient::Status WithShard(
      size_t shard_index,
      const std::function<SketchClient::Status(SketchClient&)>& op);
  /// Probe-loop dial + ping that does NOT flip the healthy bit (the
  /// caller applies flap damping).
  bool ProbeLocked(ShardState* state) SETSKETCH_REQUIRES(state->mutex);

  /// Placement target indices (owner first) for a stream.
  std::vector<size_t> TargetIndices(std::string_view stream) const
      SETSKETCH_EXCLUDES(placement_mutex_);
  /// `stream`'s target indices under `placement`; every target must be in
  /// shard_index_by_name_.
  std::vector<size_t> PlacedIndices(const Placement& placement,
                                    std::string_view stream) const
      SETSKETCH_REQUIRES(placement_mutex_);
  /// First placed shard eligible for reads; -1 if none. Sets *failover
  /// when the pick is not the owner, *degraded when kAvailable fell
  /// back to a stale replica.
  int ReadTargetIndex(const std::string& stream, bool* failover,
                      bool* degraded) const
      SETSKETCH_EXCLUDES(placement_mutex_);

  /// Repair/membership internals. membership_mutex_ serializes every
  /// repair and membership change end to end.
  bool RepairShardLocked(size_t target_index, std::string* error)
      SETSKETCH_REQUIRES(membership_mutex_);
  /// The one state transfer (see the header comment): makes every live
  /// shard hold what `next` places on it, then installs `next` as the
  /// placement and re-admits the stale shards it completed. Fails, with
  /// nothing flipped, when a member `next` keeps does not answer or a
  /// shard that `next` gives a stream cannot receive it. *streams_moved (optional) receives the number of
  /// distinct streams installed anywhere.
  bool TransferLocked(const Placement& next, uint64_t* streams_moved,
                      std::string* error)
      SETSKETCH_REQUIRES(membership_mutex_)
          SETSKETCH_EXCLUDES(in_doubt_mutex_);
  void RecordInDoubt(std::string_view site, uint64_t sequence);
  void ClearInDoubt(std::string_view site, uint64_t sequence);

  Options options_;
  /// An empty bank of the deployment's configuration. It is never
  /// mutated, so no lock guards it: every pulled synopsis is decoded
  /// against it (SketchClient::PullSummaries), whichever lock the puller
  /// holds. federated_ shares its family.
  const SketchBank coins_;

  /// Guards the mutable placement: ring membership and the name -> index
  /// map. Lock order: query_mutex_ or membership_mutex_ before
  /// placement_mutex_; placement_mutex_ before nothing (leaf).
  mutable Mutex placement_mutex_;
  Placement placement_ SETSKETCH_GUARDED_BY(placement_mutex_);
  std::unordered_map<std::string, size_t> shard_index_by_name_
      SETSKETCH_GUARDED_BY(placement_mutex_);

  /// shards_ only grows (ADD_SHARD appends or revives a tombstoned slot
  /// in place — the unique_ptr is never replaced) and its capacity is
  /// reserved up front, so readers may index `i < num_shards_.load()`
  /// without a lock; the unique_ptrs pin each ShardState's address.
  /// Mutation is serialized by membership_mutex_.
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::atomic<size_t> num_shards_{0};

  /// Serializes repair and membership changes (outermost admin lock;
  /// taken before the write gate and placement_mutex_).
  Mutex membership_mutex_;

  /// Push fan-outs shared, transfers exclusive (see RwGate).
  RwGate write_gate_;

  /// In-doubt idempotency keys: (site, sequence) pairs that were
  /// partially fanned out (some shard applied, then RETRY_LATER went
  /// back to the client). Transfers wait for these to drain because dedup
  /// windows are per site, not per stream: a destination that merged the
  /// windows of two sources disagreeing on one such pair would dedupe the
  /// client's retry and lose the half the other source never applied.
  mutable Mutex in_doubt_mutex_;
  CondVar in_doubt_cv_;
  std::unordered_set<std::string> in_doubt_
      SETSKETCH_GUARDED_BY(in_doubt_mutex_);

  /// Serializes federated queries and guards the federated bank.
  /// Lock order: query_mutex_ before any ShardState::mutex (Answer pulls
  /// summaries through WithShard while serializing the query).
  mutable Mutex query_mutex_;
  /// Every stream a query has pulled, installed through the bank's own
  /// copy-count, coin and backend-option checks.
  SketchBank federated_ SETSKETCH_GUARDED_BY(query_mutex_);
  std::unordered_map<std::string, PullKey> pull_keys_
      SETSKETCH_GUARDED_BY(query_mutex_);
  PlanCache plan_cache_;

  int listen_fd_ = -1;
  int port_ = -1;
  std::thread acceptor_;
  Mutex connections_mutex_;
  std::vector<std::thread> handler_threads_
      SETSKETCH_GUARDED_BY(connections_mutex_);
  std::vector<int> open_fds_ SETSKETCH_GUARDED_BY(connections_mutex_);

  std::thread probe_thread_;
  Mutex probe_mutex_;  // Guards only the probe thread's timed wait.
  CondVar probe_cv_;

  std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();
  Mutex lifecycle_mutex_;
  CondVar lifecycle_cv_;
  bool started_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
  bool shutdown_requested_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
  bool stop_started_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
  bool stopped_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
  std::atomic<bool> draining_{false};

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> pushes_forwarded_{0};
  std::atomic<uint64_t> push_bounces_{0};
  std::atomic<uint64_t> subbatches_forwarded_{0};
  std::atomic<uint64_t> updates_forwarded_{0};
  std::atomic<uint64_t> forward_failures_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> queries_answered_{0};
  std::atomic<uint64_t> degraded_answers_{0};
  std::atomic<uint64_t> summary_pulls_{0};
  std::atomic<uint64_t> summary_streams_full_{0};
  std::atomic<uint64_t> summary_streams_unchanged_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> repairs_{0};
  std::atomic<uint64_t> readmissions_{0};
};

}  // namespace setsketch

#endif  // SETSKETCH_CLUSTER_CLUSTER_ROUTER_H_
