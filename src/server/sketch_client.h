// TCP client for SketchServer: one logical connection, strict
// request-response framing (server/protocol.h). Dependency-free POSIX
// sockets, suitable for collection sites, CLI tools and tests.
//
// Fault-tolerance posture:
//
//   * Every socket operation honors a deadline (Options::io_timeout_ms /
//     connect_timeout_ms) and surfaces expiry as a typed timeout — a dead
//     or stalled server can never park the caller forever.
//   * The client stamps each PUSH_UPDATES with (site_id, sequence); the
//     server deduplicates, so retrying a batch whose ACK was lost is safe
//     — the server re-ACKs without re-applying (Status::duplicate).
//   * PushUpdatesWithRetry transparently reconnects after transport
//     failures, with capped exponential backoff + deterministic jitter,
//     and retries the SAME sequence number until the server acknowledges.
//
// Backpressure is surfaced, not hidden: PushUpdates returns with
// `.retry == true` when the server answered RETRY_LATER, and
// PushUpdatesWithRetry wraps the resend-with-backoff loop for callers
// that just want the batch delivered.

#ifndef SETSKETCH_SERVER_SKETCH_CLIENT_H_
#define SETSKETCH_SERVER_SKETCH_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/ingest_arena.h"
#include "server/protocol.h"
#include "stream/update.h"
#include "util/backoff.h"

namespace setsketch {

class FaultInjector;

/// One client connection (auto-reconnecting inside the retry loop).
class SketchClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;
    /// Idempotency identity: non-empty enables server-side exactly-once
    /// dedup of this client's pushes. Empty = anonymous (no dedup).
    std::string site_id;
    /// First sequence number to stamp (sequences must only grow per
    /// site, including across client restarts).
    uint64_t first_sequence = 1;
    int connect_timeout_ms = 5000;
    /// Per-round-trip deadline (send + await reply). <= 0: no deadline.
    int io_timeout_ms = 30000;
    /// Retry backoff: starts at initial, doubles per consecutive failure
    /// up to cap, each sleep jittered by a uniform [0.5, 1.5) factor.
    int backoff_initial_ms = 1;
    int backoff_cap_ms = 64;
    /// Jitter PRNG seed; 0 derives one from site_id and port so distinct
    /// sites never sleep in lockstep.
    uint64_t backoff_seed = 0;
    /// Test seam: injects faults into this client's sends.
    FaultInjector* fault_injector = nullptr;
  };

  /// Outcome of one request-response round trip.
  struct Status {
    bool ok = false;
    bool retry = false;      ///< Server said RETRY_LATER (backpressure).
    bool timed_out = false;  ///< Deadline expired (a transport failure).
    bool duplicate = false;  ///< ACK says this (site, sequence) was
                             ///< already applied; nothing re-applied.
    std::string error;       ///< Transport or server error when !ok.
    WireError code = WireError::kNone;  ///< Typed code from an ERROR
                                        ///< frame (kNone for transport
                                        ///< failures and successes).
    uint64_t accepted = 0;   ///< ACK payload: updates/streams accepted.
    bool replaced = false;   ///< ACK payload: summary superseded an
                             ///< earlier one from the same site.
  };

  /// Lifetime transport counters (across reconnects).
  struct Counters {
    uint64_t retries = 0;         ///< RETRY_LATER bounces absorbed.
    uint64_t reconnects = 0;      ///< Successful re-dials after failure.
    uint64_t timeouts = 0;        ///< Deadline expiries observed.
    uint64_t duplicate_acks = 0;  ///< Server-side dedup hits seen.
  };

  /// Connects per `options`. Returns nullptr with *error on failure.
  static std::unique_ptr<SketchClient> Connect(const Options& options,
                                               std::string* error = nullptr);

  /// Connects to host:port (IPv4 dotted quad or "localhost") with default
  /// options — anonymous site, default deadlines.
  static std::unique_ptr<SketchClient> Connect(const std::string& host,
                                               int port,
                                               std::string* error = nullptr);

  ~SketchClient();
  SketchClient(const SketchClient&) = delete;
  SketchClient& operator=(const SketchClient&) = delete;

  /// PING round trip (payload echoed through PONG).
  Status Ping();

  /// Cluster handshake: sends `mine` as a hello-carrying PING and decodes
  /// the peer's configuration into *theirs. Fails (ok = false) when the
  /// reply is not a hello of this version (a peer that does not know the
  /// request echoes it, which fails response decoding) — callers treat
  /// that the same as a refusal, since the peer cannot be config-checked.
  Status Hello(const HelloInfo& mine, HelloInfo* theirs);

  /// Pulls per-stream summaries (the router's federation read path). A
  /// reply whose entries are not exactly the requested names, in order,
  /// fails with code kBadPayload and leaves *result empty. The sketch
  /// vectors are decoded but NOT config-checked here; the caller's bank
  /// refuses foreign copy counts, coins and backend options on install.
  Status PullSummaries(const SummaryPullRequest& request,
                       SummaryResult* result);

  /// Forwards a batch verbatim under ITS OWN (site_id, sequence) header —
  /// unlike PushUpdates*, which restamp with this client's identity. The
  /// router uses this so the origin site's idempotency key survives the
  /// hop and shard-side dedup still recognizes client-level re-pushes.
  Status ForwardUpdates(const UpdateBatch& batch);

  /// Pushes one batch of updates; `batch.updates[i].stream` indexes
  /// `batch.stream_names`. Unknown streams are auto-registered by the
  /// server. Stamps (and consumes) the next sequence number. Check
  /// `.retry` on failure.
  Status PushUpdates(const UpdateBatch& batch);

  /// Pushes one batch under an explicit sequence number, without touching
  /// the client's sequence counter. The retry loop and replay tests use
  /// this to re-send a specific (site, sequence).
  Status PushUpdatesAt(const UpdateBatch& batch, uint64_t sequence);

  /// PushUpdates + bounded retry loop: capped exponential backoff with
  /// jitter for RETRY_LATER, transparent reconnect (same backoff) for
  /// transport failures. One sequence number is allocated up front and
  /// re-sent verbatim on every attempt, so server-side dedup makes the
  /// delivery exactly-once even when ACKs are lost. `retries_out` /
  /// `reconnects_out`, if non-null, receive this call's RETRY_LATER
  /// bounce count and reconnect count.
  Status PushUpdatesWithRetry(const UpdateBatch& batch,
                              int max_attempts = 1000,
                              int backoff_ms = 1,
                              uint64_t* retries_out = nullptr,
                              uint64_t* reconnects_out = nullptr);

  /// Ships a Site::EncodeSummary buffer; the server merges it through its
  /// Coordinator (idempotent per site).
  Status PushSummary(const std::string& summary_bytes);

  /// Pulls a shard's repair manifest (stream identities + per-site dedup
  /// watermarks) — the diff side of anti-entropy catch-up.
  Status PullRepair(RepairManifest* manifest);

  /// Installs transferred repair state on a shard. `.accepted` counts the
  /// streams installed.
  Status PushRepair(const RepairInstall& install);

  /// Router admin: joins the named shard to a running router's hash ring
  /// (ADD_SHARD). `.accepted` counts the streams migrated onto it.
  Status AddShard(const ShardAdminRequest& request);

  /// Router admin: migrates the named shard's ring segment away and
  /// removes it (DRAIN_SHARD). `.accepted` counts the streams moved.
  Status DrainShard(const ShardAdminRequest& request);

  /// Evaluates a text set expression server-side.
  QueryResultInfo Query(const std::string& expression_text);

  /// Fetches the server's "key value" stats text.
  Status Stats(std::string* text);

  /// Fetches the query planner's EXPLAIN report for a text expression
  /// (canonical plan, CSE sharing, plan-cache state).
  Status Explain(const std::string& expression_text, std::string* report);

  /// Requests a graceful server shutdown (drain, then exit).
  Status Shutdown();

  const Counters& counters() const { return counters_; }

  /// Sequence number the next PushUpdates will stamp.
  uint64_t next_sequence() const { return next_sequence_; }

  /// True while a socket is open (a failed round trip closes it; the next
  /// request redials).
  bool connected() const { return fd_ >= 0; }

 private:
  explicit SketchClient(const Options& options);

  /// Dials options_.host:port. False + *error on failure.
  bool Dial(std::string* error);

  /// Closes the socket and resets framing state; the next RoundTrip
  /// redials.
  void Disconnect();

  /// Sends one frame and reads exactly one response frame, under one
  /// io_timeout_ms deadline for the whole round trip. Redials first if
  /// the connection is closed. Any transport failure disconnects.
  Status RoundTrip(Opcode opcode, std::string_view payload, Frame* reply);

  Status DecodePushAck(Status status, const Frame& reply);

  Options options_;
  int fd_ = -1;
  IngestArena arena_;  ///< Received reply bytes not yet scanned as frames.
  uint64_t next_sequence_;
  Counters counters_;
  Backoff backoff_;
};

}  // namespace setsketch

#endif  // SETSKETCH_SERVER_SKETCH_CLIENT_H_
