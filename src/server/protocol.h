// Wire protocol of the sketch-serving subsystem.
//
// Every message is one length-prefixed binary frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic 0x534B4348 ("SKCH"), little-endian
//        4     1  protocol version (kProtocolVersion; no other is read)
//        5     1  opcode
//        6     2  reserved, must be zero
//        8     4  payload size in bytes, little-endian (<= 64 MiB)
//       12     n  payload
//
// Requests (client -> server): PING, PUSH_UPDATES (a batch of Update
// triples addressed by stream *name*), PUSH_SUMMARY (a Site::EncodeSummary
// buffer, merged idempotently), QUERY (text set expression), STATS,
// SHUTDOWN, EXPLAIN (text set expression; answered with the query
// planner's plain-text plan/cache report). Responses (server -> client):
// PONG, ACK, RETRY_LATER (ingest backpressure — resend the same batch
// later), QUERY_RESULT, STATS_RESULT, EXPLAIN_RESULT, and ERROR (a code
// plus a human-readable message).
//
// Frames are self-delimiting, so a connection is a plain byte stream of
// concatenated frames. ScanFrame below is the one frame parser: every
// reader (the server's epoll loop, the router's connections, the client)
// accumulates bytes in an IngestArena (server/ingest_arena.h) and scans
// complete frames off its front, whatever the read() chunk boundaries.
// Header-level corruption (bad magic/version/reserved bits, oversized
// payload) poisons the stream — there is no resynchronization — while
// payload-level problems are reported per frame and leave the connection
// usable.

#ifndef SETSKETCH_SERVER_PROTOCOL_H_
#define SETSKETCH_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/sketch_config.h"
#include "distributed/summary_codec.h"
#include "query/plan_cache.h"
#include "server/wal.h"
#include "stream/update.h"
#include "util/thread_annotations.h"

namespace setsketch {

inline constexpr uint32_t kProtocolMagic = 0x534B4348u;  // "SKCH".
inline constexpr uint8_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// Frame type. Requests are < 128, responses >= 128.
enum class Opcode : uint8_t {
  kPing = 1,
  kPushUpdates = 2,
  kPushSummary = 3,
  kQuery = 4,
  kStats = 5,
  kShutdown = 6,
  kExplain = 7,
  kPullSummary = 8,   ///< Per-stream summary pull (the cluster router).
  kAddShard = 9,      ///< Router admin: join a shard to the hash ring.
  kDrainShard = 10,   ///< Router admin: migrate a shard out of the ring.
  kPullRepair = 11,   ///< Repair manifest pull (streams + dedup marks).
  kPushRepair = 12,   ///< Repair install (streams + dedup marks).

  kPong = 129,
  kAck = 130,
  kRetryLater = 131,
  kQueryResult = 132,
  kStatsResult = 133,
  kExplainResult = 134,
  kSummaryResult = 135,
  kRepairState = 136,  ///< Reply to PULL_REPAIR.
  kError = 192,
};

/// Human-readable opcode name ("PUSH_UPDATES"), "?" for unknown values.
const char* OpcodeName(Opcode opcode);

/// True iff `value` is one of the Opcode enumerators.
bool IsKnownOpcode(uint8_t value);

/// Error codes carried by ERROR frames.
enum class WireError : uint8_t {
  kNone = 0,
  kBadMagic = 1,
  kBadVersion = 2,
  kBadHeader = 3,        ///< Nonzero reserved bits.
  kOversizedPayload = 4,
  kUnknownOpcode = 5,
  kBadPayload = 6,       ///< Frame ok, payload failed to decode.
  kRejectedSummary = 7,  ///< Coordinator refused the site summary.
  kShuttingDown = 8,     ///< Server is draining; no new work accepted.
  kTooManyErrors = 9,    ///< Per-connection error budget exhausted.
  kWalFailure = 10,      ///< Write-ahead log append failed; batch refused.
  kConfigMismatch = 11,  ///< Peer's (params, copies, seed) disagree; its
                         ///< sketches are not combinable with ours.
  kNoHealthyShard = 12,  ///< Router: no live shard can own the stream.
  kBadMembership = 13,   ///< Router: add/drain request refused (duplicate
                         ///< name, unknown shard, static placement, ...).
};

/// Human-readable error-code name ("BAD_PAYLOAD").
const char* WireErrorName(WireError error);

/// One frame with an owned payload (the client's copy of a reply).
struct Frame {
  Opcode opcode = Opcode::kPing;
  std::string payload;
};

/// Serializes one frame (header + payload). `payload` must not exceed
/// kMaxPayloadBytes.
std::string EncodeFrame(Opcode opcode, std::string_view payload);

/// Borrowed view of one frame: `payload` points into the caller's read
/// buffer (a connection's IngestArena) and stays valid only until that
/// buffer is consumed or compacted.
struct FrameView {
  Opcode opcode = Opcode::kPing;
  std::string_view payload;
};

enum class FrameScanStatus {
  kNeedMore,  ///< `data` holds no complete frame yet.
  kFrame,     ///< *view was filled; *frame_bytes consumed from the front.
  kError,     ///< Header-level corruption; the stream is poisoned.
};

/// Scans the frame at the front of `data` without copying its payload,
/// checking magic, version, reserved bits and the payload cap (in that
/// order; the first failure sets *error and *error_message). On kFrame,
/// *view borrows from `data` and *frame_bytes is the full frame length
/// (header + payload). A stream that errored keeps erroring: the bad
/// header stays at the front until the reader closes the connection.
FrameScanStatus ScanFrame(std::string_view data, FrameView* view,
                          size_t* frame_bytes, WireError* error,
                          std::string* error_message) SETSKETCH_HOT_PATH;

// ---------------------------------------------------------------------------
// Payload codecs. Integers are LEB128 varints (util/varint.h), deltas are
// zigzag-mapped, doubles travel as their IEEE-754 bit pattern in a fixed
// 8-byte little-endian field.

/// PUSH_UPDATES payload: a batch of updates whose `stream` field indexes
/// `stream_names` (a batch-local id space; the server maps names to its
/// own dense ids). Layout: idempotency header (site id as varint length +
/// bytes, varint sequence), then varint #names, then each name as varint
/// length + bytes followed by its requested SketchBackendId byte (0 = no
/// preference: the server's default backend); varint #updates, then each
/// update as varint local stream index, varint element, varint
/// zigzag(delta). Nothing follows the last update.
///
/// The (site_id, sequence) pair is the exactly-once key: a client stamps
/// every batch with its site id and a per-site monotone sequence, and the
/// server's dedup window re-ACKs an already-applied sequence without
/// re-applying it, so retrying after a lost ACK is always safe. An empty
/// site id opts out of deduplication (anonymous pushes, e.g. fuzzers).
struct UpdateBatch {
  std::string site_id;
  uint64_t sequence = 0;
  std::vector<std::string> stream_names;
  std::vector<Update> updates;
  /// Requested backend per name (parallel to stream_names; decoders
  /// always fill it, 0 = no preference). Encoders accept an empty vector
  /// as "all 0".
  std::vector<uint8_t> stream_backends;
};
std::string EncodePushUpdates(const UpdateBatch& batch);
/// Encodes `batch`'s streams/updates under a caller-supplied idempotency
/// header, so a retry loop can restamp without copying the batch.
std::string EncodePushUpdates(const UpdateBatch& batch,
                              std::string_view site_id, uint64_t sequence);

/// A decoded PUSH_UPDATES payload: `site_id` and `stream_names` point
/// into the payload bytes; `updates` storage is owned and its capacity
/// reused across frames. Readers that keep a batch past the payload's
/// lifetime copy what they keep (the router's per-shard sub-batches).
struct UpdateBatchView {
  std::string_view site_id;
  uint64_t sequence = 0;
  std::vector<std::string_view> stream_names;
  std::vector<Update> updates;
  std::vector<uint8_t> stream_backends;  ///< Parallel to stream_names.
};
/// Zero-copy PUSH_UPDATES decoder — the one decoder the server, WAL
/// replay and the router share. The update triples decode through
/// DecodeVarintRun (util/varint_bulk.h) a chunk at a time; randomized
/// fuzz tests pin it, error strings included, against a field-by-field
/// ReadVarint reference.
bool DecodePushUpdates(std::string_view payload, UpdateBatchView* out,
                       std::string* error);

/// ERROR payload: varint code + message bytes (rest of payload).
std::string EncodeError(WireError error, std::string_view message);
struct ErrorInfo {
  WireError code = WireError::kNone;
  std::string message;
};
bool DecodeError(const std::string& payload, ErrorInfo* out);

/// ACK payload: varint accepted count (updates for PUSH_UPDATES, streams
/// merged for PUSH_SUMMARY) + u8 replaced flag (summary retransmission) +
/// u8 duplicate flag (the batch's (site, sequence) was already applied;
/// the server re-ACKed without re-applying).
struct AckInfo {
  uint64_t accepted = 0;
  bool replaced = false;
  bool duplicate = false;
};
std::string EncodeAck(const AckInfo& ack);
bool DecodeAck(const std::string& payload, AckInfo* out);

/// QUERY_RESULT payload: u8 status; if ok (bit 0x01), three 8-byte
/// doubles (estimate, interval lo, interval hi) + rendered expression
/// text; else the error message text. Bit 0x02 marks a degraded answer
/// (the router's `--read-policy available` served it from a partial
/// replica set).
struct QueryResultInfo {
  bool ok = false;
  bool degraded = false;   ///< Answer may not reflect all shards.
  std::string expression;  ///< Rendered form when ok.
  std::string error;       ///< Failure description when !ok.
  double estimate = 0.0;
  double lo = 0.0;  ///< ~95% confidence interval.
  double hi = 0.0;
};
std::string EncodeQueryResult(const QueryResultInfo& result);
bool DecodeQueryResult(const std::string& payload, QueryResultInfo* out);

/// The QUERY_RESULT of a planned answer to `query` — the one conversion
/// the server and the router share; `expression` is the compiled
/// display string. A failed estimate without a message reads
/// "estimation failed (no valid witness observations)".
QueryResultInfo PlannedQueryResult(const CompiledQuery& query,
                                   const PlanCache::Result& planned);

// ---------------------------------------------------------------------------
// Cluster handshake. A hello rides inside PING/PONG payloads, carrying
// the protocol feature byte plus the sender's sketch configuration — the
// deployment's "stored coins". A router refuses shards whose config is
// not == its own instead of silently merging incompatible coins. A PING
// whose payload is not a hello (a plain liveness ping) is echoed
// verbatim.

inline constexpr uint32_t kHelloRequestMagic = 0x534B4849u;   // "SKHI".
inline constexpr uint32_t kHelloResponseMagic = 0x534B484Fu;  // "SKHO".
/// Hello layout version: magic, version byte, feature byte, then the
/// configuration block (EncodeSketchConfig). Decoders refuse any other
/// version byte.
inline constexpr uint8_t kHelloVersion = 2;
/// Feature bit: the peer serves PULL_SUMMARY (cluster federation).
inline constexpr uint8_t kFeatureSummaryPull = 0x01;
/// Feature bit: the peer serves PULL_REPAIR/PUSH_REPAIR (anti-entropy
/// catch-up and membership migration).
inline constexpr uint8_t kFeatureRepair = 0x02;

/// A hello: feature bits plus the sender's configuration. Peers combine
/// synopses only when the configs are ==.
struct HelloInfo {
  uint8_t features = 0;
  SketchConfig config;
};
/// Encodes a hello as a PING (request) or PONG (response) payload.
std::string EncodeHello(const HelloInfo& hello, bool response);
/// Decodes a hello payload of the given direction. Returns false for
/// anything else: another version byte, a configuration
/// DecodeSketchConfig refuses, or a verbatim echo of the request payload
/// when `response` is set (the magics differ).
bool DecodeHello(const std::string& payload, bool response, HelloInfo* out);

// ---------------------------------------------------------------------------
// Summary pull (cluster federation). The router asks an owning shard for
// the compact per-stream sketch vectors it needs to answer a QUERY, and
// caches them keyed by the shard bank's (bank_id, stream epoch) pair —
// the same invalidation contract the plan cache uses. Each request key
// carries the router's cached identity so an unchanged stream costs one
// state byte, not a re-serialized summary.

/// PULL_SUMMARY payload: varint #streams, then per stream the name
/// (varint length + bytes), varint cached bank id, varint cached epoch
/// (0/0 = nothing cached).
struct SummaryPullRequest {
  struct Key {
    std::string name;
    uint64_t bank_id = 0;
    uint64_t epoch = 0;
  };
  std::vector<Key> streams;
};
std::string EncodeSummaryPull(const SummaryPullRequest& request);
bool DecodeSummaryPull(const std::string& payload, SummaryPullRequest* out,
                       std::string* error);

/// Per-stream outcome of a summary pull.
enum class SummaryState : uint8_t {
  kUnknown = 0,    ///< The shard does not hold this stream.
  kUnchanged = 1,  ///< Cached (bank_id, epoch) still current; no payload.
  kFull = 2,       ///< Fresh identity + the stream's synopsis follow.
};

/// SUMMARY_RESULT payload: varint #streams, then per stream the name
/// (varint length + bytes) and a state byte; kFull entries append varint
/// bank id, varint epoch and the stream's synopsis
/// (distributed/summary_codec.h).
struct SummaryResult {
  struct Entry {
    std::string name;
    SummaryState state = SummaryState::kUnknown;
    uint64_t bank_id = 0;
    uint64_t epoch = 0;
    StreamSummary summary;  ///< kFull only.
  };
  std::vector<Entry> streams;
};
std::string EncodeSummaryResult(const SummaryResult& result);
/// Decodes for `receiver`, the bank the entries will be installed in:
/// each synopsis must have its copy count, coins and backend options
/// (DecodeStreamSummary; a null receiver decodes declared shapes).
bool DecodeSummaryResult(const std::string& payload,
                         const SketchBank* receiver, SummaryResult* out,
                         std::string* error);
/// DecodeSummaryResult with a null receiver.
bool DecodeSummaryResult(const std::string& payload, SummaryResult* out,
                         std::string* error);

// ---------------------------------------------------------------------------
// Anti-entropy repair (cluster self-healing). The router diffs a stale
// shard against a healthy replica by pulling both sides' repair
// manifests (stream identities + per-site dedup high-watermarks), pulls
// the divergent streams' sketch vectors through the ordinary
// PULL_SUMMARY path, and installs them on the lagging shard with
// PUSH_REPAIR. The transferred dedup watermarks preserve the (site,
// sequence) exactly-once contract: a client retry that races the repair
// still dedupes on the repaired shard.

/// REPAIR_STATE payload (reply to an empty-payload PULL_REPAIR): varint
/// #streams, then per stream name + varint bank id + varint epoch; then
/// varint #sites, then per site the site id (varint length + bytes),
/// varint dedup high-watermark and varint recent-window bitmap.
struct RepairManifest {
  struct StreamInfo {
    std::string name;
    uint64_t bank_id = 0;
    uint64_t epoch = 0;
  };
  struct SiteWindow {
    std::string site_id;
    uint64_t high = 0;  ///< Highest sequence ever recorded for the site.
    uint64_t bits = 0;  ///< Bit i set => sequence (high - i) recorded.
  };
  std::vector<StreamInfo> streams;
  std::vector<SiteWindow> sites;
};
/// `index`'s windows as manifest site windows, in site order.
std::vector<RepairManifest::SiteWindow> SiteWindows(const DedupIndex& index);
/// Folds site windows into `index` (DedupIndex::MergeWindow).
void FoldSiteWindows(const std::vector<RepairManifest::SiteWindow>& sites,
                     DedupIndex* index);
std::string EncodeRepairManifest(const RepairManifest& manifest);
bool DecodeRepairManifest(const std::string& payload, RepairManifest* out,
                          std::string* error);

/// PUSH_REPAIR payload: u8 mode (0 = merge, 1 = replace), varint #sites
/// + site windows as in REPAIR_STATE, varint #streams, then per stream
/// the name and its synopsis (distributed/summary_codec.h).
/// Answered with an ACK whose `accepted` counts installed streams.
///
/// `replace_dedup` distinguishes the two users: crash repair REPLACES
/// the target's dedup index with the healthy sources' merged watermarks
/// (the target's own windows may cover batches the snapshot install just
/// clobbered, so keeping them would drop a client retry forever), while
/// membership migration MERGES (the destination's own windows cover
/// batches it really holds).
struct RepairInstall {
  bool replace_dedup = false;
  std::vector<RepairManifest::SiteWindow> sites;
  struct StreamState {
    std::string name;
    StreamSummary summary;
  };
  std::vector<StreamState> streams;
};
std::string EncodeRepairInstall(const RepairInstall& install);
/// Decodes for `receiver`, the bank the repair installs into: each
/// synopsis must have its copy count, coins and backend options.
bool DecodeRepairInstall(const std::string& payload,
                         const SketchBank& receiver, RepairInstall* out,
                         std::string* error);

// ---------------------------------------------------------------------------
// Online membership (router admin). ADD_SHARD joins a new shard to the
// consistent-hash ring; DRAIN_SHARD migrates a shard's ring segment away
// and removes it. Both are answered with an ACK whose `accepted` counts
// the streams migrated, or an ERROR (kBadMembership) when refused.

/// ADD_SHARD / DRAIN_SHARD payload: shard name (varint length + bytes),
/// host (same), varint port. DRAIN_SHARD ignores host/port.
struct ShardAdminRequest {
  std::string name;
  std::string host;
  int port = 0;
};
std::string EncodeShardAdmin(const ShardAdminRequest& request);
bool DecodeShardAdmin(const std::string& payload, ShardAdminRequest* out,
                      std::string* error);

}  // namespace setsketch

#endif  // SETSKETCH_SERVER_PROTOCOL_H_
