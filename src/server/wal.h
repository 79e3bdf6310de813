// Write-ahead log + checkpoint persistence for the sketch server.
//
// Durability contract: the server appends every accepted PUSH_UPDATES batch
// (its raw wire payload plus the (site, sequence) idempotency key) to the
// WAL and fsyncs *before* acknowledging, so an ACKed batch survives a
// kill -9. Because 2-level hash sketches are linear, replaying surviving
// batches in any order reproduces the exact pre-crash counters — recovery
// is bit-faithful, not approximate.
//
// Layout inside the WAL directory:
//
//   wal-<shard>-<generation>.log   appended segments (shard spreads the
//                                  fsync load across files; generation
//                                  increases at every checkpoint rotation
//                                  and every server start)
//   checkpoint                     latest durable snapshot (see below)
//   checkpoint.tmp                 in-flight snapshot (atomic rename)
//
// Segment format: 4-byte magic "SKWL", u8 version (2); then records, each
//
//   u32 body_length | u32 crc32c(body) | body
//   body = varint site-id length + bytes, varint sequence,
//          raw PUSH_UPDATES wire payload (rest of body)
//
// A torn tail (partial record from a crash mid-append) or a CRC mismatch
// ends replay of that segment at the last valid record; other segments
// still replay. A segment too short for its header, or with another
// magic, is torn too (a crash during segment creation); a complete header
// with another version byte fails replay, because its records are
// acknowledged batches this build cannot read. Generations make compaction crash-safe without byte
// offsets: a checkpoint records the highest generation it covers, and
// recovery replays only segments of *later* generations, so a crash
// between checkpoint rename and segment deletion can never double-apply
// (the stale segments are simply skipped, then deleted by the next
// compaction).
//
// The checkpoint file is "SKCP", u8 version (2), u32 body_length, u32
// crc32c(body); body = varint covered generation, the encoded dedup
// index, and an embedded engine snapshot (the SaveSnapshot byte format of
// src/query/stream_engine.h). Another version byte is refused. It is written to checkpoint.tmp, fsynced,
// renamed over checkpoint, and the directory fsynced — readers see either
// the old or the new checkpoint, never a mix.

#ifndef SETSKETCH_SERVER_WAL_H_
#define SETSKETCH_SERVER_WAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace setsketch {

/// Sliding dedup window for one site: the high-water sequence plus a
/// 64-bit bitmap of recently seen sequences below it. Sequences at or
/// below high - 64 are conservatively reported as seen — a client that
/// retries a batch never lags its own high-water mark by more than the
/// retry pipeline depth (1 here), so the window only ever misreports for
/// peers violating the protocol's monotone-stamping rule.
class DedupWindow {
 public:
  /// True iff `sequence` was recorded before (or fell below the window).
  SETSKETCH_HOT_PATH bool Seen(uint64_t sequence) const;

  /// Marks `sequence` as applied.
  SETSKETCH_HOT_PATH void Record(uint64_t sequence);

  uint64_t high() const { return high_; }
  uint64_t bits() const { return bits_; }

  /// Reinstates persisted state (checkpoint restore).
  void Restore(uint64_t high, uint64_t bits) {
    high_ = high;
    bits_ = bits;
  }

  /// Folds another window's state in: afterwards Seen() holds for every
  /// sequence either side had recorded (modulo the shared below-window
  /// conservatism). Used by repair/migration watermark transfer.
  void Merge(uint64_t high, uint64_t bits);

 private:
  uint64_t high_ = 0;  // Highest recorded sequence; 0 = none yet.
  uint64_t bits_ = 0;  // Bit i set => sequence high_ - i recorded.
};

/// Per-site dedup windows, the unit persisted in checkpoints. Not
/// thread-safe; the server guards it with its admission lock so the
/// seen-check and the apply decision are one atomic step.
class DedupIndex {
 public:
  /// string_view keys: the ingest fast path checks/records straight from
  /// frame payload views without materializing the site id.
  SETSKETCH_HOT_PATH bool Seen(std::string_view site_id,
                               uint64_t sequence) const;
  void Record(std::string_view site_id, uint64_t sequence);

  size_t num_sites() const { return windows_.size(); }

  /// Total set bits across all per-site windows — how much of the sliding
  /// dedup capacity is holding recently-seen sequences (STATS exposure).
  uint64_t OccupiedBits() const;

  void EncodeTo(std::string* out) const;
  /// Decodes at (*data)[*offset], advancing it. False on malformed input.
  bool DecodeFrom(const std::string& data, size_t* offset);

  /// Visits every site window in key order (repair manifest export).
  void ForEachWindow(
      const std::function<void(std::string_view site_id, uint64_t high,
                               uint64_t bits)>& fn) const;

  /// Folds one site's transferred window in, creating it if absent
  /// (repair/migration watermark install).
  void MergeWindow(std::string_view site_id, uint64_t high, uint64_t bits);

  /// Drops every window. Crash repair installs a replacement set: the
  /// stale shard's own windows may cover batches the snapshot install
  /// just clobbered, so keeping them would drop a client retry forever.
  void Clear() { windows_.clear(); }

 private:
  // std::less<> enables lookups by string_view without a key copy.
  std::map<std::string, DedupWindow, std::less<>> windows_;
};

/// One durable batch: the idempotency key and the raw wire payload.
struct WalRecord {
  std::string site_id;
  uint64_t sequence = 0;
  std::string payload;  // PUSH_UPDATES wire payload, undecoded.
};

/// Counters from a recovery replay.
struct WalReplayStats {
  uint64_t segments_read = 0;
  uint64_t records_replayed = 0;
  uint64_t bytes_replayed = 0;
  uint64_t torn_segments = 0;  // Segments ended by a torn/corrupt record.
};

/// Append side of the log. Thread-safe appends (per-shard mutex); one Wal
/// instance owns the current generation's segment files.
class Wal {
 public:
  struct Options {
    std::string dir;
    size_t shards = 2;
    bool fsync = true;  // Tests/benches may trade durability for speed.
  };

  /// Opens a fresh generation strictly above both `checkpoint_generation`
  /// and every segment already on disk. Creates the directory if needed.
  /// Returns nullptr with `*error` set on I/O failure.
  static std::unique_ptr<Wal> Open(const Options& options,
                                   uint64_t checkpoint_generation,
                                   std::string* error);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Durably appends one record (round-robin across shard segments,
  /// fsync before returning when Options::fsync). False + *error on
  /// failure; a failed append refuses the batch upstream.
  bool Append(const WalRecord& record, std::string* error)
      SETSKETCH_EXCLUDES(mutex_);

  /// Same, from borrowed key + payload bytes (the ingest fast path
  /// appends straight from a frame view without building a WalRecord).
  /// Byte-identical log output to the WalRecord overload.
  bool Append(std::string_view site_id, uint64_t sequence,
              std::string_view payload, std::string* error)
      SETSKETCH_EXCLUDES(mutex_);

  /// Starts a new generation (fresh segment files); returns the previous
  /// generation, which a checkpoint taken *after* the rotation covers.
  /// False + *error on I/O failure (the old generation stays current).
  bool Rotate(uint64_t* previous_generation, std::string* error)
      SETSKETCH_EXCLUDES(mutex_);

  /// Deletes every segment with generation <= covered_generation.
  void Compact(uint64_t covered_generation);

  uint64_t generation() const SETSKETCH_EXCLUDES(mutex_);
  uint64_t records_appended() const SETSKETCH_EXCLUDES(mutex_);
  uint64_t bytes_appended() const SETSKETCH_EXCLUDES(mutex_);

  /// Replays all segments with generation > checkpoint_generation in
  /// (generation, shard) order, invoking `apply` per valid record. Stops
  /// each segment at its first torn or CRC-failing record. False +
  /// *error on environmental failure (unreadable directory) and on a
  /// segment of another version ("wal segment <path>: unsupported
  /// version N"); the server then refuses to start.
  static bool Replay(const std::string& dir, uint64_t checkpoint_generation,
                     const std::function<void(const WalRecord&)>& apply,
                     WalReplayStats* stats, std::string* error);

 private:
  struct Shard;

  Wal(const Options& options, uint64_t generation);

  // Both touch every Shard::fd. Sound without the analysis: they run
  // either before the Wal is published (constructor / Open) or from
  // Rotate / the destructor with every shard lock held — a lock set of
  // dynamic cardinality the analysis cannot express.
  bool OpenShardFiles(std::string* error) SETSKETCH_NO_THREAD_SAFETY_ANALYSIS;
  void CloseShardFiles() SETSKETCH_NO_THREAD_SAFETY_ANALYSIS;

  Options options_;
  mutable Mutex mutex_;  // generation_ + counters + rotation.
  uint64_t generation_ SETSKETCH_GUARDED_BY(mutex_) = 0;
  uint64_t next_shard_ SETSKETCH_GUARDED_BY(mutex_) = 0;
  uint64_t records_appended_ SETSKETCH_GUARDED_BY(mutex_) = 0;
  uint64_t bytes_appended_ SETSKETCH_GUARDED_BY(mutex_) = 0;
  // Sized in the constructor and never resized after; each Shard's own
  // mutex guards its file descriptor. Lock order: mutex_ before any
  // Shard::mutex (Append picks the shard under mutex_, then writes under
  // the shard's mutex).
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// The durable snapshot that compaction folds the log into.
struct Checkpoint {
  uint64_t covered_generation = 0;
  DedupIndex dedup;
  std::string engine_snapshot;  // EncodeEngineSnapshot bytes.
};

/// Atomically (tmp + rename + directory fsync) persists `checkpoint`.
bool WriteCheckpoint(const std::string& dir, const Checkpoint& checkpoint,
                     bool fsync, std::string* error);

/// Loads the checkpoint. Returns false with empty *error when none
/// exists, false with *error set when the file is corrupt (startup should
/// refuse: segments covered by it may already be deleted).
bool ReadCheckpoint(const std::string& dir, Checkpoint* out,
                    std::string* error);

}  // namespace setsketch

#endif  // SETSKETCH_SERVER_WAL_H_
