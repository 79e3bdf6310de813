// Bounded MPSC batch queues for the server's sharded ingest pipeline.
//
// The server shards ingest the way query/parallel_ingest.h does: by sketch
// *copy range*. Every accepted batch is enqueued to all shards; shard t
// applies each update only to copies [t*r/S, (t+1)*r/S) of the addressed
// stream, so every counter is owned by exactly one worker and the merged
// result is bit-identical to serial ingest. The io threads are the
// (multiple) producers, one worker thread per shard is the consumer.
//
// The queue is explicitly bounded: a batch counts against the capacity
// from Push() until the worker's TaskDone(), so capacity limits *work in
// flight*, not just queued buffers. When any shard is full the server
// answers RETRY_LATER instead of blocking the socket — backpressure is a
// protocol-visible event, never a stalled connection.

#ifndef SETSKETCH_SERVER_SHARD_QUEUE_H_
#define SETSKETCH_SERVER_SHARD_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/sketch_bank.h"
#include "util/thread_annotations.h"

namespace setsketch {

/// One accepted PUSH_UPDATES batch, resolved against the server's stream
/// registry and grouped by stream: each StreamBatch pairs the bank's
/// storage for one stream (stable — SketchBank's maps are node-based, so
/// later stream registrations never move it) with the batch's updates
/// addressed to it, in arrival order. Grouping happens once at resolve
/// time; every shard worker then streams each group through the batched
/// kernel over its copy range. Alternative-backend groups are applied by
/// shard worker 0 only — a DistinctSketch has no independent copy ranges
/// to shard over.
struct IngestBatch {
  std::vector<StreamBatch> groups;
  size_t num_updates = 0;  ///< Total items across groups.
  /// Set on a query's probe task instead of updates: every shard worker
  /// calls it with its shard index once the batches queued before it
  /// are applied, so it reads the copies that worker owns, quiesced.
  std::function<void(int shard)> probe;
};

/// Bounded FIFO of shared batches for one ingest shard.
class ShardQueue {
 public:
  explicit ShardQueue(size_t capacity);

  /// True iff a Push would currently be admitted. The server checks all
  /// shards under one producer-side mutex before pushing to any, so a
  /// batch is enqueued to every shard or to none.
  bool CanAccept() const SETSKETCH_EXCLUDES(mu_);

  /// Enqueues unconditionally (caller checked CanAccept under its producer
  /// mutex). Returns false only after Stop(). A probe task may take a
  /// slot past capacity: its caller holds the producer mutex until the
  /// task is done, so no producer sees the extra slot.
  bool Push(std::shared_ptr<const IngestBatch> batch) SETSKETCH_EXCLUDES(mu_);

  /// Blocks for the next batch. Returns nullptr once the queue was
  /// Stop()ped AND fully drained — pending batches are always delivered,
  /// which is what makes shutdown lose nothing that was acknowledged.
  std::shared_ptr<const IngestBatch> PopOrWait() SETSKETCH_EXCLUDES(mu_);

  /// Worker signals that the batch from the last PopOrWait is fully
  /// applied; releases its capacity slot.
  void TaskDone() SETSKETCH_EXCLUDES(mu_);

  /// Blocks until no batch is queued or being applied. Producers must be
  /// quiesced by the caller (the server holds its push mutex), otherwise
  /// this is only a momentary truth.
  void WaitDrained() SETSKETCH_EXCLUDES(mu_);

  /// No further pushes; wakes the worker so it can drain and exit.
  void Stop() SETSKETCH_EXCLUDES(mu_);

  struct Stats {
    uint64_t pushed = 0;    ///< Batches admitted.
    uint64_t rejected = 0;  ///< CanAccept==false observations (by server).
    size_t depth = 0;       ///< Batches in flight right now.
    size_t capacity = 0;
  };
  Stats stats() const SETSKETCH_EXCLUDES(mu_);

  /// Server-side accounting hook for a batch bounced with RETRY_LATER.
  void CountRejected() SETSKETCH_EXCLUDES(mu_);

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar pop_cv_;
  CondVar drain_cv_;
  std::deque<std::shared_ptr<const IngestBatch>> queue_
      SETSKETCH_GUARDED_BY(mu_);
  size_t in_flight_ SETSKETCH_GUARDED_BY(mu_) = 0;  // Queued + not-TaskDone.
  bool stopped_ SETSKETCH_GUARDED_BY(mu_) = false;
  uint64_t pushed_ SETSKETCH_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ SETSKETCH_GUARDED_BY(mu_) = 0;
};

}  // namespace setsketch

#endif  // SETSKETCH_SERVER_SHARD_QUEUE_H_
