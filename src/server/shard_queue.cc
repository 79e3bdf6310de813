#include "server/shard_queue.h"

#include "util/check.h"

namespace setsketch {

ShardQueue::ShardQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool ShardQueue::CanAccept() const {
  MutexLock lock(&mu_);
  return !stopped_ && in_flight_ < capacity_;
}

bool ShardQueue::Push(std::shared_ptr<const IngestBatch> batch) {
  {
    MutexLock lock(&mu_);
    if (stopped_) return false;
    // Producers admit batches only after CanAccept() under their own
    // mutex, so exceeding capacity means that protocol was broken and
    // the queue no longer bounds work in flight.
    SETSKETCH_DCHECK(in_flight_ < capacity_ || batch->probe != nullptr)
        << "Push past capacity:" << in_flight_ << "of" << capacity_;
    queue_.push_back(std::move(batch));
    ++in_flight_;
    ++pushed_;
  }
  pop_cv_.notify_one();
  return true;
}

std::shared_ptr<const IngestBatch> ShardQueue::PopOrWait() {
  MutexLock lock(&mu_);
  // Explicit wait loop (no predicate lambda): the analysis then sees the
  // guarded reads under the held capability, which a lambda body would not.
  while (!stopped_ && queue_.empty()) pop_cv_.wait(mu_);
  if (queue_.empty()) return nullptr;  // Stopped and drained.
  std::shared_ptr<const IngestBatch> batch = std::move(queue_.front());
  queue_.pop_front();
  return batch;
}

void ShardQueue::TaskDone() {
  {
    MutexLock lock(&mu_);
    // An unmatched TaskDone would free a capacity slot that was never
    // held, silently unbounding the queue — and underflowing the size_t.
    SETSKETCH_CHECK(in_flight_ > 0) << "TaskDone without a popped batch";
    --in_flight_;
    if (in_flight_ > 0) return;
  }
  drain_cv_.notify_all();
}

void ShardQueue::WaitDrained() {
  MutexLock lock(&mu_);
  while (in_flight_ != 0) drain_cv_.wait(mu_);
}

void ShardQueue::Stop() {
  {
    MutexLock lock(&mu_);
    stopped_ = true;
  }
  pop_cv_.notify_all();
  drain_cv_.notify_all();
}

ShardQueue::Stats ShardQueue::stats() const {
  MutexLock lock(&mu_);
  return Stats{pushed_, rejected_, in_flight_, capacity_};
}

void ShardQueue::CountRejected() {
  MutexLock lock(&mu_);
  ++rejected_;
}

}  // namespace setsketch
