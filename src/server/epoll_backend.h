// Batched epoll I/O loop serving every sketch-server connection; the
// service shell's acceptor (server/service_host.h) adopts each one here:
//
//   * a small set of io threads multiplex all connections over
//     level-triggered epoll instead of parking one thread per peer;
//   * each readable event drains up to one read chunk into the
//     connection's IngestArena, typically carrying MANY complete frames
//     per syscall;
//   * the shell's frame step (ServiceHost::ServeReadBatch) parses the
//     frames zero-copy, dispatches them and sends the batch's responses
//     in one deadline-honoring send.
//
// The backend owns the socket lifecycle after Adopt(): it closes fds and
// reports disconnects. What a frame means is the shell's and the
// service's business.

#ifndef SETSKETCH_SERVER_EPOLL_BACKEND_H_
#define SETSKETCH_SERVER_EPOLL_BACKEND_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/ingest_arena.h"
#include "server/service_host.h"
#include "util/thread_annotations.h"

namespace setsketch {

/// Pins the calling thread to `cpu` (mod the machine's CPU count).
/// Returns false if the affinity call fails; callers treat pinning as
/// best-effort.
bool PinCurrentThreadToCpu(int cpu);

class EpollServerBackend : public ConnectionBackend {
 public:
  struct Options {
    /// Event-loop threads; connections are spread round-robin.
    int io_threads = 1;
    /// Max bytes drained per readable event (the arena's steady-state
    /// capacity; frames larger than this still work via arena growth).
    size_t read_chunk_bytes = 256u << 10;
    /// Connections without traffic for this long are dropped; <= 0 =
    /// never.
    int idle_timeout_ms = 0;
    /// First CPU for io-thread pinning (thread i -> cpu offset + i,
    /// mod CPU count); < 0 disables pinning.
    int pin_cpu_offset = -1;
  };

  EpollServerBackend(const Options& options, ServiceHost* host);
  ~EpollServerBackend() override;

  EpollServerBackend(const EpollServerBackend&) = delete;
  EpollServerBackend& operator=(const EpollServerBackend&) = delete;

  /// Creates the epoll instances and spawns the io threads. False +
  /// *error on failure (nothing is left running).
  bool Start(std::string* error);

  /// Transfers ownership of an accepted, connected socket to an io
  /// thread (round-robin). Returns false if the backend is not running —
  /// the caller still owns (and should close) the fd.
  bool Adopt(int fd) override;

  /// Stops the io threads, closes every adopted connection (reporting
  /// each disconnect) and joins. Idempotent.
  void Shutdown() override;

 private:
  struct ConnState {
    ServerConnection connection;
    IngestArena arena;
    std::chrono::steady_clock::time_point last_activity;
  };

  struct Loop {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd: Adopt/Shutdown wakeups.
    std::thread thread;
    Mutex mutex;  // Guards `connections` (Adopt vs loop thread).
    std::unordered_map<int, std::unique_ptr<ConnState>> connections
        SETSKETCH_GUARDED_BY(mutex);
  };

  void LoopRun(Loop* loop, int loop_index);
  /// One readable event: drain a chunk, then the shell's frame step.
  void HandleReadable(Loop* loop, ConnState* state);
  void CloseConnection(Loop* loop, ConnState* state);
  void SweepIdle(Loop* loop);

  Options options_;
  ServiceHost* host_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<size_t> next_loop_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  Mutex shutdown_mutex_;  // Serializes (idempotent) Shutdown calls.
};

}  // namespace setsketch

#endif  // SETSKETCH_SERVER_EPOLL_BACKEND_H_
