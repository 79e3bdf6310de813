// Batched epoll I/O loop serving every sketch-server connection; the
// server's acceptor adopts each one here:
//
//   * a small set of io threads multiplex all connections over
//     level-triggered epoll instead of parking one thread per peer;
//   * each readable event drains up to one read chunk into the
//     connection's IngestArena, typically carrying MANY complete frames
//     per syscall;
//   * frames are parsed zero-copy (protocol.h ScanFrame): the handler
//     sees payload string_views borrowing from the arena, valid for the
//     duration of the callback;
//   * response frames for the whole read batch accumulate into one
//     buffer and leave in one deadline-honoring send (through the fault
//     injector seam, so the chaos tests drive this path too).
//
// The backend owns the socket lifecycle after Adopt(): it closes fds,
// reports disconnects, and enforces the per-connection error budget. All
// protocol semantics live in the Handler (the server): what a frame
// does, what a header error answers, when the lifecycle learns about
// SHUTDOWN.

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
#include "server/protocol.h"
#include "util/thread_annotations.h"

namespace setsketch {

class FaultInjector;

/// Pins the calling thread to `cpu` (mod the machine's CPU count).
/// Returns false if the affinity call fails; callers treat pinning as
/// best-effort.
bool PinCurrentThreadToCpu(int cpu);

/// Per-connection protocol state the server's frame handlers read and
/// update.
struct ServerConnection {
  int fd = -1;
  int errors = 0;  ///< Recoverable protocol errors so far.
  uint64_t frames = 0;
  /// SHUTDOWN was handled on this connection: the lifecycle wait is
  /// released only after the ACK is queued on the socket, so Stop()'s
  /// shutdown(SHUT_RDWR) sweep can never cut the client off before
  /// the ACK bytes are in flight.
  bool notify_shutdown = false;
};

class EpollServerBackend {
 public:
  struct Options {
    /// Event-loop threads; connections are spread round-robin.
    int io_threads = 1;
    /// Max bytes drained per readable event (the arena's steady-state
    /// capacity; frames larger than this still work via arena growth).
    size_t read_chunk_bytes = 256u << 10;
    /// Deadline for flushing a read batch's responses; <= 0 = none.
    int io_timeout_ms = 30000;
    /// Connections without traffic for this long are dropped; <= 0 =
    /// never.
    int idle_timeout_ms = 0;
    /// Recoverable (payload-level) errors tolerated per connection
    /// before it is dropped with TOO_MANY_ERRORS.
    int max_connection_errors = 8;
    /// First CPU for io-thread pinning (thread i -> cpu offset + i,
    /// mod CPU count); < 0 disables pinning.
    int pin_cpu_offset = -1;
    /// Test seam: injects faults into response sends.
    FaultInjector* fault_injector = nullptr;
  };

  /// Protocol callbacks, all invoked on io threads. A connection's
  /// callbacks are never concurrent with each other (one loop owns it),
  /// but different connections' callbacks are.
  class Handler {
   public:
    virtual ~Handler() = default;

    /// Dispatches one frame; appends any response bytes to *responses.
    /// frame.payload borrows from the connection's arena — valid only
    /// for this call. Clearing *keep_open closes after the flush.
    virtual void OnFrame(const FrameView& frame,
                         ServerConnection* connection,
                         std::string* responses, bool* keep_open) = 0;

    /// Header-level corruption (stream poisoned): append a final error
    /// frame; the backend closes the connection after the flush.
    virtual void OnStreamError(WireError error, const std::string& message,
                               ServerConnection* connection,
                               std::string* responses) = 0;

    /// The read batch's responses were handed to the socket (whether or
    /// not the send fully succeeded) — the hook that keeps "notify
    /// lifecycle after the SHUTDOWN ACK is in flight" true.
    virtual void OnResponsesSent(ServerConnection* connection) = 0;

    /// Accounting for one completed readable event: bytes drained,
    /// complete frames parsed out of them, and the arena's buffered
    /// high watermark.
    virtual void OnReadBatch(size_t bytes, size_t frames,
                             size_t arena_high_watermark) = 0;

    /// The connection is gone (peer close, error, shutdown); fd is
    /// closed by the backend after this returns.
    virtual void OnDisconnect(ServerConnection* connection) = 0;
  };

  EpollServerBackend(const Options& options, Handler* handler);
  ~EpollServerBackend();

  EpollServerBackend(const EpollServerBackend&) = delete;
  EpollServerBackend& operator=(const EpollServerBackend&) = delete;

  /// Creates the epoll instances and spawns the io threads. False +
  /// *error on failure (nothing is left running).
  bool Start(std::string* error);

  /// Transfers ownership of an accepted, connected socket to an io
  /// thread (round-robin). Returns false if the backend is not running —
  /// the caller still owns (and should close) the fd.
  bool Adopt(int fd);

  /// Stops the io threads, closes every adopted connection (reporting
  /// each disconnect) and joins. Idempotent.
  void Shutdown();

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
  /// One readable event: drain a chunk, parse frames, flush responses.
  void HandleReadable(Loop* loop, ConnState* state);
  void CloseConnection(Loop* loop, ConnState* state);
  void SweepIdle(Loop* loop);

  Options options_;
  Handler* handler_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<size_t> next_loop_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  Mutex shutdown_mutex_;  // Serializes (idempotent) Shutdown calls.
};

}  // namespace setsketch

#endif  // SETSKETCH_SERVER_EPOLL_BACKEND_H_
