// The service shell both TCP services run in: SketchServer and
// ClusterRouter. It holds what serving a port takes, whatever the
// service behind it:
//
//   * the listen socket and the accept thread, which refuses connections
//     once the service drains;
//   * the Start/Stop/Wait lifecycle and the uptime clock;
//   * the four front-door counters (connections accepted and active,
//     frames received, protocol errors);
//   * the one frame step every read batch takes (ServeReadBatch): scan
//     frames zero-copy out of the connection's arena, dispatch each to
//     the service, enforce the per-connection error budget, send the
//     batch's responses in one deadline-honoring send, and release
//     Wait() on SHUTDOWN only once its ACK is handed to the socket.
//
// A ConnectionBackend moves the bytes: the epoll loop
// (server/epoll_backend.h) for the server, or ThreadPerConnection below
// for the router, whose handlers block on shard round trips.
//
// STATS lists. Each service declares every line of its STATS report once,
// in order, in an X-macro list with three kinds of entry:
//
//   COUNTER(name)       an atomic the service increments; stats() loads it;
//   FRONT_DOOR(name)    one of this shell's counters (SETSKETCH_FRONT_DOOR);
//   VALUE(type, name)   a snapshot field stats() fills from other state.
//
// The SETSKETCH_STAT_* macros expand such a list into the service's
// counter atomics, its StatsSnapshot fields, the loads in its stats() and
// its STATS text, so a counter is named in exactly one place.

#ifndef SETSKETCH_SERVER_SERVICE_HOST_H_
#define SETSKETCH_SERVER_SERVICE_HOST_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "server/ingest_arena.h"
#include "server/protocol.h"
#include "util/thread_annotations.h"

namespace setsketch {

class FaultInjector;

/// The shell's counters, in the order they appear in every STATS report.
#define SETSKETCH_FRONT_DOOR(FRONT_DOOR) \
  FRONT_DOOR(connections_accepted)       \
  FRONT_DOOR(connections_active)         \
  FRONT_DOOR(frames_received)            \
  FRONT_DOOR(protocol_errors)

#define SETSKETCH_STAT_SKIP(...)
#define SETSKETCH_STAT_ATOMIC(name) std::atomic<uint64_t> name{0};
#define SETSKETCH_STAT_FIELD(name) uint64_t name = 0;
#define SETSKETCH_STAT_TYPED_FIELD(type, name) type name{};

#define SETSKETCH_STAT_LOAD_ONE(name) s.name = counters_.name.load();
#define SETSKETCH_STAT_LINE(name) AppendStatLine(&out, #name, s.name);
#define SETSKETCH_STAT_VALUE_LINE(type, name) SETSKETCH_STAT_LINE(name)

/// The atomics of a stats list's COUNTER entries.
#define SETSKETCH_STAT_COUNTERS(LIST) \
  LIST(SETSKETCH_STAT_ATOMIC, SETSKETCH_STAT_SKIP, SETSKETCH_STAT_SKIP)
/// The StatsSnapshot fields of every entry of a stats list.
#define SETSKETCH_STAT_FIELDS(LIST) \
  LIST(SETSKETCH_STAT_FIELD, SETSKETCH_STAT_FIELD, SETSKETCH_STAT_TYPED_FIELD)
/// In stats(), with the snapshot `s`: loads every COUNTER entry from the
/// member `counters_`.
#define SETSKETCH_STAT_LOAD(LIST) \
  LIST(SETSKETCH_STAT_LOAD_ONE, SETSKETCH_STAT_SKIP, SETSKETCH_STAT_SKIP)
/// In a STATS renderer, with the snapshot `s`: appends every entry's line
/// to the std::string `out`.
#define SETSKETCH_STAT_RENDER(LIST) \
  LIST(SETSKETCH_STAT_LINE, SETSKETCH_STAT_LINE, SETSKETCH_STAT_VALUE_LINE)

/// Appends the STATS line "key value\n"; integers print in decimal,
/// doubles with two decimals, text as is.
void AppendStatLine(std::string* out, std::string_view key,
                    std::string_view value);
void AppendStatLine(std::string* out, std::string_view key, double value);
template <typename T>
  requires std::is_integral_v<T>
void AppendStatLine(std::string* out, std::string_view key, T value) {
  AppendStatLine(out, key, std::string_view(std::to_string(value)));
}

/// The client-facing settings of a service.
struct ServiceOptions {
  /// TCP endpoint. Port 0 binds an ephemeral port (see port()).
  std::string bind_address = "127.0.0.1";
  int port = 0;
  int listen_backlog = 64;
  /// Recoverable (payload-level) protocol errors tolerated per
  /// connection before it is dropped with TOO_MANY_ERRORS.
  int max_connection_errors = 8;
  /// Deadline for sending any response frame; <= 0 = no deadline.
  int io_timeout_ms = 30000;
  /// Idle-connection deadline: a connection that received no bytes for
  /// this long is dropped. <= 0 = never.
  int idle_timeout_ms = 0;
  /// Test seam: injects faults into response sends.
  FaultInjector* fault_injector = nullptr;
};

/// Per-connection protocol state the frame handlers read and update.
struct ServerConnection {
  int fd = -1;
  int errors = 0;  ///< Recoverable protocol errors so far.
};

/// Moves a service's connections' bytes and runs the frame step on them.
class ConnectionBackend {
 public:
  virtual ~ConnectionBackend() = default;

  /// Takes an accepted socket. False if the backend is not running — the
  /// caller still owns (and closes) the fd.
  virtual bool Adopt(int fd) = 0;

  /// Closes every connection and joins the threads that served them.
  /// Idempotent.
  virtual void Shutdown() = 0;
};

class ServiceHost {
 public:
  /// A service's protocol hooks, run on the backend's threads. One
  /// connection's calls never overlap; different connections' calls do.
  class Handler {
   public:
    virtual ~Handler() = default;

    /// Dispatches one frame (any opcode but SHUTDOWN, which the shell
    /// answers) and returns the response bytes. frame.payload borrows
    /// from the connection's arena: it is valid only for this call.
    virtual std::string HandleFrame(const FrameView& frame,
                                    ServerConnection* connection) = 0;

    /// Accounting for one read batch: bytes drained, complete frames
    /// parsed out of them, and the arena's buffered high watermark.
    virtual void OnReadBatch(size_t /*bytes*/, size_t /*frames*/,
                             size_t /*arena_high_watermark*/) {}
  };

  explicit ServiceHost(Handler* handler) : handler_(handler) {}
  ~ServiceHost();

  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  /// Binds and listens. False, with *error filled and nothing left open,
  /// for an invalid address or a failed socket call.
  bool Listen(const ServiceOptions& options, std::string* error);

  /// Starts the accept thread, which hands every connection to `backend`,
  /// and marks the service started: Stop and Wait act from here on, and
  /// uptime counts from here.
  void Serve(ConnectionBackend* backend);

  /// Port actually bound (resolves ephemeral port 0); -1 before Listen.
  int port() const { return port_; }

  /// First half of a graceful stop. False, with nothing done, when the
  /// service never started or has stopped (after waiting out a stop that
  /// another thread runs). Otherwise sets draining, stops accepting and
  /// shuts the backend down, so no connection and no handler call is
  /// left; the service then drains its own work and calls FinishStop.
  bool StopServing();

  /// Completes the stop StopServing began: closes the listen socket and
  /// releases every Stop and Wait caller.
  void FinishStop();

  /// Blocks until a SHUTDOWN frame's ACK was sent or the service stopped.
  void WaitForShutdown();

  /// Set on SHUTDOWN and by Stop: the service refuses new work while the
  /// acknowledged work drains.
  bool draining() const { return draining_.load(); }

  uint64_t uptime_ms() const;

  /// Copies the front-door counters into a stats snapshot.
  template <typename Snapshot>
  void LoadFrontDoor(Snapshot* snapshot) const {
#define SETSKETCH_LOAD_FRONT_DOOR(name) \
  snapshot->name = front_door_.name.load();
    SETSKETCH_FRONT_DOOR(SETSKETCH_LOAD_FRONT_DOOR)
#undef SETSKETCH_LOAD_FRONT_DOOR
  }

  /// The ERROR frame answering a malformed request on `connection`: it
  /// counts against the connection's error budget and in protocol_errors.
  std::string Refuse(ServerConnection* connection, WireError code,
                     std::string_view message);

  /// The frame step for a connection whose arena just took `bytes` new
  /// bytes (see the header comment). Returns false when the connection
  /// must close: a corrupt header, an exhausted error budget or a failed
  /// send.
  bool ServeReadBatch(ServerConnection* connection, IngestArena* arena,
                      size_t bytes);

  /// A backend's connection ended.
  void CountDisconnect() { --front_door_.connections_active; }

 private:
  struct FrontDoorCounters {
    SETSKETCH_FRONT_DOOR(SETSKETCH_STAT_ATOMIC)
  };

  void AcceptLoop();
  void CloseListener();

  Handler* handler_;
  ServiceOptions options_;
  int listen_fd_ = -1;
  int port_ = -1;
  ConnectionBackend* backend_ = nullptr;
  std::thread acceptor_;
  FrontDoorCounters front_door_;
  std::atomic<bool> draining_{false};

  std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();  // Reset by Serve().
  Mutex lifecycle_mutex_;
  CondVar lifecycle_cv_;
  bool started_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
  bool shutdown_requested_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
  bool stop_started_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
  bool stopped_ SETSKETCH_GUARDED_BY(lifecycle_mutex_) = false;
};

/// Serves each connection on a thread of its own, blocking in recv with
/// the idle deadline, for a service whose handlers block. A connection's
/// thread is joined as soon as the next connection ends (or by
/// Shutdown), so at most one exited thread is left unjoined: its stack is
/// released rather than kept mapped until the service stops.
class ThreadPerConnection : public ConnectionBackend {
 public:
  /// `idle_timeout_ms` <= 0 waits for bytes forever.
  ThreadPerConnection(ServiceHost* host, int idle_timeout_ms)
      : host_(host), idle_timeout_ms_(idle_timeout_ms) {}
  ~ThreadPerConnection() override { Shutdown(); }

  bool Adopt(int fd) override;
  void Shutdown() override;

 private:
  void Serve(int fd);

  ServiceHost* host_;
  int idle_timeout_ms_;
  Mutex mutex_;
  CondVar done_cv_;
  bool stopping_ SETSKETCH_GUARDED_BY(mutex_) = false;
  /// Threads of the open connections, by fd; an fd leaves the map before
  /// it is closed, so Shutdown never touches a reused descriptor.
  std::unordered_map<int, std::thread> running_ SETSKETCH_GUARDED_BY(mutex_);
  /// The thread whose connection ended last, for the next one to join.
  std::thread finished_ SETSKETCH_GUARDED_BY(mutex_);
};

}  // namespace setsketch

#endif  // SETSKETCH_SERVER_SERVICE_HOST_H_
