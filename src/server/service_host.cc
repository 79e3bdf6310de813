#include "server/service_host.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "server/socket_io.h"

namespace setsketch {

void AppendStatLine(std::string* out, std::string_view key,
                    std::string_view value) {
  out->append(key);
  out->push_back(' ');
  out->append(value);
  out->push_back('\n');
}

void AppendStatLine(std::string* out, std::string_view key, double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.2f", value);
  AppendStatLine(out, key, std::string_view(text));
}

ServiceHost::~ServiceHost() { CloseListener(); }

void ServiceHost::CloseListener() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

bool ServiceHost::Listen(const ServiceOptions& options, std::string* error) {
  options_ = options;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    CloseListener();
    return false;
  };
  const auto fail_errno = [&](const char* call) {
    return fail(std::string(call) + ": " + std::strerror(errno));
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail("invalid bind address '" + options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail_errno("bind");
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    return fail_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return true;
}

void ServiceHost::Serve(ConnectionBackend* backend) {
  backend_ = backend;
  acceptor_ = std::thread(&ServiceHost::AcceptLoop, this);
  started_at_ = std::chrono::steady_clock::now();
  MutexLock lock(&lifecycle_mutex_);
  started_ = true;
}

void ServiceHost::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listen socket was shut down: we are stopping.
    }
    if (draining_.load()) {
      ::close(fd);
      continue;
    }
    ++front_door_.connections_accepted;
    ++front_door_.connections_active;
    if (!backend_->Adopt(fd)) {
      ::close(fd);
      --front_door_.connections_active;
    }
  }
}

bool ServiceHost::StopServing() {
  {
    MutexLock lock(&lifecycle_mutex_);
    if (!started_ || stopped_) {
      stopped_ = true;
      return false;
    }
    if (stop_started_) {
      // Another thread is stopping; wait for it to finish.
      while (!stopped_) lifecycle_cv_.wait(lifecycle_mutex_);
      return false;
    }
    stop_started_ = true;
  }
  draining_.store(true);
  // Stop accepting: wake the blocked accept(), then close every
  // connection and join whatever served it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  backend_->Shutdown();
  return true;
}

void ServiceHost::FinishStop() {
  CloseListener();
  {
    MutexLock lock(&lifecycle_mutex_);
    stopped_ = true;
    shutdown_requested_ = true;
  }
  lifecycle_cv_.notify_all();
}

void ServiceHost::WaitForShutdown() {
  MutexLock lock(&lifecycle_mutex_);
  // Explicit loop (not a predicate lambda): the analysis treats lambda
  // bodies as separate, unlocked functions.
  while (!shutdown_requested_ && !stopped_) {
    lifecycle_cv_.wait(lifecycle_mutex_);
  }
}

uint64_t ServiceHost::uptime_ms() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_at_)
          .count());
}

std::string ServiceHost::Refuse(ServerConnection* connection, WireError code,
                                std::string_view message) {
  ++connection->errors;
  ++front_door_.protocol_errors;
  return ErrorFrame(code, message);
}

bool ServiceHost::ServeReadBatch(ServerConnection* connection,
                                 IngestArena* arena, size_t bytes) {
  // Parse every complete frame the arena holds. Payload views borrow from
  // the arena; each frame is consumed only after its handler returns.
  // Responses accumulate and leave in ONE send below.
  std::string responses;
  size_t frames = 0;
  bool open = true;
  bool shutdown = false;
  while (open) {
    FrameView frame;
    size_t frame_bytes = 0;
    WireError error = WireError::kNone;
    std::string error_message;
    const FrameScanStatus status = ScanFrame(arena->Unparsed(), &frame,
                                             &frame_bytes, &error,
                                             &error_message);
    if (status == FrameScanStatus::kNeedMore) break;
    if (status == FrameScanStatus::kError) {
      // Header-level corruption: no resync is possible. Report & close.
      ++front_door_.protocol_errors;
      responses += ErrorFrame(error, error_message);
      open = false;
      break;
    }
    ++frames;
    ++front_door_.frames_received;
    if (frame.opcode == Opcode::kShutdown) {
      // New work is refused from here while the acknowledged work drains.
      // Wait() is released only after the ACK is handed to the socket:
      // waking the Stop() thread first would let its shutdown(SHUT_RDWR)
      // sweep race ahead of the ACK.
      draining_.store(true);
      shutdown = true;
      responses += EncodeFrame(Opcode::kAck, EncodeAck(AckInfo{}));
    } else {
      responses += handler_->HandleFrame(frame, connection);
    }
    arena->Consume(frame_bytes);
    if (connection->errors >= options_.max_connection_errors) {
      responses += ErrorFrame(WireError::kTooManyErrors,
                              "connection error budget exhausted");
      open = false;
    }
  }
  handler_->OnReadBatch(bytes, frames, arena->high_watermark());
  if (!responses.empty() &&
      !SendAllWithDeadline(connection->fd, responses, options_.io_timeout_ms,
                           options_.fault_injector)
           .ok()) {
    open = false;
  }
  if (shutdown) {
    {
      MutexLock lock(&lifecycle_mutex_);
      shutdown_requested_ = true;
    }
    lifecycle_cv_.notify_all();
  }
  return open;
}

// ---------------------------------------------------------------------------
// ThreadPerConnection

bool ThreadPerConnection::Adopt(int fd) {
  MutexLock lock(&mutex_);
  if (stopping_) return false;
  // Spawned under the lock, so the thread finds its own entry when it
  // ends, however soon that is.
  running_.emplace(fd, std::thread(&ThreadPerConnection::Serve, this, fd));
  return true;
}

void ThreadPerConnection::Serve(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetNonBlocking(fd);
  constexpr size_t kReadChunkBytes = 1 << 16;
  IngestArena arena;
  ServerConnection connection;
  connection.fd = fd;
  bool open = true;
  while (open) {
    size_t received = 0;
    char* cursor = arena.WritePtr(kReadChunkBytes);
    if (!RecvSomeWithDeadline(fd, cursor, arena.write_capacity(),
                              idle_timeout_ms_, &received)
             .ok()) {
      break;
    }
    arena.CommitRead(received);
    open = host_->ServeReadBatch(&connection, &arena, received);
    arena.MaybeShrink(4 * kReadChunkBytes);
  }
  // Leave the map before closing (Shutdown must never shut a reused fd),
  // and join the thread whose connection ended before this one.
  std::thread previous;
  {
    MutexLock lock(&mutex_);
    const auto it = running_.find(fd);
    previous = std::exchange(finished_, std::move(it->second));
    running_.erase(it);
    if (running_.empty()) done_cv_.notify_all();
  }
  ::close(fd);
  host_->CountDisconnect();
  if (previous.joinable()) previous.join();
}

void ThreadPerConnection::Shutdown() {
  std::thread last;
  {
    MutexLock lock(&mutex_);
    stopping_ = true;
    for (const auto& [fd, thread] : running_) ::shutdown(fd, SHUT_RDWR);
    while (!running_.empty()) done_cv_.wait(mutex_);
    last = std::move(finished_);
  }
  // Each ended thread joined its predecessor before exiting, so joining
  // the last one joins them all.
  if (last.joinable()) last.join();
}

}  // namespace setsketch
