#include "server/epoll_backend.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "server/socket_io.h"

namespace setsketch {

bool PinCurrentThreadToCpu(int cpu) {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus <= 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<size_t>(cpu) % static_cast<size_t>(cpus), &set);
  return ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set) == 0;
}

EpollServerBackend::EpollServerBackend(const Options& options,
                                       ServiceHost* host)
    : options_(options), host_(host) {
  if (options_.io_threads < 1) options_.io_threads = 1;
  if (options_.read_chunk_bytes == 0) options_.read_chunk_bytes = 1u << 16;
}

EpollServerBackend::~EpollServerBackend() { Shutdown(); }

bool EpollServerBackend::Start(std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    for (const auto& loop : loops_) {
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    }
    loops_.clear();
    return false;
  };

  loops_.reserve(static_cast<size_t>(options_.io_threads));
  for (int i = 0; i < options_.io_threads; ++i) {
    loops_.push_back(std::make_unique<Loop>());
    Loop* loop = loops_.back().get();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) return fail("epoll_create1");
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->wake_fd < 0) return fail("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr marks the wake eventfd.
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev) != 0) {
      return fail("epoll_ctl");
    }
  }
  running_.store(true);
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread(&EpollServerBackend::LoopRun, this,
                                    loops_[i].get(), static_cast<int>(i));
  }
  return true;
}

bool EpollServerBackend::Adopt(int fd) {
  if (!running_.load() || stopping_.load()) return false;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetNonBlocking(fd);

  Loop* loop = loops_[next_loop_.fetch_add(1) % loops_.size()].get();
  auto state = std::make_unique<ConnState>();
  state->connection.fd = fd;
  state->last_activity = std::chrono::steady_clock::now();
  epoll_event ev{};
  ev.events = EPOLLIN;  // Level-triggered: re-fires while bytes remain.
  ev.data.ptr = state.get();
  // Publish and register under one lock: the io thread's idle sweep and
  // CloseConnection take the same lock, so they never see (or retire) a
  // connection whose epoll registration is still in flight.
  MutexLock lock(&loop->mutex);
  loop->connections.emplace(fd, std::move(state));
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    loop->connections.erase(fd);
    return false;
  }
  return true;
}

void EpollServerBackend::LoopRun(Loop* loop, int loop_index) {
  if (options_.pin_cpu_offset >= 0) {
    PinCurrentThreadToCpu(options_.pin_cpu_offset + loop_index);
  }
  std::array<epoll_event, 64> events;
  while (!stopping_.load()) {
    const int timeout_ms = options_.idle_timeout_ms > 0
                               ? std::max(1, options_.idle_timeout_ms / 4)
                               : -1;
    const int ready = ::epoll_wait(loop->epoll_fd, events.data(),
                                   static_cast<int>(events.size()),
                                   timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready && !stopping_.load(); ++i) {
      epoll_event& event = events[static_cast<size_t>(i)];
      if (event.data.ptr == nullptr) {
        uint64_t token = 0;
        [[maybe_unused]] const ssize_t drained =
            ::read(loop->wake_fd, &token, sizeof(token));
        continue;
      }
      HandleReadable(loop, static_cast<ConnState*>(event.data.ptr));
    }
    if (options_.idle_timeout_ms > 0) SweepIdle(loop);
  }
}

void EpollServerBackend::HandleReadable(Loop* loop, ConnState* state) {
  ServerConnection* connection = &state->connection;
  IngestArena& arena = state->arena;

  // One bounded recv per event keeps io threads fair across connections;
  // level-triggered epoll re-reports the fd while the socket holds more.
  char* cursor = arena.WritePtr(options_.read_chunk_bytes);
  const ssize_t received =
      ::recv(connection->fd, cursor, options_.read_chunk_bytes, 0);
  if (received < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    CloseConnection(loop, state);
    return;
  }
  if (received == 0) {  // Orderly EOF from the peer.
    CloseConnection(loop, state);
    return;
  }
  arena.CommitRead(static_cast<size_t>(received));
  state->last_activity = std::chrono::steady_clock::now();
  const bool open = host_->ServeReadBatch(connection, &arena,
                                          static_cast<size_t>(received));
  // Big frames transiently inflate the arena; once drained it falls back
  // to a bounded multiple of the read chunk so idle connections stay
  // cheap.
  arena.MaybeShrink(4 * options_.read_chunk_bytes);
  if (!open) CloseConnection(loop, state);
}

void EpollServerBackend::CloseConnection(Loop* loop, ConnState* state) {
  const int fd = state->connection.fd;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  host_->CountDisconnect();
  std::unique_ptr<ConnState> retired;
  {
    MutexLock lock(&loop->mutex);
    const auto it = loop->connections.find(fd);
    retired = std::move(it->second);
    loop->connections.erase(it);
  }
  ::close(fd);
}

void EpollServerBackend::SweepIdle(Loop* loop) {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<ConnState*> expired;
  {
    MutexLock lock(&loop->mutex);
    for (const auto& [fd, state] : loop->connections) {
      if (now - state->last_activity > limit) expired.push_back(state.get());
    }
  }
  for (ConnState* state : expired) CloseConnection(loop, state);
}

void EpollServerBackend::Shutdown() {
  MutexLock shutdown_lock(&shutdown_mutex_);
  if (!running_.load()) return;
  stopping_.store(true);
  for (const auto& loop : loops_) {
    {
      MutexLock lock(&loop->mutex);
      for (const auto& [fd, state] : loop->connections) {
        ::shutdown(fd, SHUT_RDWR);
      }
    }
    const uint64_t token = 1;
    [[maybe_unused]] const ssize_t woken =
        ::write(loop->wake_fd, &token, sizeof(token));
  }
  for (const auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // io threads are gone: close whatever connections they had not already
  // retired, reporting each disconnect exactly once. The per-loop lock is
  // uncontended now but keeps the guarded map access inside the checked
  // discipline.
  for (const auto& loop : loops_) {
    {
      MutexLock lock(&loop->mutex);
      for (const auto& [fd, state] : loop->connections) {
        host_->CountDisconnect();
        ::close(fd);
      }
      loop->connections.clear();
    }
    ::close(loop->epoll_fd);
    ::close(loop->wake_fd);
  }
  loops_.clear();
  running_.store(false);
}

}  // namespace setsketch
