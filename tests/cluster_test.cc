// End-to-end tests for the cluster subsystem (src/cluster/): the hello
// handshake and config-mismatch refusal, the PULL_SUMMARY epoch cache,
// federated queries answering bit-identically to a fault-free single
// node, and the chaos path — kill the owning shard mid-ingest, fail
// reads over to the replica, restart on the WAL, re-push through the
// dedup window, and verify the federated answer never drifts.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_commands.h"
#include "cluster/cluster_router.h"
#include "cluster/hash_ring.h"
#include "core/sketch_backend.h"
#include "frame_reader.h"
#include "server/fault_injector.h"
#include "server/sketch_client.h"
#include "server/sketch_server.h"
#include "stream/update.h"

namespace setsketch {
namespace {

constexpr uint64_t kMasterSeed = 20030609;
constexpr int kCopies = 48;

SketchParams TestParams() {
  SketchParams params;
  params.levels = 20;
  params.num_second_level = 16;
  return params;
}

SketchServer::Options ShardOptions(const std::string& wal_dir = "") {
  SketchServer::Options options;
  options.params = TestParams();
  options.copies = kCopies;
  options.seed = kMasterSeed;
  options.shards = 2;
  options.queue_capacity = 64;
  options.witness.pool_all_levels = true;
  options.wal_dir = wal_dir;
  return options;
}

ClusterRouter::Options RouterOptions(
    const std::vector<const SketchServer*>& shards) {
  ClusterRouter::Options options;
  for (size_t i = 0; i < shards.size(); ++i) {
    ClusterShard shard;
    shard.name = "s" + std::to_string(i);
    shard.host = "127.0.0.1";
    shard.port = shards[i]->port();
    options.shards.push_back(shard);
  }
  options.replicas = 1;
  options.params = TestParams();
  options.copies = kCopies;
  options.seed = kMasterSeed;
  options.witness.pool_all_levels = true;
  options.shard_connect_timeout_ms = 1000;
  options.shard_io_timeout_ms = 5000;
  return options;
}

std::unique_ptr<SketchClient> MustConnect(int port,
                                          const std::string& site = "") {
  SketchClient::Options options;
  options.port = port;
  options.site_id = site;
  std::string error;
  auto client = SketchClient::Connect(options, &error);
  EXPECT_NE(client, nullptr) << error;
  return client;
}

std::filesystem::path FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Deterministic three-stream batch with churn (some deletions).
UpdateBatch MakeBatch(int index, int per_batch = 64) {
  UpdateBatch batch;
  batch.stream_names = {"A", "B", "C"};
  batch.updates.reserve(static_cast<size_t>(per_batch));
  for (int i = 0; i < per_batch; ++i) {
    const uint64_t element =
        static_cast<uint64_t>(index * per_batch + i) * 2654435761ULL + 11;
    const StreamId stream = static_cast<StreamId>((index + i) % 3);
    const int64_t delta = i % 9 == 8 ? -1 : 1;
    batch.updates.push_back(Update{stream, element, delta});
  }
  return batch;
}

const char* const kExpressions[] = {
    "(A - B) & C",
    "A | (B & C)",
    "(A | B | C) - (A & B)",
};

/// Asserts the router and the reference server answer every probe
/// expression with EXACTLY the same estimate and interval — the
/// bit-identity bar from the stored-coins model.
void ExpectAnswersMatchReference(SketchClient& via_router,
                                 SketchClient& via_reference) {
  for (const char* expression : kExpressions) {
    const QueryResultInfo fed = via_router.Query(expression);
    const QueryResultInfo ref = via_reference.Query(expression);
    ASSERT_TRUE(ref.ok) << expression << ": " << ref.error;
    ASSERT_TRUE(fed.ok) << expression << ": " << fed.error;
    EXPECT_EQ(fed.estimate, ref.estimate) << expression;
    EXPECT_EQ(fed.lo, ref.lo) << expression;
    EXPECT_EQ(fed.hi, ref.hi) << expression;
  }
}

/// A loopback shard: relays each request frame to a real server and its
/// reply back, passing SUMMARY_RESULT replies through a rewrite hook
/// while one is set. It can also hold one REPAIR_STATE reply (the answer
/// to PULL_REPAIR) until released, and bounce one PUSH_UPDATES with
/// RETRY_LATER without forwarding it. Requests and replies alternate one
/// to one, as on every router-to-shard connection.
class RewritingProxy {
 public:
  using Rewrite = std::function<void(SummaryResult*)>;

  explicit RewritingProxy(int upstream_port)
      : upstream_port_(upstream_port) {}
  ~RewritingProxy() { Stop(); }

  bool Start() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = Loopback(0);
    socklen_t length = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 8) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &length) != 0) {
      return false;
    }
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] { AcceptLoop(); });
    return true;
  }

  void Stop() {
    if (listen_fd_ < 0) return;
    Release();
    ::shutdown(listen_fd_, SHUT_RDWR);
    acceptor_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
    {
      MutexLock lock(&mutex_);
      for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& relay : relays_) relay.join();
    for (const int fd : fds_) ::close(fd);
  }

  int port() const { return port_; }

  void SetRewrite(Rewrite rewrite) {
    MutexLock lock(&mutex_);
    rewrite_ = std::move(rewrite);
  }

  /// Answers the next PUSH_UPDATES with RETRY_LATER, as a shard pushing
  /// back would; the shard never sees the batch.
  void BounceNextPush() {
    MutexLock lock(&mutex_);
    bounce_push_ = true;
  }

  /// Holds the next REPAIR_STATE reply until Release().
  void HoldNextRepairState() {
    MutexLock lock(&mutex_);
    hold_armed_ = true;
  }

  /// True once a REPAIR_STATE reply is being held.
  bool WaitUntilHeld(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(&mutex_);
    while (!holding_) {
      if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
        return holding_;
      }
    }
    return true;
  }

  void Release() {
    {
      MutexLock lock(&mutex_);
      hold_armed_ = false;
      holding_ = false;
    }
    cv_.notify_all();
  }

 private:
  static sockaddr_in Loopback(int port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
  }

  static bool ReadFrame(int fd, FrameReader* reader, Frame* frame) {
    char buffer[4096];
    for (;;) {
      const FrameScanStatus status = reader->Next(frame);
      if (status == FrameScanStatus::kFrame) return true;
      if (status == FrameScanStatus::kError) return false;
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) return false;
      reader->Feed(std::string_view(buffer, static_cast<size_t>(n)));
    }
  }

  static bool SendFrame(int fd, const Frame& frame) {
    const std::string bytes = EncodeFrame(frame.opcode, frame.payload);
    for (size_t sent = 0; sent < bytes.size();) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  void AcceptLoop() {
    for (;;) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client < 0) return;
      const int upstream = ::socket(AF_INET, SOCK_STREAM, 0);
      const sockaddr_in addr = Loopback(upstream_port_);
      MutexLock lock(&mutex_);
      fds_.push_back(client);
      fds_.push_back(upstream);
      if (::connect(upstream, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        ::shutdown(client, SHUT_RDWR);
        continue;
      }
      relays_.emplace_back([this, client, upstream] {
        Relay(client, upstream);
      });
    }
  }

  void Relay(int client, int upstream) {
    FrameReader from_client;
    FrameReader from_upstream;
    Frame frame;
    while (ReadFrame(client, &from_client, &frame)) {
      bool bounce = false;
      if (frame.opcode == Opcode::kPushUpdates) {
        MutexLock lock(&mutex_);
        bounce = std::exchange(bounce_push_, false);
      }
      if (bounce) {
        if (!SendFrame(client, Frame{Opcode::kRetryLater, ""})) break;
        continue;
      }
      if (!SendFrame(upstream, frame) ||
          !ReadFrame(upstream, &from_upstream, &frame)) {
        break;
      }
      Rewrite rewrite;
      {
        MutexLock lock(&mutex_);
        if (frame.opcode == Opcode::kRepairState && hold_armed_) {
          hold_armed_ = false;
          holding_ = true;
          cv_.notify_all();
          while (holding_) cv_.wait(mutex_);
        }
        rewrite = rewrite_;
      }
      SummaryResult result;
      std::string error;
      if (rewrite && frame.opcode == Opcode::kSummaryResult &&
          DecodeSummaryResult(frame.payload, &result, &error)) {
        rewrite(&result);
        frame.payload = EncodeSummaryResult(result);
      }
      if (!SendFrame(client, frame)) break;
    }
    ::shutdown(client, SHUT_RDWR);
    ::shutdown(upstream, SHUT_RDWR);
  }

  const int upstream_port_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  Mutex mutex_;
  CondVar cv_;
  Rewrite rewrite_;
  bool bounce_push_ = false;
  bool hold_armed_ = false;
  bool holding_ = false;
  std::vector<int> fds_;
  std::vector<std::thread> relays_;
};

// --- Hello handshake ----------------------------------------------------

TEST(ClusterHandshakeTest, HelloExchangesConfigAndFeatures) {
  SketchServer server(ShardOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server.port());

  HelloInfo mine;
  mine.config.params = TestParams();
  mine.config.copies = kCopies;
  mine.config.seed = kMasterSeed;
  HelloInfo theirs;
  const SketchClient::Status status = client->Hello(mine, &theirs);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_TRUE(theirs.config.params == TestParams());
  EXPECT_EQ(theirs.config.copies, kCopies);
  EXPECT_EQ(theirs.config.seed, kMasterSeed);
  EXPECT_TRUE(theirs.config == mine.config);
  EXPECT_NE(theirs.features & kFeatureSummaryPull, 0u);

  // A plain PING (no hello payload) still echoes, so pre-cluster clients
  // keep working against a hello-aware server.
  EXPECT_TRUE(client->Ping().ok);
  server.Stop();
}

TEST(ClusterHandshakeTest, RouterRefusesMismatchedShard) {
  // One shard with the right coins, one seeded differently: the router
  // must refuse the mismatched shard (merging its sketches would be
  // silently wrong) and keep serving streams placed on the good one.
  SketchServer good(ShardOptions());
  SketchServer::Options bad_options = ShardOptions();
  bad_options.seed = kMasterSeed + 1;
  SketchServer bad(bad_options);
  std::string error;
  ASSERT_TRUE(good.Start(&error)) << error;
  ASSERT_TRUE(bad.Start(&error)) << error;

  ClusterRouter::Options options = RouterOptions({&good, &bad});
  options.replicas = 0;  // Placement picks exactly one shard per stream.
  ClusterRouter router(options);
  ASSERT_TRUE(router.Start(&error)) << error;
  EXPECT_EQ(router.ProbeAll(), 1u);
  const ClusterRouter::StatsSnapshot stats = router.stats();
  EXPECT_EQ(stats.refused_shards, 1u);
  EXPECT_EQ(stats.healthy_shards, 1u);

  // Pushes for streams placed on the refused shard bounce with a typed
  // error; streams on the healthy shard are unaffected.
  auto client = MustConnect(router.port(), "mismatch-test");
  int refused = 0;
  int accepted = 0;
  for (int i = 0; i < 16; ++i) {
    UpdateBatch batch;
    batch.stream_names = {"probe-" + std::to_string(i)};
    batch.updates.push_back(Update{0, static_cast<uint64_t>(i), 1});
    const SketchClient::Status status = client->PushUpdates(batch);
    if (status.ok) {
      ++accepted;
    } else {
      EXPECT_NE(status.error.find("NO_HEALTHY_SHARD"), std::string::npos)
          << status.error;
      ++refused;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);

  router.Stop();
  good.Stop();
  bad.Stop();
}

// --- Summary pulls ------------------------------------------------------

TEST(ClusterSummaryTest, PullHonorsEpochCache) {
  SketchServer server(ShardOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server.port(), "summary-test");
  ASSERT_TRUE(client->PushUpdates(MakeBatch(0)).ok);

  SummaryPullRequest request;
  SummaryPullRequest::Key key;
  key.name = "A";
  request.streams.push_back(key);
  SummaryPullRequest::Key unknown;
  unknown.name = "no-such-stream";
  request.streams.push_back(unknown);

  // Cold pull: the full sketch vector, plus the (bank_id, epoch) to cache.
  SummaryResult cold;
  ASSERT_TRUE(client->PullSummaries(request, &cold).ok);
  ASSERT_EQ(cold.streams.size(), 2u);
  EXPECT_EQ(cold.streams[0].state, SummaryState::kFull);
  EXPECT_EQ(cold.streams[0].summary.sketches.size(),
            static_cast<size_t>(kCopies));
  EXPECT_EQ(cold.streams[1].state, SummaryState::kUnknown);

  // Re-pull with the cached identity: one state byte, no payload.
  request.streams.resize(1);
  request.streams[0].bank_id = cold.streams[0].bank_id;
  request.streams[0].epoch = cold.streams[0].epoch;
  SummaryResult warm;
  ASSERT_TRUE(client->PullSummaries(request, &warm).ok);
  ASSERT_EQ(warm.streams.size(), 1u);
  EXPECT_EQ(warm.streams[0].state, SummaryState::kUnchanged);

  // New writes bump the stream's epoch: the same cached identity now
  // misses and the refreshed vector comes back full.
  ASSERT_TRUE(client->PushUpdates(MakeBatch(1)).ok);
  SummaryResult refreshed;
  ASSERT_TRUE(client->PullSummaries(request, &refreshed).ok);
  ASSERT_EQ(refreshed.streams.size(), 1u);
  EXPECT_EQ(refreshed.streams[0].state, SummaryState::kFull);
  EXPECT_GT(refreshed.streams[0].epoch, cold.streams[0].epoch);

  server.Stop();
}

// --- Placement through the router --------------------------------------

TEST(ClusterRouterTest, PlacementIsDeterministicAndReplicated) {
  SketchServer a(ShardOptions());
  SketchServer b(ShardOptions());
  SketchServer c(ShardOptions());
  std::string error;
  ASSERT_TRUE(a.Start(&error)) << error;
  ASSERT_TRUE(b.Start(&error)) << error;
  ASSERT_TRUE(c.Start(&error)) << error;

  const ClusterRouter::Options options = RouterOptions({&a, &b, &c});
  ClusterRouter first(options);
  ClusterRouter second(options);
  for (const std::string stream : {"A", "B", "C", "D", "E"}) {
    const std::vector<std::string> targets = first.WriteTargets(stream);
    ASSERT_EQ(targets.size(), 2u) << stream;  // Owner + one replica.
    EXPECT_NE(targets[0], targets[1]) << stream;
    EXPECT_EQ(targets, second.WriteTargets(stream)) << stream;
    EXPECT_EQ(first.ReadTarget(stream), targets[0]) << stream;
  }
  a.Stop();
  b.Stop();
  c.Stop();
}

// --- Federation correctness --------------------------------------------

TEST(ClusterRouterTest, FederatedAnswersMatchSingleNodeExactly) {
  SketchServer s0(ShardOptions());
  SketchServer s1(ShardOptions());
  SketchServer s2(ShardOptions());
  SketchServer reference(ShardOptions());
  std::string error;
  ASSERT_TRUE(s0.Start(&error)) << error;
  ASSERT_TRUE(s1.Start(&error)) << error;
  ASSERT_TRUE(s2.Start(&error)) << error;
  ASSERT_TRUE(reference.Start(&error)) << error;

  ClusterRouter router(RouterOptions({&s0, &s1, &s2}));
  ASSERT_TRUE(router.Start(&error)) << error;
  EXPECT_EQ(router.ProbeAll(), 3u);

  auto via_router = MustConnect(router.port(), "fed");
  auto via_reference = MustConnect(reference.port(), "fed");
  for (int i = 0; i < 6; ++i) {
    const UpdateBatch batch = MakeBatch(i);
    ASSERT_TRUE(via_router->PushUpdates(batch).ok);
    ASSERT_TRUE(via_reference->PushUpdates(batch).ok);
  }
  ExpectAnswersMatchReference(*via_router, *via_reference);

  // The same queries again: every summary is served from the router's
  // epoch cache as a one-byte kUnchanged, and the answers still match.
  ExpectAnswersMatchReference(*via_router, *via_reference);
  const ClusterRouter::StatsSnapshot stats = router.stats();
  EXPECT_GT(stats.summary_streams_unchanged, 0u);
  EXPECT_GT(stats.summary_streams_full, 0u);
  EXPECT_EQ(stats.failovers, 0u);
  // Unchanged pulls bump no federated epoch, so the repeated expression
  // was answered from the plan memo.
  std::string report;
  ASSERT_TRUE(via_router->Explain(kExpressions[0], &report).ok);
  EXPECT_NE(report.find("stream A targets="), std::string::npos) << report;
  EXPECT_NE(report.find("cache: HIT"), std::string::npos) << report;

  // Duplicate client push: deduped on every shard, ACKed as duplicate.
  auto replayer = MustConnect(router.port(), "fed");
  const SketchClient::Status dup =
      replayer->PushUpdatesAt(MakeBatch(0), /*sequence=*/1);
  ASSERT_TRUE(dup.ok) << dup.error;
  EXPECT_TRUE(dup.duplicate);
  ExpectAnswersMatchReference(*via_router, *via_reference);

  router.Stop();
  s0.Stop();
  s1.Stop();
  s2.Stop();
  reference.Stop();
}

TEST(ClusterRouterTest, RepeatedQueryTextMatchesSingleNodeEveryTime) {
  SketchServer s0(ShardOptions());
  SketchServer s1(ShardOptions());
  SketchServer reference(ShardOptions());
  std::string error;
  ASSERT_TRUE(s0.Start(&error)) << error;
  ASSERT_TRUE(s1.Start(&error)) << error;
  ASSERT_TRUE(reference.Start(&error)) << error;
  ClusterRouter router(RouterOptions({&s0, &s1}));
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 2u);
  auto via_router = MustConnect(router.port(), "memo");
  auto via_reference = MustConnect(reference.port(), "memo");

  // Seen first while its streams do not exist anywhere: the router's
  // compiled text keeps no data-dependent verdict.
  const std::string text = "(A | B) - C";
  EXPECT_FALSE(via_router->Query(text).ok);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(via_router->PushUpdates(MakeBatch(i)).ok);
    ASSERT_TRUE(via_reference->PushUpdates(MakeBatch(i)).ok);
  }
  for (int round = 0; round < 3; ++round) {
    const QueryResultInfo fed = via_router->Query(text);
    const QueryResultInfo ref = via_reference->Query(text);
    ASSERT_TRUE(fed.ok) << fed.error;
    ASSERT_TRUE(ref.ok) << ref.error;
    EXPECT_EQ(fed.estimate, ref.estimate) << "round " << round;
    EXPECT_EQ(fed.lo, ref.lo) << "round " << round;
    EXPECT_EQ(fed.hi, ref.hi) << "round " << round;
    EXPECT_EQ(fed.expression, ref.expression) << "round " << round;
  }
  std::string report;
  ASSERT_TRUE(via_router->Explain(text, &report).ok);
  EXPECT_NE(report.find("cache: HIT"), std::string::npos) << report;

  // A provably-empty text answers exactly 0, the same each time.
  for (int round = 0; round < 2; ++round) {
    const QueryResultInfo empty = via_router->Query("(A & B) - A");
    ASSERT_TRUE(empty.ok) << empty.error;
    EXPECT_EQ(empty.estimate, 0.0);
    EXPECT_EQ(empty.expression, "((A & B) - A)");
  }
  router.Stop();
  s0.Stop();
  s1.Stop();
  reference.Stop();
}

TEST(ClusterRouterTest, SummaryReplyMustAnswerTheRequest) {
  // A shard whose SUMMARY_RESULT omits a requested stream or names one
  // that was not requested is refused with a typed error: the router
  // installs nothing, stays up, and answers exactly once the shard does.
  SketchServer shard(ShardOptions());
  SketchServer reference(ShardOptions());
  std::string error;
  ASSERT_TRUE(shard.Start(&error)) << error;
  ASSERT_TRUE(reference.Start(&error)) << error;
  RewritingProxy proxy(shard.port());
  ASSERT_TRUE(proxy.Start());

  ClusterRouter::Options options = RouterOptions({});
  options.shards = {ClusterShard{"s0", "127.0.0.1", proxy.port()}};
  options.replicas = 0;
  ClusterRouter router(options);
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 1u);

  auto via_router = MustConnect(router.port(), "lying-shard");
  auto via_reference = MustConnect(reference.port(), "lying-shard");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(via_router->PushUpdates(MakeBatch(i)).ok);
    ASSERT_TRUE(via_reference->PushUpdates(MakeBatch(i)).ok);
  }

  const std::vector<RewritingProxy::Rewrite> lies = {
      [](SummaryResult* reply) { reply->streams.pop_back(); },
      [](SummaryResult* reply) { reply->streams.front().name = "Z"; },
      [](SummaryResult* reply) {
        reply->streams.push_back(reply->streams.front());
        reply->streams.back().name = "Z";
      },
  };
  for (size_t lie = 0; lie < lies.size(); ++lie) {
    proxy.SetRewrite(lies[lie]);
    ASSERT_EQ(router.ProbeAll(), 1u) << "lie " << lie;
    const QueryResultInfo refused = via_router->Query("A | B");
    EXPECT_FALSE(refused.ok) << "lie " << lie;
    EXPECT_NE(refused.error.find("does not answer the request"),
              std::string::npos)
        << "lie " << lie << ": " << refused.error;
  }

  // Nothing reached the federated bank.
  proxy.SetRewrite(nullptr);
  std::string report;
  ASSERT_TRUE(via_router->Explain("A | B | Z", &report).ok);
  for (const char* name : {"A", "B", "Z"}) {
    EXPECT_NE(report.find(std::string(" ") + name + " [unknown]"),
              std::string::npos)
        << report;
  }

  ASSERT_EQ(router.ProbeAll(), 1u);
  ExpectAnswersMatchReference(*via_router, *via_reference);

  router.Stop();
  proxy.Stop();
  shard.Stop();
  reference.Stop();
}

// --- Chaos: owner death, failover, WAL recovery, re-push ---------------

TEST(ClusterChaosTest, OwnerDeathFailoverAndWalRecoveryStayExact) {
  const std::filesystem::path dir = FreshDir("cluster_chaos");
  std::vector<std::unique_ptr<SketchServer>> shards;
  for (int i = 0; i < 3; ++i) {
    shards.push_back(std::make_unique<SketchServer>(
        ShardOptions((dir / ("wal" + std::to_string(i))).string())));
    std::string error;
    ASSERT_TRUE(shards.back()->Start(&error)) << error;
  }
  SketchServer reference(ShardOptions());
  std::string error;
  ASSERT_TRUE(reference.Start(&error)) << error;

  std::vector<const SketchServer*> shard_ptrs;
  for (const auto& shard : shards) shard_ptrs.push_back(shard.get());
  ClusterRouter router(RouterOptions(shard_ptrs));
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 3u);

  auto via_router = MustConnect(router.port(), "chaos");
  auto via_reference = MustConnect(reference.port(), "chaos");
  std::vector<UpdateBatch> history;
  const auto push_both = [&](int index) {
    history.push_back(MakeBatch(index));
    const SketchClient::Status fed =
        via_router->PushUpdatesWithRetry(history.back());
    ASSERT_TRUE(fed.ok) << "batch " << index << ": " << fed.error;
    ASSERT_TRUE(via_reference->PushUpdates(history.back()).ok);
  };

  for (int i = 0; i < 5; ++i) push_both(i);
  ExpectAnswersMatchReference(*via_router, *via_reference);

  // Kill the shard that owns stream "A" (owner-first target order).
  const std::string owner = router.WriteTargets("A")[0];
  size_t owner_index = 0;
  for (size_t i = 0; i < router.options().shards.size(); ++i) {
    if (router.options().shards[i].name == owner) owner_index = i;
  }
  const int owner_port = shards[owner_index]->port();
  shards[owner_index]->Stop();

  // Ingest continues: the first push eats a RETRY_LATER bounce while the
  // router discovers the death, then lands on the surviving replica.
  for (int i = 5; i < 10; ++i) push_both(i);
  {
    const ClusterRouter::StatsSnapshot stats = router.stats();
    EXPECT_GE(stats.stale_shards, 1u);
    EXPECT_GT(stats.push_bounces, 0u);
  }

  // Queries fail over to the replica, which ACKed every batch and is
  // therefore complete — the answers still match the reference exactly.
  ExpectAnswersMatchReference(*via_router, *via_reference);
  EXPECT_GT(router.stats().failovers, 0u);

  // Restart the dead shard on its old port and WAL: replay restores the
  // pre-kill prefix and the dedup window, so a full client re-push is
  // exactly-once — already-applied sequences re-ACK, missed ones apply.
  SketchServer::Options recovered_options =
      ShardOptions((dir / ("wal" + std::to_string(owner_index))).string());
  recovered_options.port = owner_port;
  shards[owner_index] =
      std::make_unique<SketchServer>(recovered_options);
  ASSERT_TRUE(shards[owner_index]->Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 3u);

  auto replayer = MustConnect(router.port(), "chaos");
  for (size_t i = 0; i < history.size(); ++i) {
    const SketchClient::Status status = replayer->PushUpdatesWithRetry(
        history[i], /*max_attempts=*/1000, /*backoff_ms=*/1);
    ASSERT_TRUE(status.ok) << "re-push " << i << ": " << status.error;
  }
  ExpectAnswersMatchReference(*via_router, *via_reference);

  // A fresh router (no stale memory) reads from the recovered OWNER
  // again; identical answers prove recovery + re-push made the owner
  // bit-identical — applied exactly once, nothing double-counted.
  shard_ptrs.clear();
  for (const auto& shard : shards) shard_ptrs.push_back(shard.get());
  ClusterRouter fresh(RouterOptions(shard_ptrs));
  ASSERT_TRUE(fresh.Start(&error)) << error;
  ASSERT_EQ(fresh.ProbeAll(), 3u);
  auto via_fresh = MustConnect(fresh.port());
  EXPECT_EQ(fresh.ReadTarget("A"), owner);
  ExpectAnswersMatchReference(*via_fresh, *via_reference);

  fresh.Stop();
  router.Stop();
  for (const auto& shard : shards) shard->Stop();
  reference.Stop();
}

// --- Chaos: deterministic transport faults on the shard fan-out --------

TEST(ClusterChaosTest, InjectedShardFaultsNeverDoubleApply) {
  SketchServer s0(ShardOptions());
  SketchServer s1(ShardOptions());
  SketchServer reference(ShardOptions());
  std::string error;
  ASSERT_TRUE(s0.Start(&error)) << error;
  ASSERT_TRUE(s1.Start(&error)) << error;
  ASSERT_TRUE(reference.Start(&error)) << error;

  FaultInjector::Options faults;
  faults.seed = 2003;
  faults.reset_probability = 0.08;
  faults.max_faults = 6;  // Bounded: retry loops always terminate.
  FaultInjector injector(faults);

  ClusterRouter::Options options = RouterOptions({&s0, &s1});
  options.shard_fault_injector = &injector;
  ClusterRouter router(options);
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 2u);

  auto via_router = MustConnect(router.port(), "faulty");
  auto via_reference = MustConnect(reference.port(), "faulty");
  for (int i = 0; i < 24; ++i) {
    const UpdateBatch batch = MakeBatch(i, /*per_batch=*/32);
    const SketchClient::Status fed = via_router->PushUpdatesWithRetry(
        batch, /*max_attempts=*/1000, /*backoff_ms=*/1);
    ASSERT_TRUE(fed.ok) << "batch " << i << ": " << fed.error;
    ASSERT_TRUE(via_reference->PushUpdates(batch).ok);
  }
  EXPECT_GT(injector.faults_injected(), 0u);

  // Faulted forwards mark shards stale (conservatively out of the read
  // path), so federate through a fresh fault-free router: every batch
  // must have landed exactly once on every placed copy.
  ClusterRouter fresh(RouterOptions({&s0, &s1}));
  ASSERT_TRUE(fresh.Start(&error)) << error;
  ASSERT_EQ(fresh.ProbeAll(), 2u);
  auto via_fresh = MustConnect(fresh.port());
  ExpectAnswersMatchReference(*via_fresh, *via_reference);

  fresh.Stop();
  router.Stop();
  s0.Stop();
  s1.Stop();
  reference.Stop();
}

// --- Self-healing: repair + re-admission on the SAME router -------------

TEST(ClusterSelfHealingTest, SameRouterRepairsAndReadmitsCrashedShard) {
  const std::filesystem::path dir = FreshDir("cluster_self_heal");
  std::vector<std::unique_ptr<SketchServer>> shards;
  for (int i = 0; i < 3; ++i) {
    shards.push_back(std::make_unique<SketchServer>(
        ShardOptions((dir / ("wal" + std::to_string(i))).string())));
    std::string error;
    ASSERT_TRUE(shards.back()->Start(&error)) << error;
  }
  SketchServer reference(ShardOptions());
  std::string error;
  ASSERT_TRUE(reference.Start(&error)) << error;

  std::vector<const SketchServer*> shard_ptrs;
  for (const auto& shard : shards) shard_ptrs.push_back(shard.get());
  ClusterRouter router(RouterOptions(shard_ptrs));
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 3u);

  auto via_router = MustConnect(router.port(), "heal");
  auto via_reference = MustConnect(reference.port(), "heal");
  std::vector<UpdateBatch> history;
  const auto push_both = [&](int index) {
    history.push_back(MakeBatch(index));
    const SketchClient::Status fed =
        via_router->PushUpdatesWithRetry(history.back());
    ASSERT_TRUE(fed.ok) << "batch " << index << ": " << fed.error;
    ASSERT_TRUE(via_reference->PushUpdates(history.back()).ok);
  };
  for (int i = 0; i < 5; ++i) push_both(i);

  // Kill the shard owning "A"; ingest rides the replicas while the dead
  // shard accumulates missed placed writes (-> stale).
  const std::string owner = router.WriteTargets("A")[0];
  size_t owner_index = 0;
  for (size_t i = 0; i < router.options().shards.size(); ++i) {
    if (router.options().shards[i].name == owner) owner_index = i;
  }
  const int owner_port = shards[owner_index]->port();
  shards[owner_index]->Stop();
  for (int i = 5; i < 10; ++i) push_both(i);
  ASSERT_GE(router.stats().stale_shards, 1u);

  // Restart on the old port + WAL. The NEXT probe sweep of the SAME
  // router repairs the gap from healthy replicas (anti-entropy transfer)
  // and atomically re-admits the shard — no router restart, no client
  // re-push.
  SketchServer::Options recovered_options =
      ShardOptions((dir / ("wal" + std::to_string(owner_index))).string());
  recovered_options.port = owner_port;
  shards[owner_index] = std::make_unique<SketchServer>(recovered_options);
  ASSERT_TRUE(shards[owner_index]->Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 3u);

  const ClusterRouter::StatsSnapshot stats = router.stats();
  EXPECT_EQ(stats.stale_shards, 0u);
  EXPECT_GE(stats.repairs, 1u);
  EXPECT_GE(stats.readmissions, 1u);
  // Re-admitted into the read path: "A" reads from its owner again.
  EXPECT_EQ(router.ReadTarget("A"), owner);
  ExpectAnswersMatchReference(*via_router, *via_reference);

  // The transfer carried the sources' dedup watermarks, so a full client
  // re-push is recognized as pure duplicates everywhere — exactly-once
  // survives repair.
  auto replayer = MustConnect(router.port(), "heal");
  for (size_t i = 0; i < history.size(); ++i) {
    const SketchClient::Status status =
        replayer->PushUpdatesAt(history[i], static_cast<uint64_t>(i) + 1);
    ASSERT_TRUE(status.ok) << "re-push " << i << ": " << status.error;
    EXPECT_TRUE(status.duplicate) << "re-push " << i;
  }
  ExpectAnswersMatchReference(*via_router, *via_reference);

  router.Stop();
  for (const auto& shard : shards) shard->Stop();
  reference.Stop();
}

TEST(ClusterSelfHealingTest, RepairRefillsAShardThatOnlyLooksCaughtUp) {
  // An anonymous push (no site, no sequence) that reaches only the
  // replica of a dead shard leaves no trace in any dedup window. After a
  // WAL restart the shard's manifest looks caught up (every placed
  // stream present, windows covering its peer's), yet it misses that
  // batch: repair must still refill it before it serves reads again.
  const std::filesystem::path dir = FreshDir("cluster_looks_caught_up");
  std::vector<std::unique_ptr<SketchServer>> shards;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(std::make_unique<SketchServer>(
        ShardOptions((dir / ("wal" + std::to_string(i))).string())));
    std::string error;
    ASSERT_TRUE(shards.back()->Start(&error)) << error;
  }
  SketchServer reference(ShardOptions());
  std::string error;
  ASSERT_TRUE(reference.Start(&error)) << error;
  ClusterRouter::Options options =
      RouterOptions({shards[0].get(), shards[1].get()});
  options.auto_repair = false;  // The explicit repair below is the one.
  ClusterRouter router(options);
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 2u);

  auto via_router = MustConnect(router.port(), "looks");
  auto via_reference = MustConnect(reference.port(), "looks");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(via_router->PushUpdatesWithRetry(MakeBatch(i)).ok);
    ASSERT_TRUE(via_reference->PushUpdates(MakeBatch(i)).ok);
  }

  // Kill the owner of "A" and let the router see it, so the anonymous
  // push skips it (marking it stale) and lands once, on the replica.
  const std::string owner = router.WriteTargets("A")[0];
  const size_t owner_index = owner == "s0" ? 0 : 1;
  const int owner_port = shards[owner_index]->port();
  shards[owner_index]->Stop();
  ASSERT_EQ(router.ProbeAll(), 1u);
  auto anonymous = MustConnect(router.port());
  ASSERT_TRUE(anonymous->PushUpdates(MakeBatch(3)).ok);
  auto anonymous_reference = MustConnect(reference.port());
  ASSERT_TRUE(anonymous_reference->PushUpdates(MakeBatch(3)).ok);
  ASSERT_EQ(router.stats().stale_shards, 1u);

  SketchServer::Options recovered_options =
      ShardOptions((dir / ("wal" + std::to_string(owner_index))).string());
  recovered_options.port = owner_port;
  shards[owner_index] = std::make_unique<SketchServer>(recovered_options);
  ASSERT_TRUE(shards[owner_index]->Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 2u);
  ASSERT_TRUE(router.RepairShard(owner, &error)) << error;
  EXPECT_EQ(router.stats().stale_shards, 0u);
  EXPECT_EQ(router.ReadTarget("A"), owner);
  ExpectAnswersMatchReference(*via_router, *via_reference);

  router.Stop();
  for (const auto& shard : shards) shard->Stop();
  reference.Stop();
}

// --- Read policies over a healthy-but-stale shard -----------------------

/// Starts two WAL-backed shards + a replicas=0 router, pushes three
/// batches, kills the owner of "A", provokes one bounced push (marking
/// the owner stale), restarts it on the WAL, and re-probes. With
/// auto_repair off the shard comes back HEALTHY but STALE — the state
/// the two read policies disagree about.
class StaleShardFixture {
 public:
  explicit StaleShardFixture(const std::string& dir_name,
                             ClusterRouter::ReadPolicy policy)
      : dir_(FreshDir(dir_name)) {
    for (int i = 0; i < 2; ++i) {
      shards_.push_back(std::make_unique<SketchServer>(
          ShardOptions((dir_ / ("wal" + std::to_string(i))).string())));
      std::string error;
      EXPECT_TRUE(shards_.back()->Start(&error)) << error;
    }
    std::vector<const SketchServer*> ptrs;
    for (const auto& shard : shards_) ptrs.push_back(shard.get());
    ClusterRouter::Options options = RouterOptions(ptrs);
    options.replicas = 0;  // Single placed copy: no failover candidate.
    options.auto_repair = false;
    options.read_policy = policy;
    router_ = std::make_unique<ClusterRouter>(options);
    std::string error;
    EXPECT_TRUE(router_->Start(&error)) << error;
    EXPECT_EQ(router_->ProbeAll(), 2u);

    auto client = MustConnect(router_->port());
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(client->PushUpdates(MakeBatch(i)).ok);
    }

    owner_ = router_->WriteTargets("A")[0];
    for (size_t i = 0; i < router_->options().shards.size(); ++i) {
      if (router_->options().shards[i].name == owner_) owner_index_ = i;
    }
    const int owner_port = shards_[owner_index_]->port();
    shards_[owner_index_]->Stop();

    // One anonymous push to "A" only: the forward fails, the owner is
    // marked stale, nothing lands anywhere (no partial fan-out).
    UpdateBatch probe;
    probe.stream_names = {"A"};
    probe.updates.push_back(Update{0, 0xA11CEULL, 1});
    EXPECT_FALSE(client->PushUpdates(probe).ok);

    SketchServer::Options recovered = ShardOptions(
        (dir_ / ("wal" + std::to_string(owner_index_))).string());
    recovered.port = owner_port;
    shards_[owner_index_] = std::make_unique<SketchServer>(recovered);
    std::string restart_error;
    EXPECT_TRUE(shards_[owner_index_]->Start(&restart_error))
        << restart_error;
    EXPECT_EQ(router_->ProbeAll(), 2u);
    EXPECT_GE(router_->stats().stale_shards, 1u);
  }

  ~StaleShardFixture() {
    router_->Stop();
    for (const auto& shard : shards_) shard->Stop();
  }

  ClusterRouter& router() { return *router_; }
  const std::string& owner() const { return owner_; }

 private:
  std::filesystem::path dir_;
  std::vector<std::unique_ptr<SketchServer>> shards_;
  std::unique_ptr<ClusterRouter> router_;
  std::string owner_;
  size_t owner_index_ = 0;
};

TEST(ClusterReadPolicyTest, StrictRefusesStreamsWithOnlyStaleCopies) {
  StaleShardFixture fixture("cluster_strict_policy",
                            ClusterRouter::ReadPolicy::kStrict);
  auto client = MustConnect(fixture.router().port());

  // Strict: the only copy of "A" is stale, so the read is refused rather
  // than served from a shard that missed a placed write.
  const QueryResultInfo refused = client->Query("A");
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("no healthy shard"), std::string::npos)
      << refused.error;

  // Explicit repair (the admin path) re-admits it; with WAL replay
  // having already restored everything, the repair converges trivially.
  std::string error;
  ASSERT_TRUE(fixture.router().RepairShard(fixture.owner(), &error))
      << error;
  const ClusterRouter::StatsSnapshot stats = fixture.router().stats();
  EXPECT_EQ(stats.stale_shards, 0u);
  EXPECT_GE(stats.readmissions, 1u);
  const QueryResultInfo healed = client->Query("A");
  EXPECT_TRUE(healed.ok) << healed.error;
  EXPECT_FALSE(healed.degraded);
}

TEST(ClusterReadPolicyTest, AvailableServesStaleCopiesAsDegraded) {
  StaleShardFixture fixture("cluster_available_policy",
                            ClusterRouter::ReadPolicy::kAvailable);
  auto client = MustConnect(fixture.router().port());

  // Available: the stale-but-reachable copy answers, flagged degraded on
  // the wire and counted in STATS.
  const QueryResultInfo degraded = client->Query("A");
  ASSERT_TRUE(degraded.ok) << degraded.error;
  EXPECT_TRUE(degraded.degraded);
  EXPECT_GE(fixture.router().stats().degraded_answers, 1u);

  std::string error;
  ASSERT_TRUE(fixture.router().RepairShard(fixture.owner(), &error))
      << error;
  const QueryResultInfo healed = client->Query("A");
  ASSERT_TRUE(healed.ok) << healed.error;
  EXPECT_FALSE(healed.degraded);
  // WAL replay had restored the full prefix, so the degraded answer was
  // in fact complete here — healing must not change it.
  EXPECT_EQ(healed.estimate, degraded.estimate);
}

// --- Online membership: add + drain move only the affected segment ------

TEST(ClusterMembershipTest, AddAndDrainMoveOnlyTheAffectedSegment) {
  SketchServer s0(ShardOptions());
  SketchServer s1(ShardOptions());
  SketchServer s2(ShardOptions());
  SketchServer reference(ShardOptions());
  std::string error;
  ASSERT_TRUE(s0.Start(&error)) << error;
  ASSERT_TRUE(s1.Start(&error)) << error;
  ASSERT_TRUE(s2.Start(&error)) << error;
  ASSERT_TRUE(reference.Start(&error)) << error;

  ClusterRouter router(RouterOptions({&s0, &s1, &s2}));
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 3u);

  auto via_router = MustConnect(router.port(), "member");
  auto via_reference = MustConnect(reference.port(), "member");
  for (int i = 0; i < 6; ++i) {
    const UpdateBatch batch = MakeBatch(i);
    ASSERT_TRUE(via_router->PushUpdatesWithRetry(batch).ok);
    ASSERT_TRUE(via_reference->PushUpdates(batch).ok);
  }
  ExpectAnswersMatchReference(*via_router, *via_reference);

  const std::vector<std::string> streams = {"A", "B", "C"};
  std::map<std::string, std::vector<std::string>> before;
  for (const std::string& stream : streams) {
    before[stream] = router.WriteTargets(stream);
  }

  // Join a vetted fourth shard online. Only streams whose new placement
  // includes it migrate; every other stream keeps its exact targets.
  SketchServer s3(ShardOptions());
  ASSERT_TRUE(s3.Start(&error)) << error;
  ClusterShard joining;
  joining.name = "s3";
  joining.host = "127.0.0.1";
  joining.port = s3.port();
  uint64_t moved = 0;
  ASSERT_TRUE(router.AddShard(joining, &moved, &error)) << error;
  EXPECT_EQ(router.stats().shards, 4u);

  uint64_t expected_moved = 0;
  for (const std::string& stream : streams) {
    const std::vector<std::string> after = router.WriteTargets(stream);
    bool on_new = false;
    for (const std::string& target : after) on_new |= target == "s3";
    if (on_new) {
      ++expected_moved;
    } else {
      EXPECT_EQ(after, before[stream]) << stream << " moved needlessly";
    }
  }
  EXPECT_EQ(moved, expected_moved);
  // Reads may now land on the new shard; answers must not drift.
  ExpectAnswersMatchReference(*via_router, *via_reference);

  // Keep ingesting through the enlarged ring.
  for (int i = 6; i < 9; ++i) {
    const UpdateBatch batch = MakeBatch(i);
    ASSERT_TRUE(via_router->PushUpdatesWithRetry(batch).ok);
    ASSERT_TRUE(via_reference->PushUpdates(batch).ok);
  }
  ExpectAnswersMatchReference(*via_router, *via_reference);

  // Drain it back out: its segment slides to the ring successors and the
  // original three-shard placement is restored exactly (the ring is a
  // pure function of the member set).
  uint64_t drained = 0;
  ASSERT_TRUE(router.DrainShard("s3", &drained, &error)) << error;
  EXPECT_EQ(router.stats().removed_shards, 1u);
  for (const std::string& stream : streams) {
    EXPECT_EQ(router.WriteTargets(stream), before[stream]) << stream;
  }
  ExpectAnswersMatchReference(*via_router, *via_reference);

  for (int i = 9; i < 11; ++i) {
    const UpdateBatch batch = MakeBatch(i);
    ASSERT_TRUE(via_router->PushUpdatesWithRetry(batch).ok);
    ASSERT_TRUE(via_reference->PushUpdates(batch).ok);
  }
  ExpectAnswersMatchReference(*via_router, *via_reference);

  // Draining the drained shard again is refused, as is draining down to
  // zero members eventually — membership errors are typed, not crashes.
  EXPECT_FALSE(router.DrainShard("s3", &drained, &error));

  router.Stop();
  s0.Stop();
  s1.Stop();
  s2.Stop();
  s3.Stop();
  reference.Stop();
}

TEST(ClusterMembershipTest, DrainAddCyclesReuseTombstonedSlots) {
  // Repeated join/drain churn must not grow the placement index: a
  // drained slot is a tombstone the next admission revives in place.
  SketchServer s0(ShardOptions());
  SketchServer s1(ShardOptions());
  std::string error;
  ASSERT_TRUE(s0.Start(&error)) << error;
  ASSERT_TRUE(s1.Start(&error)) << error;
  ClusterRouter router(RouterOptions({&s0, &s1}));
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 2u);

  auto client = MustConnect(router.port(), "cycler");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client->PushUpdatesWithRetry(MakeBatch(i)).ok);
  }

  for (int cycle = 0; cycle < 4; ++cycle) {
    SketchServer extra(ShardOptions());
    ASSERT_TRUE(extra.Start(&error)) << error;
    ClusterShard joining;
    joining.name = "extra";
    joining.host = "127.0.0.1";
    joining.port = extra.port();
    uint64_t moved = 0;
    ASSERT_TRUE(router.AddShard(joining, &moved, &error))
        << "cycle " << cycle << ": " << error;
    // Slot count is bounded: the first cycle appends once, every later
    // cycle revives that same slot instead of growing the vector.
    EXPECT_EQ(router.stats().shards, 3u) << "cycle " << cycle;
    EXPECT_EQ(router.stats().removed_shards, 0u) << "cycle " << cycle;

    ASSERT_TRUE(router.DrainShard("extra", &moved, &error))
        << "cycle " << cycle << ": " << error;
    EXPECT_EQ(router.stats().shards, 3u) << "cycle " << cycle;
    EXPECT_EQ(router.stats().removed_shards, 1u) << "cycle " << cycle;
    extra.Stop();

    // The ring still serves between cycles.
    const QueryResultInfo answer = client->Query("A");
    ASSERT_TRUE(answer.ok) << "cycle " << cycle << ": " << answer.error;
  }

  router.Stop();
  s0.Stop();
  s1.Stop();
}

TEST(ClusterMembershipTest, ChangesFailWhileAKeptMemberIsDown) {
  // With replicas = 0 a dead shard's streams exist nowhere else, so no
  // manifest names them and a ring flip would orphan them. Every member
  // the next ring keeps must answer: add and drain both fail, and the
  // placement stays as it was.
  SketchServer s0(ShardOptions());
  SketchServer s1(ShardOptions());
  SketchServer joining_server(ShardOptions());
  std::string error;
  ASSERT_TRUE(s0.Start(&error)) << error;
  ASSERT_TRUE(s1.Start(&error)) << error;
  ASSERT_TRUE(joining_server.Start(&error)) << error;
  ClusterRouter::Options options = RouterOptions({&s0, &s1});
  options.replicas = 0;
  ClusterRouter router(options);
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 2u);

  auto client = MustConnect(router.port(), "down");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->PushUpdatesWithRetry(MakeBatch(i)).ok);
  }
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> targets;
  for (int i = 0; i < 64; ++i) {
    names.push_back("N" + std::to_string(i));
    targets.push_back(router.WriteTargets(names.back()));
  }
  s0.Stop();

  ClusterShard joining;
  joining.name = "s2";
  joining.host = "127.0.0.1";
  joining.port = joining_server.port();
  uint64_t moved = 0;
  EXPECT_FALSE(router.AddShard(joining, &moved, &error));
  EXPECT_NE(error.find("'s0'"), std::string::npos) << error;
  EXPECT_FALSE(router.DrainShard("s1", &moved, &error));
  EXPECT_NE(error.find("'s0'"), std::string::npos) << error;
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(router.WriteTargets(names[i]), targets[i]) << names[i];
  }
  EXPECT_EQ(router.stats().removed_shards, 1u);  // The candidate's slot.

  router.Stop();
  s1.Stop();
  joining_server.Stop();
}

TEST(ClusterMembershipTest, DrainOfADeadShardReadsItsStreamsFromReplicas) {
  // The one member a change may lose is the shard it removes: its
  // streams come from their replicas, and answers stay exact.
  SketchServer s0(ShardOptions());
  SketchServer s1(ShardOptions());
  SketchServer s2(ShardOptions());
  SketchServer reference(ShardOptions());
  std::string error;
  for (SketchServer* server : {&s0, &s1, &s2, &reference}) {
    ASSERT_TRUE(server->Start(&error)) << error;
  }
  ClusterRouter router(RouterOptions({&s0, &s1, &s2}));
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 3u);

  auto via_router = MustConnect(router.port(), "dead-drain");
  auto via_reference = MustConnect(reference.port(), "dead-drain");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(via_router->PushUpdatesWithRetry(MakeBatch(i)).ok);
    ASSERT_TRUE(via_reference->PushUpdates(MakeBatch(i)).ok);
  }
  s2.Stop();
  ASSERT_EQ(router.ProbeAll(), 2u);

  uint64_t moved = 0;
  ASSERT_TRUE(router.DrainShard("s2", &moved, &error)) << error;
  for (const char* stream : {"A", "B", "C"}) {
    const std::vector<std::string> targets = router.WriteTargets(stream);
    EXPECT_EQ(std::count(targets.begin(), targets.end(), "s2"), 0)
        << stream;
  }
  ExpectAnswersMatchReference(*via_router, *via_reference);

  router.Stop();
  for (SketchServer* server : {&s0, &s1, &reference}) server->Stop();
}

/// `count` stream names that gain a placed shard when the ring goes from
/// `before` to `after`, and that `before` does not place on `avoid`.
std::vector<std::string> MovingStreams(const Placement& before,
                                       const Placement& after,
                                       const std::string& avoid,
                                       size_t count) {
  constexpr size_t kPlaced = 2;  // RouterOptions: replicas = 1.
  std::vector<std::string> names;
  for (int i = 0; names.size() < count && i < 100000; ++i) {
    const std::string name = "N" + std::to_string(i);
    const std::vector<std::string> now = before.Targets(name, kPlaced);
    const auto held_now = [&now](const std::string& shard) {
      return std::find(now.begin(), now.end(), shard) != now.end();
    };
    const std::vector<std::string> then = after.Targets(name, kPlaced);
    if (!held_now(avoid) &&
        !std::all_of(then.begin(), then.end(), held_now)) {
      names.push_back(name);
    }
  }
  return names;
}

/// A batch over `names`, a few elements each.
UpdateBatch BatchOver(const std::vector<std::string>& names, int index) {
  UpdateBatch batch;
  batch.stream_names = names;
  for (size_t k = 0; k < names.size(); ++k) {
    for (int i = 0; i < 16; ++i) {
      batch.updates.push_back(
          Update{static_cast<StreamId>(k),
                 static_cast<uint64_t>((index * 64 + i) * 131 + k) *
                         2654435761ULL +
                     5,
                 1});
    }
  }
  return batch;
}

/// Streams born while a membership change reads the manifests must reach
/// every shard the new ring places them on. The proxied shard comes last
/// in the router's shard order and holds its PULL_REPAIR reply while a
/// push creates streams that it does not hold and that gain a placed
/// shard; then the reply goes through. Every new stream must answer
/// exactly as on a single node, through the router and on each placed
/// shard directly.
void ExpectStreamsBornDuringMembershipChangeArrive(bool drain) {
  SketchServer s0(ShardOptions());
  SketchServer s1(ShardOptions());
  SketchServer s2(ShardOptions());
  SketchServer s3(ShardOptions());
  SketchServer reference(ShardOptions());
  std::string error;
  for (SketchServer* server : {&s0, &s1, &s2, &s3, &reference}) {
    ASSERT_TRUE(server->Start(&error)) << error;
  }
  RewritingProxy proxy(s2.port());
  ASSERT_TRUE(proxy.Start());

  // A drain needs the drained shard among the members; the proxied one
  // is pulled last either way.
  ClusterRouter::Options options = RouterOptions({});
  options.shards = {ClusterShard{"s0", "127.0.0.1", s0.port()},
                    ClusterShard{"s1", "127.0.0.1", s1.port()}};
  if (drain) options.shards.push_back({"s3", "127.0.0.1", s3.port()});
  options.shards.push_back({"s2", "127.0.0.1", proxy.port()});
  ClusterRouter router(options);
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), options.shards.size());

  std::vector<std::string> members;
  for (const ClusterShard& shard : options.shards) {
    members.push_back(shard.name);
  }
  const Placement before(Placement::Mode::kRing, members,
                         options.placement_seed, options.virtual_nodes);
  Placement after = before;
  if (drain) {
    after.RemoveNode("s3");
  } else {
    after.AddNode("s3");
  }
  const std::vector<std::string> born = MovingStreams(before, after, "s2", 4);
  ASSERT_EQ(born.size(), 4u);

  auto via_router = MustConnect(router.port(), "birth");
  auto via_reference = MustConnect(reference.port(), "birth");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(via_router->PushUpdatesWithRetry(MakeBatch(i)).ok);
    ASSERT_TRUE(via_reference->PushUpdates(MakeBatch(i)).ok);
  }

  proxy.HoldNextRepairState();
  bool changed = false;
  std::string change_error;
  std::thread change([&] {
    uint64_t moved = 0;
    changed = drain ? router.DrainShard("s3", &moved, &change_error)
                    : router.AddShard(ClusterShard{"s3", "127.0.0.1",
                                                   s3.port()},
                                      &moved, &change_error);
  });
  ASSERT_TRUE(proxy.WaitUntilHeld(std::chrono::seconds(10)));

  // The birth push may only wait for the change, never overtake it.
  const UpdateBatch birth = BatchOver(born, 0);
  auto pusher_client = MustConnect(router.port(), "birth-pusher");
  std::future<SketchClient::Status> pushed =
      std::async(std::launch::async, [&] {
        return pusher_client->PushUpdatesWithRetry(birth);
      });
  pushed.wait_for(std::chrono::milliseconds(300));
  proxy.Release();
  const SketchClient::Status push_status = pushed.get();
  change.join();
  ASSERT_TRUE(push_status.ok) << push_status.error;
  ASSERT_TRUE(changed) << change_error;
  auto reference_pusher = MustConnect(reference.port(), "birth-pusher");
  ASSERT_TRUE(reference_pusher->PushUpdates(birth).ok);

  for (const std::string& name : born) {
    const QueryResultInfo fed = via_router->Query(name);
    const QueryResultInfo ref = via_reference->Query(name);
    ASSERT_TRUE(ref.ok) << name << ": " << ref.error;
    ASSERT_TRUE(fed.ok) << name << " (read from " << router.ReadTarget(name)
                        << "): " << fed.error;
    EXPECT_EQ(fed.estimate, ref.estimate) << name;
    EXPECT_EQ(fed.lo, ref.lo) << name;
    EXPECT_EQ(fed.hi, ref.hi) << name;
    for (const std::string& target : router.WriteTargets(name)) {
      const SketchServer& server = target == "s0"   ? s0
                                   : target == "s1" ? s1
                                   : target == "s2" ? s2
                                                    : s3;
      const QueryResultInfo held = MustConnect(server.port())->Query(name);
      ASSERT_TRUE(held.ok) << name << " on " << target << ": " << held.error;
      EXPECT_EQ(held.estimate, ref.estimate) << name << " on " << target;
    }
  }
  ExpectAnswersMatchReference(*via_router, *via_reference);

  router.Stop();
  proxy.Stop();
  for (SketchServer* server : {&s0, &s1, &s2, &s3, &reference}) {
    server->Stop();
  }
}

TEST(ClusterMembershipTest, StreamsBornDuringAddShardReachEveryPlacedShard) {
  ExpectStreamsBornDuringMembershipChangeArrive(/*drain=*/false);
}

TEST(ClusterMembershipTest, StreamsBornDuringDrainShardReachEveryPlacedShard) {
  ExpectStreamsBornDuringMembershipChangeArrive(/*drain=*/true);
}

TEST(ClusterMembershipTest, MembershipChangeWaitsForAPartialFanOutRetry) {
  // Dedup windows are per site, not per stream. A push applied on s0 but
  // bounced by s1 leaves the two sources disagreeing on one (site,
  // sequence); a joining shard that took x from s0 and y from s1 with the
  // merged windows would dedupe the client's retry and lose y's half. So
  // the change waits for the retry before it reads any manifest.
  SketchServer s0(ShardOptions());
  SketchServer s1(ShardOptions());
  SketchServer s2(ShardOptions());
  SketchServer reference(ShardOptions());
  std::string error;
  for (SketchServer* server : {&s0, &s1, &s2, &reference}) {
    ASSERT_TRUE(server->Start(&error)) << error;
  }
  RewritingProxy proxy(s1.port());
  ASSERT_TRUE(proxy.Start());

  ClusterRouter::Options options = RouterOptions({});
  options.shards = {ClusterShard{"s0", "127.0.0.1", s0.port()},
                    ClusterShard{"s1", "127.0.0.1", proxy.port()}};
  options.replicas = 0;
  ClusterRouter router(options);
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 2u);

  // x lives on s0 and y on s1, and both move to s2.
  Placement before(Placement::Mode::kRing, {"s0", "s1"},
                   options.placement_seed, options.virtual_nodes);
  Placement after = before;
  after.AddNode("s2");
  std::string x;
  std::string y;
  for (int i = 0; (x.empty() || y.empty()) && i < 100000; ++i) {
    const std::string name = "M" + std::to_string(i);
    if (after.Targets(name, 1)[0] != "s2") continue;
    std::string& slot = before.Targets(name, 1)[0] == "s0" ? x : y;
    if (slot.empty()) slot = name;
  }
  ASSERT_FALSE(x.empty());
  ASSERT_FALSE(y.empty());

  auto via_router = MustConnect(router.port(), "doubt");
  auto via_reference = MustConnect(reference.port(), "doubt");
  const UpdateBatch first = BatchOver({x, y}, 0);
  const UpdateBatch second = BatchOver({x, y}, 1);
  ASSERT_TRUE(via_router->PushUpdatesAt(first, 1).ok);
  proxy.BounceNextPush();
  const SketchClient::Status bounced = via_router->PushUpdatesAt(second, 2);
  ASSERT_FALSE(bounced.ok);
  ASSERT_TRUE(bounced.retry) << bounced.error;

  std::future<bool> added = std::async(std::launch::async, [&] {
    uint64_t moved = 0;
    std::string add_error;
    const bool ok = router.AddShard(
        ClusterShard{"s2", "127.0.0.1", s2.port()}, &moved, &add_error);
    EXPECT_TRUE(ok) << add_error;
    EXPECT_EQ(moved, 2u);
    return ok;
  });
  EXPECT_EQ(added.wait_for(std::chrono::milliseconds(300)),
            std::future_status::timeout)
      << "the membership change did not wait for the in-doubt retry";
  const SketchClient::Status retried = via_router->PushUpdatesAt(second, 2);
  ASSERT_TRUE(retried.ok) << retried.error;
  ASSERT_TRUE(added.get());
  EXPECT_EQ(router.WriteTargets(x)[0], "s2");
  EXPECT_EQ(router.WriteTargets(y)[0], "s2");

  ASSERT_TRUE(via_reference->PushUpdatesAt(first, 1).ok);
  ASSERT_TRUE(via_reference->PushUpdatesAt(second, 2).ok);
  for (const std::string& expression :
       {x, y, x + " | " + y, x + " & " + y, x + " - " + y}) {
    const QueryResultInfo fed = via_router->Query(expression);
    const QueryResultInfo ref = via_reference->Query(expression);
    ASSERT_TRUE(ref.ok) << expression << ": " << ref.error;
    ASSERT_TRUE(fed.ok) << expression << ": " << fed.error;
    EXPECT_EQ(fed.estimate, ref.estimate) << expression;
    EXPECT_EQ(fed.lo, ref.lo) << expression;
    EXPECT_EQ(fed.hi, ref.hi) << expression;
  }

  router.Stop();
  proxy.Stop();
  for (SketchServer* server : {&s0, &s1, &s2, &reference}) server->Stop();
}

// --- Backend streams through the cluster --------------------------------

/// Mixed-backend batch: T on theta/KMV, S on SetSketch, A on the
/// default two-level synopsis, with insert-then-delete churn.
UpdateBatch MakeTaggedBatch(int index, int per_batch = 300) {
  UpdateBatch batch;
  batch.stream_names = {"T", "S", "A"};
  batch.stream_backends = {
      static_cast<uint8_t>(SketchBackendId::kThetaKmv),
      static_cast<uint8_t>(SketchBackendId::kSetSketch), 0};
  for (int i = 0; i < per_batch; ++i) {
    const uint64_t element =
        static_cast<uint64_t>(index * per_batch + i) * 0x9E3779B9ULL + 7;
    const StreamId stream = static_cast<StreamId>(i % 3);
    batch.updates.push_back(Update{stream, element, 1});
    if (i % 9 == 8) {
      batch.updates.push_back(Update{stream, element, -1});
    }
  }
  return batch;
}

TEST(ClusterRouterTest, BackendStreamsFederateThroughTheRouter) {
  // Backend tags ride the fan-out, the shards build the tagged
  // synopses, and the router's federated answers are bit-identical to a
  // single node that ingested the same frames.
  SketchServer s0(ShardOptions());
  SketchServer s1(ShardOptions());
  SketchServer reference(ShardOptions());
  std::string error;
  ASSERT_TRUE(s0.Start(&error)) << error;
  ASSERT_TRUE(s1.Start(&error)) << error;
  ASSERT_TRUE(reference.Start(&error)) << error;
  ClusterRouter router(RouterOptions({&s0, &s1}));
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 2u);

  auto via_router = MustConnect(router.port(), "backend");
  auto via_reference = MustConnect(reference.port(), "backend");
  for (int b = 0; b < 4; ++b) {
    const UpdateBatch batch = MakeTaggedBatch(b);
    ASSERT_TRUE(via_router->PushUpdatesWithRetry(batch).ok);
    ASSERT_TRUE(via_reference->PushUpdates(batch).ok);
  }

  for (const char* probe : {"T", "S", "A"}) {
    const QueryResultInfo fed = via_router->Query(probe);
    const QueryResultInfo ref = via_reference->Query(probe);
    ASSERT_TRUE(ref.ok) << probe << ": " << ref.error;
    ASSERT_TRUE(fed.ok) << probe << ": " << fed.error;
    EXPECT_EQ(fed.estimate, ref.estimate) << probe;
    EXPECT_EQ(fed.lo, ref.lo) << probe;
    EXPECT_EQ(fed.hi, ref.hi) << probe;
  }

  // Mixing synopsis types in one expression is refused at the router
  // with the same typed error a single node gives.
  const QueryResultInfo mixed = via_router->Query("T | S");
  EXPECT_FALSE(mixed.ok);
  EXPECT_NE(mixed.error.find("mixed sketch backends"), std::string::npos)
      << mixed.error;

  // A retag through the router bounces with CONFIG_MISMATCH, exactly as
  // it would against the shard directly.
  UpdateBatch retag;
  retag.stream_names = {"T"};
  retag.stream_backends = {
      static_cast<uint8_t>(SketchBackendId::kSetSketch)};
  retag.updates = {Update{0, 99, 1}};
  const SketchClient::Status refused = via_router->PushUpdates(retag);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("CONFIG_MISMATCH"), std::string::npos)
      << refused.error;

  router.Stop();
  s0.Stop();
  s1.Stop();
  reference.Stop();
}

TEST(ClusterHandshakeTest, BackendTaggedRouterRefusesLegacyShard) {
  // A deployment configured for a non-default backend must refuse a
  // shard still running the pre-backend defaults: that shard's hello is
  // a version-1 frame (no backend fields), and admission fails exactly
  // like a stored-coins mismatch — both at startup probe and online.
  SketchServer legacy(ShardOptions());
  SketchServer::Options tagged_options = ShardOptions();
  tagged_options.default_backend = SketchBackendId::kSetSketch;
  tagged_options.backend_size = 512;
  SketchServer tagged(tagged_options);
  std::string error;
  ASSERT_TRUE(legacy.Start(&error)) << error;
  ASSERT_TRUE(tagged.Start(&error)) << error;

  ClusterRouter::Options options = RouterOptions({&tagged, &legacy});
  options.replicas = 0;
  options.default_backend = SketchBackendId::kSetSketch;
  options.backend_size = 512;
  ClusterRouter router(options);
  ASSERT_TRUE(router.Start(&error)) << error;
  EXPECT_EQ(router.ProbeAll(), 1u);
  const ClusterRouter::StatsSnapshot stats = router.stats();
  EXPECT_EQ(stats.refused_shards, 1u);
  EXPECT_EQ(stats.healthy_shards, 1u);

  // Joining another legacy shard online is refused with the typed
  // admission error, and membership does not change.
  SketchServer another_legacy(ShardOptions());
  ASSERT_TRUE(another_legacy.Start(&error)) << error;
  ClusterShard joining;
  joining.name = "legacy2";
  joining.host = "127.0.0.1";
  joining.port = another_legacy.port();
  uint64_t moved = 0;
  EXPECT_FALSE(router.AddShard(joining, &moved, &error));
  EXPECT_NE(error.find("CONFIG_MISMATCH"), std::string::npos) << error;
  EXPECT_EQ(router.stats().shards, 2u);

  // A shard with the matching backend config is admitted.
  SketchServer::Options matching = ShardOptions();
  matching.default_backend = SketchBackendId::kSetSketch;
  matching.backend_size = 512;
  SketchServer good(matching);
  ASSERT_TRUE(good.Start(&error)) << error;
  joining.name = "good";
  joining.port = good.port();
  ASSERT_TRUE(router.AddShard(joining, &moved, &error)) << error;
  EXPECT_EQ(router.stats().healthy_shards, 2u);

  router.Stop();
  legacy.Stop();
  tagged.Stop();
  another_legacy.Stop();
  good.Stop();
}

// --- CLI plumbing -------------------------------------------------------

TEST(ClusterCommandsTest, ParseShardListValidatesInput) {
  std::vector<ClusterShard> shards;
  std::string error;
  ASSERT_TRUE(
      ParseShardList("127.0.0.1:7001,10.0.0.2:7002", &shards, &error));
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].host, "127.0.0.1");
  EXPECT_EQ(shards[0].port, 7001);
  EXPECT_EQ(shards[0].name, "127.0.0.1:7001");
  EXPECT_EQ(shards[1].host, "10.0.0.2");
  EXPECT_EQ(shards[1].port, 7002);

  EXPECT_FALSE(ParseShardList("", &shards, &error));
  EXPECT_FALSE(ParseShardList("nohost", &shards, &error));
  EXPECT_FALSE(ParseShardList("host:", &shards, &error));
  EXPECT_FALSE(ParseShardList(":7001", &shards, &error));
  EXPECT_FALSE(ParseShardList("host:notaport", &shards, &error));
  EXPECT_FALSE(ParseShardList("host:99999", &shards, &error));
}

TEST(ClusterCommandsTest, InvalidConfigIsRefusedBeforeBinding) {
  ClusterRouter::Options options;
  ClusterShard shard;
  shard.name = "s0";
  shard.port = 1;
  options.shards = {shard, shard};
  options.backend_size = kMinBackendSize / 2;
  ClusterRouter router(options);
  std::string error;
  EXPECT_FALSE(router.Start(&error));
  EXPECT_NE(error.find("invalid sketch configuration"), std::string::npos)
      << error;
  EXPECT_LE(router.port(), 0);  // Never bound.

  options.backend_size = 4096;
  options.copies = 0;
  std::ostringstream announce;
  const CommandResult routed = RunRoute(options, &announce);
  EXPECT_FALSE(routed.ok);
  EXPECT_NE(routed.error.find("invalid sketch configuration"),
            std::string::npos)
      << routed.error;
  EXPECT_TRUE(announce.str().empty());
}

TEST(ClusterCommandsTest, ShapesTheBankCannotHoldAreRefusedByStart) {
  // Levels 0 and copies 0 have no sketch family at all: constructing the
  // router must not abort, and Start must refuse them with the typed
  // error.
  ClusterShard shard;
  shard.name = "s0";
  shard.port = 1;
  ClusterRouter::Options no_levels;
  no_levels.shards = {shard, shard};
  no_levels.params.levels = 0;
  ClusterRouter::Options no_copies;
  no_copies.shards = {shard, shard};
  no_copies.copies = 0;
  for (const ClusterRouter::Options& options : {no_levels, no_copies}) {
    ClusterRouter router(options);
    std::string error;
    EXPECT_FALSE(router.Start(&error));
    EXPECT_NE(error.find("invalid sketch configuration"), std::string::npos)
        << error;
    EXPECT_LE(router.port(), 0);  // Never bound.
  }
}

TEST(ClusterCommandsTest, RunRouteRejectsBadOptions) {
  ClusterRouter::Options options;
  EXPECT_FALSE(RunRoute(options).ok);  // No shards.
  ClusterShard shard;
  shard.name = "s0";
  shard.port = 1;
  options.shards.push_back(shard);
  options.replicas = 1;  // >= shard count.
  EXPECT_FALSE(RunRoute(options).ok);
}

}  // namespace
}  // namespace setsketch
