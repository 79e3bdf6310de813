// End-to-end tests for the TCP sketch-serving subsystem (src/server/):
// the acceptance loopback flow (bulk updates with deletions + a site
// summary + remote set-expression queries), backpressure (RETRY_LATER)
// with zero acknowledged loss across graceful shutdown, shard-queue
// semantics, and the server's protocol-error handling on a raw socket.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <sstream>
#include <thread>

#include "capped_child.h"
#include "core/sketch_backend.h"
#include "core/sketch_bank.h"
#include "distributed/site.h"
#include "expr/exact_evaluator.h"
#include "expr/parser.h"
#include "frame_reader.h"
#include "hash/prng.h"
#include "query/plan_cache.h"
#include "server/server_commands.h"
#include "server/shard_queue.h"
#include "server/sketch_client.h"
#include "server/sketch_server.h"
#include "stream/exact_set_store.h"
#include "stream/stream_generator.h"
#include "util/stats.h"
#include "util/varint.h"

namespace setsketch {
namespace {

SketchParams TestParams() {
  SketchParams params;
  params.levels = 24;
  params.num_second_level = 16;
  return params;
}

constexpr uint64_t kMasterSeed = 20030609;

SketchServer::Options ServerOptions(int copies, int shards = 2,
                                    size_t queue_capacity = 64) {
  SketchServer::Options options;
  options.params = TestParams();
  options.copies = copies;
  options.seed = kMasterSeed;
  options.shards = shards;
  options.queue_capacity = queue_capacity;
  options.witness.pool_all_levels = true;
  return options;
}

std::unique_ptr<SketchClient> MustConnect(const SketchServer& server) {
  std::string error;
  auto client = SketchClient::Connect("127.0.0.1", server.port(), &error);
  EXPECT_NE(client, nullptr) << error;
  return client;
}

// --- ShardQueue unit behavior ------------------------------------------

TEST(ShardQueueTest, CapacityCountsWorkInFlight) {
  ShardQueue queue(2);
  auto batch = std::make_shared<IngestBatch>();
  EXPECT_TRUE(queue.CanAccept());
  EXPECT_TRUE(queue.Push(batch));
  EXPECT_TRUE(queue.CanAccept());
  EXPECT_TRUE(queue.Push(batch));
  EXPECT_FALSE(queue.CanAccept());  // Full: 2 in flight.
  // Popping alone does not free the slot — TaskDone does.
  ASSERT_NE(queue.PopOrWait(), nullptr);
  EXPECT_FALSE(queue.CanAccept());
  queue.TaskDone();
  EXPECT_TRUE(queue.CanAccept());
  ASSERT_NE(queue.PopOrWait(), nullptr);
  queue.TaskDone();
  queue.WaitDrained();  // Immediate: nothing in flight.
  EXPECT_EQ(queue.stats().depth, 0u);
  EXPECT_EQ(queue.stats().pushed, 2u);
}

TEST(ShardQueueTest, StopDrainsQueuedBatchesBeforeNull) {
  ShardQueue queue(8);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.Push(std::make_shared<IngestBatch>()));
  }
  queue.Stop();
  EXPECT_FALSE(queue.CanAccept());
  EXPECT_FALSE(queue.Push(std::make_shared<IngestBatch>()));
  // All three queued batches are still delivered after Stop.
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(queue.PopOrWait(), nullptr) << "batch " << i;
    queue.TaskDone();
  }
  EXPECT_EQ(queue.PopOrWait(), nullptr);
}

TEST(ShardQueueTest, ShutdownWhileFullDeliversEveryQueuedBatch) {
  // Stop() on a queue at capacity: nothing queued is dropped, the stats
  // stay coherent, and a blocked worker drains to completion.
  constexpr size_t kCapacity = 4;
  ShardQueue queue(kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    ASSERT_TRUE(queue.CanAccept()) << "slot " << i;
    ASSERT_TRUE(queue.Push(std::make_shared<IngestBatch>()));
  }
  ASSERT_FALSE(queue.CanAccept());  // Full.
  EXPECT_EQ(queue.stats().depth, kCapacity);

  std::atomic<uint64_t> drained{0};
  std::thread worker([&queue, &drained] {
    while (queue.PopOrWait() != nullptr) {
      ++drained;
      queue.TaskDone();
    }
  });
  queue.Stop();  // While full, with the worker mid-drain.
  worker.join();
  EXPECT_EQ(drained.load(), kCapacity);
  const ShardQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.pushed, kCapacity);
  EXPECT_EQ(stats.depth, 0u);
  // WaitDrained after full drain returns immediately instead of hanging.
  queue.WaitDrained();
}

TEST(ShardQueueTest, DrainAfterShutdownReturnsNullForever) {
  ShardQueue queue(2);
  ASSERT_TRUE(queue.Push(std::make_shared<IngestBatch>()));
  queue.Stop();
  // The queued batch is still handed out once, then the queue stays
  // terminally empty: repeated PopOrWait calls keep returning nullptr
  // without blocking (a worker re-polling after shutdown must not hang).
  ASSERT_NE(queue.PopOrWait(), nullptr);
  queue.TaskDone();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(queue.PopOrWait(), nullptr) << "poll " << i;
  }
  // Push after shutdown is refused and does not disturb accounting.
  EXPECT_FALSE(queue.Push(std::make_shared<IngestBatch>()));
  const ShardQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.pushed, 1u);
  EXPECT_EQ(stats.depth, 0u);
}

// --- Acceptance: end-to-end loopback flow ------------------------------

TEST(SketchServerTest, EndToEndLoopbackWithSummaryAndQueries) {
  SketchServer server(ServerOptions(/*copies=*/256));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok);

  // Two overlapping streams with churn (insertions AND deletions).
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.25));
  const PartitionedDataset data = gen.Generate(49152, 55);
  std::vector<Update> updates = data.ToInsertUpdates(3);
  ChurnOptions churn;
  churn.seed = 77;
  updates = InjectChurn(updates, churn);
  ASSERT_GE(updates.size(), 100000u);

  ExactSetStore exact(3);
  for (const Update& u : updates) exact.Apply(u);

  const std::vector<std::string> names = {"A", "B"};
  uint64_t acknowledged = 0;
  const size_t kBatch = 8192;
  for (size_t begin = 0; begin < updates.size(); begin += kBatch) {
    UpdateBatch batch;
    batch.stream_names = names;
    const size_t end = std::min(updates.size(), begin + kBatch);
    batch.updates.assign(updates.begin() + begin, updates.begin() + end);
    const SketchClient::Status status = client->PushUpdatesWithRetry(batch);
    ASSERT_TRUE(status.ok) << status.error;
    acknowledged += status.accepted;
  }
  EXPECT_EQ(acknowledged, updates.size());

  // One site ships a summary for a third stream C over the same coins.
  Site site("site-1", TestParams(), 256, kMasterSeed);
  site.ObserveStream("C");
  Xoshiro256StarStar rng(4242);
  for (int e = 0; e < 4000; ++e) {
    const uint64_t element = rng.Next();
    site.Ingest("C", element, 1);
    exact.Apply(Insert(2, element));
  }
  const SketchClient::Status summary_status =
      client->PushSummary(site.EncodeSummary());
  ASSERT_TRUE(summary_status.ok) << summary_status.error;
  EXPECT_EQ(summary_status.accepted, 1u);
  EXPECT_FALSE(summary_status.replaced);
  // Idempotent retransmission.
  const SketchClient::Status again = client->PushSummary(site.EncodeSummary());
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(again.replaced);

  // Union, intersection and difference queries answered remotely must hit
  // the same relative-error envelope the in-process engine test asserts.
  const StreamNameMap name_map = {{"A", 0}, {"B", 1}, {"C", 2}};
  for (const std::string& text :
       {std::string("A | B"), std::string("A & B"), std::string("A - B"),
        std::string("A | C")}) {
    const QueryResultInfo answer = client->Query(text);
    ASSERT_TRUE(answer.ok) << text << ": " << answer.error;
    const ParseResult parsed = ParseExpression(text);
    const int64_t truth =
        ExactCardinality(*parsed.expression, exact, name_map);
    ASSERT_GT(truth, 0) << text;
    EXPECT_LT(RelativeError(answer.estimate, static_cast<double>(truth)),
              0.7)
        << text << ": estimate " << answer.estimate << " vs exact " << truth;
    EXPECT_LE(answer.lo, answer.hi) << text;
  }

  std::string stats_text;
  ASSERT_TRUE(client->Stats(&stats_text).ok);
  EXPECT_NE(stats_text.find("updates_applied " +
                            std::to_string(updates.size())),
            std::string::npos)
      << stats_text;
  EXPECT_NE(stats_text.find("summaries_accepted 2"), std::string::npos);

  ASSERT_TRUE(client->Shutdown().ok);
  server.Wait();
  EXPECT_EQ(server.stats().updates_applied, updates.size());
}

// --- Acceptance: backpressure + graceful drain --------------------------

TEST(SketchServerTest, InvalidConfigIsRefusedBeforeRecoveryOrBinding) {
  // A backend size the first tagged push would abort the server on, and
  // a copy count its own checkpoint could never be restored with.
  SketchServer::Options small_backend;
  small_backend.backend_size = kMinBackendSize / 2;
  SketchServer::Options too_many_copies;
  too_many_copies.params.levels = 1;
  too_many_copies.params.num_second_level = 1;
  too_many_copies.copies = kMaxCopies + 1;
  for (SketchServer::Options options : {small_backend, too_many_copies}) {
    const std::filesystem::path wal =
        std::filesystem::path(::testing::TempDir()) / "never_created_wal";
    std::filesystem::remove_all(wal);
    options.wal_dir = wal.string();
    SketchServer server(options);
    std::string error;
    EXPECT_FALSE(server.Start(&error));
    EXPECT_NE(error.find("invalid sketch configuration"), std::string::npos)
        << error;
    EXPECT_LE(server.port(), 0);  // Never bound.
    EXPECT_FALSE(std::filesystem::exists(wal));

    std::ostringstream announce;
    const CommandResult served = RunServe(options, &announce);
    EXPECT_FALSE(served.ok);
    EXPECT_NE(served.error.find("invalid sketch configuration"),
              std::string::npos)
        << served.error;
    EXPECT_TRUE(announce.str().empty());
  }
}

TEST(SketchServerTest, ShapesTheBankCannotHoldAreRefusedByStart) {
  // Levels 0 and copies 0 have no sketch family at all: constructing the
  // server must not abort, and Start must refuse them with the typed
  // error before recovering or binding.
  SketchServer::Options no_levels;
  no_levels.params.levels = 0;
  SketchServer::Options no_copies;
  no_copies.copies = 0;
  for (SketchServer::Options options : {no_levels, no_copies}) {
    const std::filesystem::path wal =
        std::filesystem::path(::testing::TempDir()) / "never_created_wal";
    std::filesystem::remove_all(wal);
    options.wal_dir = wal.string();
    SketchServer server(options);
    std::string error;
    EXPECT_FALSE(server.Start(&error));
    EXPECT_NE(error.find("invalid sketch configuration"), std::string::npos)
        << error;
    EXPECT_LE(server.port(), 0);  // Never bound.
    EXPECT_FALSE(std::filesystem::exists(wal));
  }
}

TEST(SketchServerTest, BackpressureRetryLaterLosesNoAcknowledgedBatch) {
  // One slow shard with a single-slot queue: the round trip is much
  // faster than applying a 5000-update batch at r = 512, so consecutive
  // pushes must observe RETRY_LATER.
  SketchServer::Options options =
      ServerOptions(/*copies=*/512, /*shards=*/1, /*queue_capacity=*/1);
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  constexpr int kBatches = 20;
  constexpr int kPerBatch = 5000;
  std::vector<Update> all;
  all.reserve(kBatches * kPerBatch);
  uint64_t retries_seen = 0;
  uint64_t acknowledged_updates = 0;
  for (int b = 0; b < kBatches; ++b) {
    UpdateBatch batch;
    batch.stream_names = {"A"};
    batch.updates.reserve(kPerBatch);
    for (int i = 0; i < kPerBatch; ++i) {
      const uint64_t element =
          static_cast<uint64_t>(b * kPerBatch + i) * 2654435761ULL;
      // Every 5th update is a deletion of the previous element (net
      // churn), so the drained state exercises signed counters too.
      const int64_t delta = i % 5 == 4 ? -1 : 1;
      batch.updates.push_back(Update{0, element, delta});
    }
    all.insert(all.end(), batch.updates.begin(), batch.updates.end());
    uint64_t retries = 0;
    const SketchClient::Status status = client->PushUpdatesWithRetry(
        batch, /*max_attempts=*/10000, /*backoff_ms=*/1, &retries);
    ASSERT_TRUE(status.ok) << status.error;
    retries_seen += retries;
    acknowledged_updates += status.accepted;
  }
  EXPECT_GT(retries_seen, 0u) << "backpressure never engaged";
  EXPECT_EQ(acknowledged_updates, all.size());

  // Graceful shutdown drains the queue; afterwards the server's bank must
  // be bit-identical to a serial reference ingest — nothing acknowledged
  // was lost, nothing applied twice.
  ASSERT_TRUE(client->Shutdown().ok);
  server.Wait();
  EXPECT_EQ(server.stats().updates_applied, all.size());
  EXPECT_EQ(server.stats().batches_rejected, retries_seen);

  SketchBank reference(SketchFamily(options.params, options.copies,
                                    options.seed));
  reference.AddStream("A");
  for (const Update& u : all) reference.Apply("A", u.element, u.delta);
  const auto& served = server.bank().Sketches("A");
  const auto& expected = reference.Sketches("A");
  ASSERT_EQ(served.size(), expected.size());
  for (size_t i = 0; i < served.size(); ++i) {
    ASSERT_TRUE(served[i] == expected[i]) << "copy " << i;
  }
}

// --- Query/push edge cases over the wire --------------------------------

TEST(SketchServerTest, QueryErrorsAndProvablyEmpty) {
  SketchServer server(ServerOptions(/*copies=*/16));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  UpdateBatch batch;
  batch.stream_names = {"A"};
  batch.updates = {Insert(0, 7), Insert(0, 8)};
  ASSERT_TRUE(client->PushUpdates(batch).ok);

  const QueryResultInfo parse_error = client->Query("A &");
  EXPECT_FALSE(parse_error.ok);
  EXPECT_NE(parse_error.error.find("parse error"), std::string::npos);

  const QueryResultInfo unknown = client->Query("A & Nope");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unknown stream"), std::string::npos);

  // Algebraically empty: answered exactly, even for unknown streams' ids.
  const QueryResultInfo empty = client->Query("A - A");
  EXPECT_TRUE(empty.ok) << empty.error;
  EXPECT_DOUBLE_EQ(empty.estimate, 0.0);
}

TEST(SketchServerTest, RepeatedQueryTextHitsAndMatchesAFreshPlanner) {
  SketchServer server(ServerOptions(/*copies=*/32));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  UpdateBatch batch;
  batch.stream_names = {"A", "B", "C"};
  for (uint64_t e = 1; e <= 900; ++e) {
    batch.updates.push_back(Insert(static_cast<StreamId>(e % 3), e));
    if (e % 4 == 0) batch.updates.push_back(Insert(0, e));
  }
  ASSERT_TRUE(client->PushUpdates(batch).ok);

  const std::string text = "(A - B) | C";
  const QueryResultInfo first = client->Query(text);
  ASSERT_TRUE(first.ok) << first.error;
  const uint64_t hits = server.stats().plan_cache_hits;
  const QueryResultInfo second = client->Query(text);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(server.stats().plan_cache_hits, hits + 1);

  // The memoized answer is what a planner that never saw the text says
  // over the same bank (quiesced: the query drained every queue and no
  // push is in flight), bit for bit, expression included.
  PlanCache fresh(PlanCache::Options{server.options().witness});
  const PlanCache::Result expected = fresh.Query(text, server.bank());
  ASSERT_TRUE(expected.ok) << expected.error;
  for (const QueryResultInfo& served : {first, second}) {
    EXPECT_EQ(served.estimate, expected.estimate);
    EXPECT_EQ(served.lo, expected.interval.lo);
    EXPECT_EQ(served.hi, expected.interval.hi);
    EXPECT_EQ(served.expression, "((A - B) | C)");
  }
  server.Stop();
}

TEST(SketchServerTest, FreshQueryProbedOnShardsMatchesInProcessPlanner) {
  // A QUERY right after a PUSH finds its plan stale and fills the probe
  // table on the shard workers, each the cells of the copies it owns
  // (also when a shard's range ends inside a word, or is empty). The
  // answer must be bit-identical to an in-process planner over a bank
  // fed the same updates.
  const std::vector<std::string> names = {"A", "B", "C", "D"};
  const std::vector<std::string> texts = {"(A - B) | (C & D)", "A & B",
                                          "(A | B | C) - D"};
  for (const int shards : {1, 2, 3}) {
    for (const int copies : {1, 100, 128}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " copies " +
                   std::to_string(copies));
      SketchServer server(ServerOptions(copies, shards));
      std::string error;
      ASSERT_TRUE(server.Start(&error)) << error;
      auto client = MustConnect(server);
      ASSERT_NE(client, nullptr);
      SketchBank local(SketchFamily(TestParams(), copies, kMasterSeed));
      for (const std::string& name : names) local.AddStream(name);
      PlanCache planner(PlanCache::Options{server.options().witness});

      SplitMix64 rng(static_cast<uint64_t>(shards * 1000 + copies));
      for (int round = 0; round < 6; ++round) {
        UpdateBatch batch;
        batch.stream_names = names;
        const int size = round == 0 ? 2000 : 64;
        for (int i = 0; i < size; ++i) {
          const auto stream = static_cast<StreamId>(rng.Next() % 4);
          const uint64_t element = 1 + rng.Next() % 5000;
          // Some deletions, including ones that drive net frequencies
          // negative (rows with negative cells).
          const int64_t delta = rng.Next() % 5 == 0 ? -1 : 1;
          batch.updates.push_back(Update{stream, element, delta});
          local.Apply(names[stream], element, delta);
        }
        ASSERT_TRUE(client->PushUpdates(batch).ok);
        const std::string& text = texts[static_cast<size_t>(round) % 3];
        const QueryResultInfo served = client->Query(text);
        const PlanCache::Result expected = planner.Query(text, local);
        ASSERT_EQ(served.ok, expected.ok) << served.error;
        EXPECT_EQ(served.estimate, expected.estimate) << text;
        EXPECT_EQ(served.lo, expected.interval.lo) << text;
        EXPECT_EQ(served.hi, expected.interval.hi) << text;
      }
      const SketchServer::StatsSnapshot stats = server.stats();
      EXPECT_EQ(stats.plan_cache_merge_builds, 6u);
      // EXPLAIN describes the table the shards fill: one part per shard,
      // each part's copies of a level rounded up to whole words.
      const int level_words = copies == 1 ? 1 : (shards == 3 ? 3 : 2);
      std::string report;
      ASSERT_TRUE(client->Explain(texts[0], &report).ok);
      EXPECT_NE(report.find("in " + std::to_string(shards) +
                            " part(s), bitsets of " +
                            std::to_string(level_words) +
                            " word(s) per level"),
                std::string::npos)
          << report;
      server.Stop();
    }
  }
}

TEST(SketchServerTest, ManyStreamQueryDoesNotStallPushAdmission) {
  // A QUERY naming 25 or 40 streams used to enumerate 2^n Venn regions
  // (or shift a 32-bit mask past its width) under the ingest locks. It
  // is now answered like any other, and a concurrent push is admitted.
  SketchServer server(ServerOptions(/*copies=*/16));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto pusher = MustConnect(server);
  ASSERT_NE(pusher, nullptr);
  constexpr int kStreams = 40;
  UpdateBatch batch;
  for (int k = 0; k < kStreams; ++k) {
    batch.stream_names.push_back("S" + std::to_string(k));
    for (uint64_t e = 0; e < 20; ++e) {
      batch.updates.push_back(
          Insert(static_cast<StreamId>(k), e * 64 + static_cast<uint64_t>(k)));
    }
  }
  ASSERT_TRUE(pusher->PushUpdates(batch).ok);

  for (const int n : {25, kStreams}) {
    // Empty for every input, but not provable within the enumeration
    // bound: estimated from the sketches.
    std::string text = "(S0";
    for (int k = 1; k < n; ++k) text += " & S" + std::to_string(k);
    text += ") - S" + std::to_string(n - 1);
    QueryResultInfo answer;
    double query_seconds = 0.0;
    std::thread querier([&server, &text, &answer, &query_seconds] {
      auto client = MustConnect(server);
      if (client == nullptr) return;
      const auto start = std::chrono::steady_clock::now();
      answer = client->Query(text);
      query_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    });
    const auto start = std::chrono::steady_clock::now();
    const SketchClient::Status pushed = pusher->PushUpdates(batch);
    const double push_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
    querier.join();
    EXPECT_TRUE(pushed.ok) << pushed.error;
    EXPECT_TRUE(answer.ok) << n << " streams: " << answer.error;
    EXPECT_EQ(answer.estimate, 0.0) << n << " streams";
    EXPECT_LT(query_seconds, 1.0) << n << " streams";
    EXPECT_LT(push_seconds, 1.0) << n << " streams";
  }
  server.Stop();
}

TEST(SketchServerTest, SiteSummaryExtendsPushedStreamByLinearity) {
  // Direct pushes to `web` plus a site's summary of `web` answer exactly
  // like one bank whose `web` column holds the summed counters.
  constexpr int kCopies = 64;
  SketchServer server(ServerOptions(kCopies));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  SketchBank summed(SketchFamily(TestParams(), kCopies, kMasterSeed));
  summed.AddStream("web");
  summed.AddStream("api");
  UpdateBatch batch;
  batch.stream_names = {"web", "api"};
  for (uint64_t e = 0; e < 3000; ++e) {
    batch.updates.push_back(Update{0, e * 7919 + 1, 1});
    if (e % 3 == 0) batch.updates.push_back(Update{1, e * 7919 + 1, 1});
  }
  ASSERT_TRUE(client->PushUpdatesWithRetry(batch).ok);
  summed.ApplyBatch(batch.stream_names, batch.updates);

  // The site overlaps the pushed elements and deletes some of them.
  Site site("Site", TestParams(), kCopies, kMasterSeed);
  site.ObserveStream("web");
  for (uint64_t e = 2000; e < 5000; ++e) {
    site.Ingest("web", e * 7919 + 1, e < 2200 ? -1 : 1);
  }
  ASSERT_TRUE(client->PushSummary(site.EncodeSummary()).ok);
  std::vector<TwoLevelHashSketch>& column = *summed.MutableSketches("web");
  for (int i = 0; i < kCopies; ++i) {
    column[static_cast<size_t>(i)].Merge(
        site.bank().Sketches("web")[static_cast<size_t>(i)]);
  }

  PlanCache cache(PlanCache::Options{server.options().witness});
  for (const char* text : {"web", "web - api", "web & api", "web | api"}) {
    const QueryResultInfo served = client->Query(text);
    const PlanCache::Result expected = cache.Query(text, summed);
    ASSERT_TRUE(expected.ok) << text << ": " << expected.error;
    ASSERT_TRUE(served.ok) << text << ": " << served.error;
    EXPECT_EQ(served.estimate, expected.estimate) << text;
    EXPECT_EQ(served.lo, expected.interval.lo) << text;
    EXPECT_EQ(served.hi, expected.interval.hi) << text;
  }
  server.Stop();
}

TEST(SketchServerTest, ExplainSeesSiteSummaryStreams) {
  // EXPLAIN reads the same view QUERY answers from: a stream carried only
  // by a site summary is known, a stream nobody sent is not.
  SketchServer server(ServerOptions(/*copies=*/16));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  Site site("s1", TestParams(), 16, kMasterSeed);
  site.ObserveStream("C");
  for (uint64_t e = 0; e < 100; ++e) site.Ingest("C", e * 31 + 7, 1);
  ASSERT_TRUE(client->PushSummary(site.EncodeSummary()).ok);
  ASSERT_TRUE(client->Query("C").ok);

  std::string report;
  ASSERT_TRUE(client->Explain("C", &report).ok);
  EXPECT_NE(report.find("streams (1): C\n"), std::string::npos) << report;
  EXPECT_EQ(report.find("[unknown]"), std::string::npos) << report;
  ASSERT_TRUE(client->Explain("C | Nope", &report).ok);
  EXPECT_NE(report.find("Nope [unknown]"), std::string::npos) << report;
  EXPECT_EQ(report.find("C [unknown]"), std::string::npos) << report;
  server.Stop();
}

TEST(SketchServerTest, DrainingServerRefusesNewPushes) {
  SketchServer server(ServerOptions(/*copies=*/8));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Shutdown().ok);

  UpdateBatch batch;
  batch.stream_names = {"A"};
  batch.updates = {Insert(0, 1)};
  const SketchClient::Status refused = client->PushUpdates(batch);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("SHUTTING_DOWN"), std::string::npos);
  server.Wait();
}

// --- Raw-socket protocol robustness -------------------------------------

/// Minimal raw connection for sending hand-crafted (possibly malformed)
/// byte sequences that SketchClient refuses to produce.
class RawConnection {
 public:
  explicit RawConnection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  bool Send(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Reads frames until one is decoded, the peer closes, or decoding
  /// fails client-side. Returns false on close/failure.
  bool ReadFrame(Frame* frame) {
    char buffer[4096];
    while (true) {
      const FrameScanStatus status = reader_.Next(frame);
      if (status == FrameScanStatus::kFrame) return true;
      if (status == FrameScanStatus::kError) return false;
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return false;
      reader_.Feed(std::string_view(buffer, static_cast<size_t>(n)));
    }
  }

  /// True iff the server closed the connection (EOF or reset).
  bool WaitClosed() {
    char buffer[256];
    while (true) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return true;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameReader reader_;
};

TEST(SketchServerTest, MalformedPayloadKeepsConnectionUsable) {
  SketchServer server(ServerOptions(/*copies=*/8));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  RawConnection raw(server.port());
  ASSERT_TRUE(raw.connected());

  // A PUSH_UPDATES frame whose payload is garbage: ERROR BAD_PAYLOAD,
  // but the frame boundary is intact so the connection survives.
  ASSERT_TRUE(raw.Send(EncodeFrame(Opcode::kPushUpdates, "\xff\xff\xff")));
  Frame reply;
  ASSERT_TRUE(raw.ReadFrame(&reply));
  ASSERT_EQ(reply.opcode, Opcode::kError);
  ErrorInfo info;
  ASSERT_TRUE(DecodeError(reply.payload, &info));
  EXPECT_EQ(info.code, WireError::kBadPayload);

  // A response opcode sent as a request: UNKNOWN_OPCODE, still open.
  ASSERT_TRUE(raw.Send(EncodeFrame(Opcode::kPong, "")));
  ASSERT_TRUE(raw.ReadFrame(&reply));
  ASSERT_EQ(reply.opcode, Opcode::kError);
  ASSERT_TRUE(DecodeError(reply.payload, &info));
  EXPECT_EQ(info.code, WireError::kUnknownOpcode);

  // The connection still answers pings afterwards.
  ASSERT_TRUE(raw.Send(EncodeFrame(Opcode::kPing, "still-here")));
  ASSERT_TRUE(raw.ReadFrame(&reply));
  EXPECT_EQ(reply.opcode, Opcode::kPong);
  EXPECT_EQ(reply.payload, "still-here");

  EXPECT_GE(server.stats().protocol_errors, 2u);
  server.Stop();
}

// --- Hostile synopses -----------------------------------------------------
//
// A few bytes can declare an enormous synopsis. Every receiver decodes a
// synopsis for its own configuration, so both payloads below are refused
// with a typed error before anything is allocated. Each case runs in a
// child process that caps its own address space at 1 GiB, so a receiver
// that allocated what the payload declares dies there instead of taxing
// the machine. Sanitizer builds reserve huge shadow mappings and run the
// child uncapped (their allocators refuse the 8 GiB request themselves).

/// A default-backend summary of one all-zero copy declaring levels 64 and
/// s = 2^24: 36 bytes that describe 8 GiB of counters.
std::string HugeTwoLevelSummary() {
  SketchParams params;
  params.levels = 64;
  params.num_second_level = 1;
  std::string copy;
  TwoLevelHashSketch(std::make_shared<const SketchSeed>(params, 7))
      .SerializeCompactTo(&copy);
  // Header: u32 magic, i32 levels, i32 s, u8 kind, i32 independence,
  // u64 seed; then one zero run over every cell.
  const int32_t s = 1 << 24;
  std::memcpy(&copy[8], &s, sizeof(s));
  copy.resize(25);
  AppendVarint(&copy, 0);
  AppendVarint(&copy, uint64_t{64} << 24);
  std::string summary(1, '\0');  // Backend 0, then a u32 copy count.
  const uint32_t copies = 1;
  summary.append(reinterpret_cast<const char*>(&copies), sizeof(copies));
  return summary + copy;
}

/// A set_sketch summary declaring 2^22 all-zero registers: a dozen bytes
/// that describe 1 GiB of counters.
std::string HugeSetSketchSummary() {
  std::string summary(1, static_cast<char>(SketchBackendId::kSetSketch));
  AppendVarint(&summary, kMaxBackendSize);
  AppendVarint(&summary, 1);  // Seed.
  AppendVarint(&summary, 0);  // One zero run over every cell.
  AppendVarint(&summary, uint64_t{kMaxBackendSize} * 64);
  return summary;
}

const std::vector<std::string>& HostileSummaries() {
  static const std::vector<std::string> summaries = {HugeTwoLevelSummary(),
                                                     HugeSetSketchSummary()};
  return summaries;
}

/// Sends one frame and expects an ERROR frame carrying `code`.
void ExpectErrorReply(RawConnection* raw, Opcode opcode,
                      const std::string& payload, WireError code) {
  ASSERT_TRUE(raw->Send(EncodeFrame(opcode, payload)));
  Frame reply;
  ASSERT_TRUE(raw->ReadFrame(&reply));
  ASSERT_EQ(reply.opcode, Opcode::kError);
  ErrorInfo info;
  ASSERT_TRUE(DecodeError(reply.payload, &info));
  EXPECT_EQ(info.code, code) << info.message;
}

TEST(HostileSynopsisTest, PushSummaryAndPushRepairRefuseBeforeAllocating) {
  ExpectCleanInCappedChild([] {
    // One copy, so the two-level payload's copy count passes and its
    // declared shape is what gets refused.
    SketchServer server(ServerOptions(/*copies=*/1));
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    RawConnection raw(server.port());
    ASSERT_TRUE(raw.connected());
    for (const std::string& hostile : HostileSummaries()) {
      std::string push_summary;  // Site name, one stream.
      AppendVarintString(&push_summary, "site");
      AppendVarint(&push_summary, 1);
      AppendVarintString(&push_summary, "S");
      ExpectErrorReply(&raw, Opcode::kPushSummary, push_summary + hostile,
                       WireError::kRejectedSummary);
      std::string push_repair(1, '\1');  // Replace mode, no site windows.
      AppendVarint(&push_repair, 0);
      AppendVarint(&push_repair, 1);
      AppendVarintString(&push_repair, "S");
      ExpectErrorReply(&raw, Opcode::kPushRepair, push_repair + hostile,
                       WireError::kBadPayload);
    }
    // The server still serves.
    ASSERT_TRUE(raw.Send(EncodeFrame(Opcode::kPing, "alive")));
    Frame reply;
    ASSERT_TRUE(raw.ReadFrame(&reply));
    EXPECT_EQ(reply.opcode, Opcode::kPong);
    server.Stop();
  });
}

TEST(HostileSynopsisTest, SummaryResultIsRefusedBeforeAllocating) {
  for (const std::string& hostile : HostileSummaries()) {
    ExpectCleanInCappedChild([&hostile] {
      // A fake shard answering the pull with one full, hostile entry.
      const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      socklen_t len = sizeof(addr);
      ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), len),
                0);
      ASSERT_EQ(::listen(listen_fd, 1), 0);
      ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                              &len),
                0);
      std::string result;
      AppendVarint(&result, 1);
      AppendVarintString(&result, "S");
      result.push_back(static_cast<char>(SummaryState::kFull));
      AppendVarint(&result, 1);  // Bank id.
      AppendVarint(&result, 1);  // Epoch.
      result += hostile;
      std::thread shard([listen_fd, &result] {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) return;
        FrameReader reader;
        Frame frame;
        char buffer[4096];
        while (reader.Next(&frame) != FrameScanStatus::kFrame) {
          const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
          if (n <= 0) break;
          reader.Feed(std::string_view(buffer, static_cast<size_t>(n)));
        }
        const std::string reply = EncodeFrame(Opcode::kSummaryResult, result);
        ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        ::close(fd);
      });

      // The router's receiver: one copy, the default backend options.
      const SketchBank receiver(SketchFamily(TestParams(), 1, kMasterSeed));
      std::string error;
      auto client =
          SketchClient::Connect("127.0.0.1", ntohs(addr.sin_port), &error);
      if (client == nullptr) {
        ADD_FAILURE() << error;
        ::shutdown(listen_fd, SHUT_RDWR);  // Unblocks the shard's accept.
      } else {
        SummaryPullRequest request;
        request.streams.push_back({"S", 0, 0});
        SummaryResult pulled;
        const SketchClient::Status status =
            client->PullSummaries(request, &receiver, &pulled);
        EXPECT_FALSE(status.ok);
        EXPECT_EQ(status.code, WireError::kBadPayload) << status.error;
        EXPECT_TRUE(pulled.streams.empty());
      }
      shard.join();
      ::close(listen_fd);
    });
  }
}

TEST(SketchServerTest, HeaderCorruptionClosesConnectionWithErrorFrame) {
  SketchServer server(ServerOptions(/*copies=*/8));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  RawConnection raw(server.port());
  ASSERT_TRUE(raw.connected());

  ASSERT_TRUE(raw.Send("this is not a frame at all"));
  Frame reply;
  ASSERT_TRUE(raw.ReadFrame(&reply));
  ASSERT_EQ(reply.opcode, Opcode::kError);
  ErrorInfo info;
  ASSERT_TRUE(DecodeError(reply.payload, &info));
  EXPECT_EQ(info.code, WireError::kBadMagic);
  EXPECT_TRUE(raw.WaitClosed());
  server.Stop();
}

TEST(SketchServerTest, ErrorBudgetDropsAbusiveConnection) {
  SketchServer::Options options = ServerOptions(/*copies=*/8);
  options.max_connection_errors = 3;
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  RawConnection raw(server.port());
  ASSERT_TRUE(raw.connected());

  // Three recoverable payload errors exhaust the budget; the server
  // answers each, then drops the connection with TOO_MANY_ERRORS.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(raw.Send(EncodeFrame(Opcode::kPushUpdates, "\xff")));
  }
  Frame reply;
  ErrorInfo info;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(raw.ReadFrame(&reply)) << "reply " << i;
    ASSERT_EQ(reply.opcode, Opcode::kError);
    ASSERT_TRUE(DecodeError(reply.payload, &info));
    EXPECT_EQ(info.code, WireError::kBadPayload);
  }
  ASSERT_TRUE(raw.ReadFrame(&reply));
  ASSERT_EQ(reply.opcode, Opcode::kError);
  ASSERT_TRUE(DecodeError(reply.payload, &info));
  EXPECT_EQ(info.code, WireError::kTooManyErrors);
  EXPECT_TRUE(raw.WaitClosed());
  server.Stop();
}

TEST(SketchServerTest, ConcurrentClientsMergeIntoOneView) {
  SketchServer server(ServerOptions(/*copies=*/128));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Three clients concurrently push disjoint fragments of stream A.
  constexpr int kClients = 3;
  constexpr int kPerClient = 2000;
  std::vector<std::thread> pushers;
  for (int c = 0; c < kClients; ++c) {
    pushers.emplace_back([&server, c] {
      std::string connect_error;
      auto client =
          SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
      ASSERT_NE(client, nullptr) << connect_error;
      UpdateBatch batch;
      batch.stream_names = {"A"};
      for (int i = 0; i < kPerClient; ++i) {
        batch.updates.push_back(
            Insert(0, static_cast<uint64_t>(c * kPerClient + i) * 7919 + 1));
      }
      const SketchClient::Status status =
          client->PushUpdatesWithRetry(batch);
      EXPECT_TRUE(status.ok) << status.error;
    });
  }
  for (std::thread& pusher : pushers) pusher.join();

  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);
  const QueryResultInfo answer = client->Query("A");
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_LT(RelativeError(answer.estimate, kClients * kPerClient), 0.5);
  server.Stop();
}

// --- Backend-tagged ingest -----------------------------------------------

TEST(SketchServerTest, BackendTaggedPushServesEstimatesAndStats) {
  SketchServer server(ServerOptions(/*copies=*/64));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  // One batch names a default stream D plus two backend-tagged streams:
  // T on theta/KMV and S on SetSketch. The tags ride the PUSH frame.
  UpdateBatch batch;
  batch.stream_names = {"D", "T", "S"};
  batch.stream_backends = {
      0, static_cast<uint8_t>(SketchBackendId::kThetaKmv),
      static_cast<uint8_t>(SketchBackendId::kSetSketch)};
  constexpr int kD = 6000, kT = 4000, kS = 2000;
  for (int e = 0; e < kD; ++e) {
    const uint64_t element = static_cast<uint64_t>(e) * 0x9E3779B9ULL + 1;
    batch.updates.push_back(Insert(0, element));
    if (e < kT) batch.updates.push_back(Insert(1, element));
    if (e < kS) batch.updates.push_back(Insert(2, element));
  }
  const SketchClient::Status status = client->PushUpdatesWithRetry(batch);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(status.accepted, batch.updates.size());

  // Every stream answers through its own synopsis within a loose
  // envelope (backend size 4096 => eps well under 10%).
  const std::pair<const char*, double> probes[] = {
      {"D", kD}, {"T", kT}, {"S", kS}};
  for (const auto& [name, truth] : probes) {
    const QueryResultInfo answer = client->Query(name);
    ASSERT_TRUE(answer.ok) << name << ": " << answer.error;
    EXPECT_LT(RelativeError(answer.estimate, truth), 0.2)
        << name << ": estimate " << answer.estimate << " vs " << truth;
    EXPECT_LE(answer.lo, answer.hi) << name;
  }

  // Expressions cannot mix synopsis types; the refusal is typed, not a
  // crash or a silently wrong number.
  const QueryResultInfo mixed = client->Query("T | S");
  EXPECT_FALSE(mixed.ok);
  EXPECT_NE(mixed.error.find("mixed sketch backends"), std::string::npos)
      << mixed.error;

  // STATS surfaces the backend wiring for operators.
  std::string stats_text;
  ASSERT_TRUE(client->Stats(&stats_text).ok);
  EXPECT_NE(stats_text.find("backend_default two_level_hash"),
            std::string::npos)
      << stats_text;
  EXPECT_NE(stats_text.find("backend_streams 2"), std::string::npos)
      << stats_text;
  EXPECT_NE(stats_text.find("plan_cache_backend_queries"),
            std::string::npos)
      << stats_text;
  server.Stop();
}

TEST(SketchServerTest, BackendConflictRefusedWithoutSideEffects) {
  SketchServer server(ServerOptions(/*copies=*/64));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  auto client = MustConnect(server);
  ASSERT_NE(client, nullptr);

  // X is born on theta/KMV.
  UpdateBatch first;
  first.stream_names = {"X"};
  first.stream_backends = {static_cast<uint8_t>(SketchBackendId::kThetaKmv)};
  for (int e = 0; e < 1000; ++e) {
    first.updates.push_back(Insert(0, static_cast<uint64_t>(e) * 7919 + 3));
  }
  ASSERT_TRUE(client->PushUpdatesWithRetry(first).ok);
  // Apply is asynchronous: a QUERY waits for the shard queues to drain,
  // so the count read after it covers every ACKed update.
  ASSERT_TRUE(client->Query("X").ok);
  const uint64_t applied_before = server.stats().updates_applied;

  // A batch re-tagging X as set_sketch is refused wholesale — including
  // the brand-new stream Y riding in the same frame.
  UpdateBatch conflicting;
  conflicting.stream_names = {"X", "Y"};
  conflicting.stream_backends = {
      static_cast<uint8_t>(SketchBackendId::kSetSketch),
      static_cast<uint8_t>(SketchBackendId::kSetSketch)};
  conflicting.updates = {Insert(0, 1), Insert(1, 2)};
  const SketchClient::Status refused = client->PushUpdates(conflicting);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("CONFIG_MISMATCH"), std::string::npos)
      << refused.error;
  EXPECT_NE(refused.error.find("already uses the theta_kmv backend"),
            std::string::npos)
      << refused.error;

  // No trace: Y never registered, nothing applied (the failed query
  // drains first), X still queryable.
  EXPECT_FALSE(client->Query("Y").ok);
  EXPECT_EQ(server.stats().updates_applied, applied_before);
  const QueryResultInfo x = client->Query("X");
  ASSERT_TRUE(x.ok) << x.error;
  EXPECT_LT(RelativeError(x.estimate, 1000.0), 0.2);

  // Tag 0 means "no preference": untagged updates to X are welcome.
  UpdateBatch untagged;
  untagged.stream_names = {"X"};
  untagged.updates = {Insert(0, 0xFEEDu)};
  EXPECT_TRUE(client->PushUpdatesWithRetry(untagged).ok);
  server.Stop();
}

}  // namespace
}  // namespace setsketch
