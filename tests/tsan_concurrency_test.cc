// Concurrency stress tests, written to run under ThreadSanitizer
// (tools/check.sh stage 3: -DSETSKETCH_SANITIZE=thread) but correct in
// every build: each test also asserts functional results, so a plain run
// still verifies behavior while a TSan run additionally proves the
// interleavings are race-free.
//
// Coverage targets the shared-state seams PRs 1–2 introduced:
//   * lazy first use of SketchSeed's bit-sliced SecondLevelSlice from
//     many threads at once (the regression test for the lazy-init race —
//     without the std::call_once publication in SketchSeed::slice(),
//     TSan flags this immediately);
//   * ShardQueue push/drain/shutdown from concurrent producers and a
//     consumer, including Stop() racing active pushes;
//   * ParallelIngest fanning one update batch over a shared SketchBank;
//   * SketchServer serving PUSH/QUERY/STATS from concurrent clients, and
//     stale queries filling probe tables on the shard workers while
//     pushes keep arriving;
//   * Wal appends from many threads racing a rotation (the shard-mutex
//     seam the fault-tolerance PR introduced);
//   * the cluster router's probe loop, repair sweeps, and online
//     membership changes racing forwarded pushes and federated queries
//     (the write gate / placement / in-doubt seams of the self-healing
//     PR).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_router.h"
#include "core/sketch_bank.h"
#include "core/sketch_seed.h"
#include "query/parallel_ingest.h"
#include "query/plan_cache.h"
#include "server/shard_queue.h"
#include "server/sketch_client.h"
#include "server/sketch_server.h"
#include "server/wal.h"
#include "stream/update.h"

namespace setsketch {
namespace {

/// Spin barrier: release all threads into the contended region at once so
/// short critical sections actually overlap instead of serializing on
/// thread start-up latency.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : waiting_(parties) {}

  void ArriveAndWait() {
    waiting_.fetch_sub(1, std::memory_order_acq_rel);
    while (waiting_.load(std::memory_order_acquire) > 0) {
    }
  }

 private:
  std::atomic<int> waiting_;
};

SketchParams SmallParams() {
  SketchParams params;
  params.levels = 24;
  params.num_second_level = 32;
  return params;
}

// --- Lazy SecondLevelSlice publication ----------------------------------

TEST(TsanConcurrencyTest, LazySliceConcurrentFirstUseIsRaceFree) {
  // Fresh seed per round so every round re-runs the lazy *first* build;
  // several rounds give the scheduler chances to overlap the window.
  constexpr int kThreads = 8;
  constexpr int kRounds = 16;
  for (int round = 0; round < kRounds; ++round) {
    const SketchSeed seed(SmallParams(), 0x5EEDF00DULL + round);
    SpinBarrier barrier(kThreads);
    std::vector<const SecondLevelSlice*> seen(kThreads, nullptr);
    std::vector<uint64_t> bits(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        barrier.ArriveAndWait();
        const SecondLevelSlice* slice = seed.slice();
        seen[static_cast<size_t>(t)] = slice;
        bits[static_cast<size_t>(t)] =
            slice->Bits(0x9E3779B97F4A7C15ULL * (round + 1));
      });
    }
    for (std::thread& thread : threads) thread.join();
    // One fully built slice, observed identically by every thread.
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]) << "thread " << t;
      EXPECT_EQ(bits[static_cast<size_t>(t)], bits[0]) << "thread " << t;
    }
    // The lazily built slice agrees with per-function scalar evaluation.
    const uint64_t probe = 0x9E3779B97F4A7C15ULL * (round + 1);
    uint64_t scalar = 0;
    for (int j = 0; j < seed.num_second_level(); ++j) {
      scalar |= static_cast<uint64_t>(seed.second_level(j)(probe)) << j;
    }
    EXPECT_EQ(bits[0], scalar);
  }
}

// --- ShardQueue under producer/consumer/shutdown contention -------------

TEST(TsanConcurrencyTest, ShardQueuePushDrainShutdownStress) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 400;
  ShardQueue queue(8);

  // Producers follow the server's admission protocol: CanAccept + Push
  // under one shared producer mutex (Push itself is unconditional).
  std::mutex push_mutex;
  std::atomic<uint64_t> pushed{0};
  std::atomic<uint64_t> refused{0};
  SpinBarrier barrier(kProducers + 1);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      barrier.ArriveAndWait();
      for (int i = 0; i < kPerProducer; ++i) {
        std::lock_guard<std::mutex> lock(push_mutex);
        if (queue.CanAccept()) {
          ASSERT_TRUE(queue.Push(std::make_shared<IngestBatch>()));
          ++pushed;
        } else {
          queue.CountRejected();
          ++refused;
        }
      }
    });
  }

  std::atomic<uint64_t> drained{0};
  std::thread consumer([&] {
    barrier.ArriveAndWait();
    while (queue.PopOrWait() != nullptr) {
      ++drained;
      queue.TaskDone();
    }
  });

  for (std::thread& producer : producers) producer.join();
  queue.WaitDrained();
  queue.Stop();  // Races the consumer's PopOrWait on purpose.
  consumer.join();

  EXPECT_EQ(drained.load(), pushed.load());
  EXPECT_EQ(pushed.load() + refused.load(),
            static_cast<uint64_t>(kProducers) * kPerProducer);
  const ShardQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.pushed, pushed.load());
  EXPECT_EQ(stats.rejected, refused.load());
  EXPECT_EQ(stats.depth, 0u);
}

TEST(TsanConcurrencyTest, ShardQueueStopRacingActivePushes) {
  // Stop() fired from a second thread mid-stream: pushes after the stop
  // return false, everything pushed before is still delivered (drain
  // semantics), and no accounting is lost in the race window.
  for (int round = 0; round < 20; ++round) {
    ShardQueue queue(64);
    std::atomic<uint64_t> accepted{0};
    std::atomic<bool> stop_issued{false};
    SpinBarrier barrier(3);
    std::thread producer([&] {
      barrier.ArriveAndWait();
      // Single producer: CanAccept-then-Push needs no producer mutex
      // (only the consumer changes in_flight concurrently, downwards).
      for (int i = 0; i < 200; ++i) {
        if (!queue.CanAccept()) {
          if (stop_issued.load()) break;
          continue;  // Full: retry; the consumer is draining.
        }
        if (!queue.Push(std::make_shared<IngestBatch>())) break;
        ++accepted;
      }
    });
    std::thread stopper([&] {
      barrier.ArriveAndWait();
      stop_issued.store(true);
      queue.Stop();
    });
    uint64_t drained = 0;
    barrier.ArriveAndWait();
    while (queue.PopOrWait() != nullptr) {
      ++drained;
      queue.TaskDone();
    }
    producer.join();
    stopper.join();
    // The consumer loop exits only once stopped AND empty, so every
    // accepted batch was delivered... but late pushes can land after the
    // consumer saw the stopped+empty state; drain the remainder.
    while (queue.PopOrWait() != nullptr) {
      ++drained;
      queue.TaskDone();
    }
    EXPECT_EQ(drained, accepted.load()) << "round " << round;
  }
}

// --- ParallelIngest over a shared bank ----------------------------------

TEST(TsanConcurrencyTest, ParallelIngestSharedBankMatchesSerial) {
  const SketchParams params = SmallParams();
  constexpr int kCopies = 32;
  constexpr uint64_t kSeed = 20030609;
  const std::vector<std::string> names = {"A", "B", "C"};

  std::vector<Update> updates;
  updates.reserve(30000);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t element =
        static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL + 1;
    updates.push_back(Update{static_cast<StreamId>(i % 3), element,
                             i % 7 == 6 ? -1 : 1});
  }

  SketchBank parallel_bank(SketchFamily(params, kCopies, kSeed));
  SketchBank serial_bank(SketchFamily(params, kCopies, kSeed));
  for (const std::string& name : names) {
    parallel_bank.AddStream(name);
    serial_bank.AddStream(name);
  }

  const size_t applied =
      ParallelIngest(&parallel_bank, names, updates, /*threads=*/4);
  EXPECT_EQ(applied, updates.size());
  for (const Update& u : updates) {
    serial_bank.Apply(names[u.stream], u.element, u.delta);
  }

  // Copy-range ownership must leave the result bit-identical to serial.
  for (const std::string& name : names) {
    const auto& got = parallel_bank.Sketches(name);
    const auto& want = serial_bank.Sketches(name);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i] == want[i]) << name << " copy " << i;
    }
  }
}

// --- WAL appends racing rotation ----------------------------------------

TEST(TsanConcurrencyTest, WalConcurrentAppendsAndRotationLoseNoRecord) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "tsan_wal_stress";
  std::filesystem::remove_all(dir);

  Wal::Options options;
  options.dir = dir.string();
  options.shards = 2;
  options.fsync = false;  // Contention is the point here, not durability.
  std::string open_error;
  std::unique_ptr<Wal> wal = Wal::Open(options, 0, &open_error);
  ASSERT_NE(wal, nullptr) << open_error;

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 150;
  SpinBarrier barrier(kWriters + 1);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&wal, &barrier, w] {
      barrier.ArriveAndWait();
      for (int i = 0; i < kPerWriter; ++i) {
        WalRecord record;
        record.site_id = "writer-" + std::to_string(w);
        record.sequence = static_cast<uint64_t>(i) + 1;
        record.payload = "payload";
        std::string error;
        ASSERT_TRUE(wal->Append(record, &error)) << error;
      }
    });
  }
  // Rotations race the appends: each append lands entirely in one
  // generation or the next, never torn across the boundary.
  std::thread rotator([&wal, &barrier] {
    barrier.ArriveAndWait();
    for (int r = 0; r < 5; ++r) {
      uint64_t previous = 0;
      std::string error;
      ASSERT_TRUE(wal->Rotate(&previous, &error)) << error;
    }
  });
  for (std::thread& writer : writers) writer.join();
  rotator.join();
  EXPECT_EQ(wal->records_appended(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  wal.reset();

  // Every appended record replays exactly once across all generations.
  std::vector<uint64_t> per_writer_sum(kWriters, 0);
  WalReplayStats stats;
  std::string replay_error;
  ASSERT_TRUE(Wal::Replay(
      options.dir, 0,
      [&per_writer_sum](const WalRecord& record) {
        const int writer = record.site_id.back() - '0';
        ASSERT_GE(writer, 0);
        ASSERT_LT(writer, static_cast<int>(per_writer_sum.size()));
        per_writer_sum[static_cast<size_t>(writer)] += record.sequence;
      },
      &stats, &replay_error))
      << replay_error;
  EXPECT_EQ(stats.records_replayed,
            static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(stats.torn_segments, 0u);
  constexpr uint64_t kExpectedSum =
      static_cast<uint64_t>(kPerWriter) * (kPerWriter + 1) / 2;
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(per_writer_sum[static_cast<size_t>(w)], kExpectedSum)
        << "writer " << w;
  }
}

// --- SketchServer under mixed concurrent load ---------------------------

TEST(TsanConcurrencyTest, ServerConcurrentPushQueryStats) {
  SketchServer::Options options;
  options.params = SmallParams();
  options.copies = 32;
  options.seed = 4242;
  options.shards = 2;
  options.queue_capacity = 4;
  options.witness.pool_all_levels = true;
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kPushers = 2;
  constexpr int kBatches = 25;
  constexpr int kPerBatch = 200;
  SpinBarrier barrier(kPushers + 2);
  std::vector<std::thread> pushers;
  pushers.reserve(kPushers);
  for (int p = 0; p < kPushers; ++p) {
    pushers.emplace_back([&server, &barrier, p] {
      std::string connect_error;
      auto client =
          SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
      ASSERT_NE(client, nullptr) << connect_error;
      barrier.ArriveAndWait();
      for (int b = 0; b < kBatches; ++b) {
        UpdateBatch batch;
        batch.stream_names = {"A", "B"};
        batch.updates.reserve(kPerBatch);
        for (int i = 0; i < kPerBatch; ++i) {
          const uint64_t element = static_cast<uint64_t>(
              (p * kBatches + b) * kPerBatch + i) * 2654435761ULL + 1;
          batch.updates.push_back(
              Update{static_cast<StreamId>(i % 2), element, 1});
        }
        const SketchClient::Status status =
            client->PushUpdatesWithRetry(batch);
        ASSERT_TRUE(status.ok) << status.error;
      }
    });
  }

  std::atomic<bool> done{false};
  std::thread querier([&server, &barrier, &done] {
    std::string connect_error;
    auto client =
        SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
    ASSERT_NE(client, nullptr) << connect_error;
    barrier.ArriveAndWait();
    while (!done.load()) {
      const QueryResultInfo answer = client->Query("A | B");
      // Before any push lands the streams may be unknown; both outcomes
      // are legal mid-stream, racing answers must just never crash.
      if (answer.ok) {
        EXPECT_GE(answer.estimate, 0.0);
      }
    }
  });
  std::thread statser([&server, &barrier, &done] {
    std::string connect_error;
    auto client =
        SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
    ASSERT_NE(client, nullptr) << connect_error;
    barrier.ArriveAndWait();
    std::string text;
    while (!done.load()) {
      ASSERT_TRUE(client->Stats(&text).ok);
    }
  });

  for (std::thread& pusher : pushers) pusher.join();
  done.store(true);
  querier.join();
  statser.join();

  server.Stop();
  const SketchServer::StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.updates_applied,
            static_cast<uint64_t>(kPushers) * kBatches * kPerBatch);
}

// --- Plan cache under concurrent QUERY vs PUSH_UPDATES ------------------

TEST(TsanConcurrencyTest, ServerPlanCacheConcurrentQueryVsPush) {
  // Queriers hammer one logical query in two equivalent spellings (plus
  // EXPLAIN) while pushers mutate the very streams it reads. The plan
  // cache memoizes, invalidates on ingest epochs, and rebuilds probe
  // tables concurrently with admission — TSan proves the locking; the
  // functional assertions prove answers stay sane and the counters stay
  // coherent.
  SketchServer::Options options;
  options.params = SmallParams();
  options.copies = 32;
  options.seed = 777;
  options.shards = 2;
  options.queue_capacity = 4;
  options.witness.pool_all_levels = true;
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kPushers = 2;
  constexpr int kQueriers = 2;
  constexpr int kBatches = 20;
  constexpr int kPerBatch = 150;
  SpinBarrier barrier(kPushers + kQueriers);

  std::vector<std::thread> pushers;
  pushers.reserve(kPushers);
  for (int p = 0; p < kPushers; ++p) {
    pushers.emplace_back([&server, &barrier, p] {
      std::string connect_error;
      auto client =
          SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
      ASSERT_NE(client, nullptr) << connect_error;
      barrier.ArriveAndWait();
      for (int b = 0; b < kBatches; ++b) {
        UpdateBatch batch;
        batch.stream_names = {"A", "B", "C"};
        batch.updates.reserve(kPerBatch);
        for (int i = 0; i < kPerBatch; ++i) {
          const uint64_t element = static_cast<uint64_t>(
              (p * kBatches + b) * kPerBatch + i) * 0x9E3779B97F4A7C15ULL;
          batch.updates.push_back(
              Update{static_cast<StreamId>(i % 3), element | 1, 1});
        }
        ASSERT_TRUE(client->PushUpdatesWithRetry(batch).ok);
      }
    });
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> queriers;
  queriers.reserve(kQueriers);
  for (int q = 0; q < kQueriers; ++q) {
    queriers.emplace_back([&server, &barrier, &done, q] {
      std::string connect_error;
      auto client =
          SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
      ASSERT_NE(client, nullptr) << connect_error;
      // Equivalent spellings: both canonicalize to one cached plan, so
      // the queriers contend on the same entry from both sides.
      const std::string spelling =
          q % 2 == 0 ? "A | (B & C)" : "(C & B) | A";
      barrier.ArriveAndWait();
      while (!done.load()) {
        const QueryResultInfo answer = client->Query(spelling);
        if (answer.ok) {
          EXPECT_GE(answer.estimate, 0.0);
          EXPECT_LE(answer.lo, answer.hi);
        }
        std::string report;
        ASSERT_TRUE(client->Explain(spelling, &report).ok);
        EXPECT_NE(report.find("canonical plan"), std::string::npos);
      }
    });
  }

  for (std::thread& pusher : pushers) pusher.join();
  done.store(true);
  for (std::thread& querier : queriers) querier.join();

  // Quiescent now: one query warms (or reuses) the plan, the repeat must
  // be a pure cache hit with a bit-identical answer.
  {
    std::string connect_error;
    auto client =
        SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
    ASSERT_NE(client, nullptr) << connect_error;
    const QueryResultInfo warm = client->Query("A | (B & C)");
    ASSERT_TRUE(warm.ok) << warm.error;
    const SketchServer::StatsSnapshot before = server.stats();
    const QueryResultInfo repeat = client->Query("(C & B) | A");
    ASSERT_TRUE(repeat.ok) << repeat.error;
    EXPECT_EQ(repeat.estimate, warm.estimate);
    const SketchServer::StatsSnapshot after = server.stats();
    EXPECT_EQ(after.plan_cache_hits, before.plan_cache_hits + 1);
    EXPECT_EQ(after.plan_cache_misses, before.plan_cache_misses);
  }

  server.Stop();
  const SketchServer::StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.updates_applied,
            static_cast<uint64_t>(kPushers) * kBatches * kPerBatch);
  // Every planned query is accounted as hit, miss, or invalidation.
  EXPECT_GT(stats.plan_cache_hits + stats.plan_cache_misses +
                stats.plan_cache_invalidations,
            0u);
}

TEST(TsanConcurrencyTest, FreshQueriesProbeOnShardWorkersWhilePushing) {
  // Two connections push while a third issues queries every push makes
  // stale: each answer's probe table is filled on three shard workers,
  // behind the batches they hold, while the io thread admits more. TSan
  // proves the fill neither races the workers' apply nor a neighbour
  // shard's words (copies = 100: shard ranges end inside words); the
  // final quiescent answer must equal an in-process planner's.
  SketchServer::Options options;
  options.params = SmallParams();
  options.copies = 100;
  options.seed = 4242;
  options.shards = 3;
  options.queue_capacity = 8;
  options.witness.pool_all_levels = true;
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kPushers = 2;
  constexpr int kBatches = 30;
  constexpr int kPerBatch = 64;
  {
    // The streams exist before the first query.
    std::string connect_error;
    auto client =
        SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
    ASSERT_NE(client, nullptr) << connect_error;
    UpdateBatch batch;
    batch.stream_names = {"A", "B", "C"};
    for (StreamId k = 0; k < 3; ++k) batch.updates.push_back(Update{k, 7, 1});
    ASSERT_TRUE(client->PushUpdates(batch).ok);
  }
  SpinBarrier barrier(kPushers + 1);
  std::vector<std::thread> threads;
  for (int p = 0; p < kPushers; ++p) {
    threads.emplace_back([&server, &barrier, p] {
      std::string connect_error;
      auto client =
          SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
      ASSERT_NE(client, nullptr) << connect_error;
      barrier.ArriveAndWait();
      for (int b = 0; b < kBatches; ++b) {
        UpdateBatch batch;
        batch.stream_names = {"A", "B", "C"};
        for (int i = 0; i < kPerBatch; ++i) {
          const uint64_t element =
              static_cast<uint64_t>((p * kBatches + b) * kPerBatch + i) *
              0x9E3779B97F4A7C15ULL;
          batch.updates.push_back(
              Update{static_cast<StreamId>(i % 3), element | 1, 1});
        }
        ASSERT_TRUE(client->PushUpdatesWithRetry(batch).ok);
      }
    });
  }
  std::atomic<int> pushers_done{0};
  std::atomic<int> answered{0};
  threads.emplace_back([&server, &barrier, &pushers_done, &answered] {
    std::string connect_error;
    auto client =
        SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
    ASSERT_NE(client, nullptr) << connect_error;
    barrier.ArriveAndWait();
    while (pushers_done.load() < kPushers) {
      const QueryResultInfo answer = client->Query("(A - B) | C");
      ASSERT_TRUE(answer.ok) << answer.error;
      EXPECT_GE(answer.estimate, 0.0);
      EXPECT_LE(answer.lo, answer.hi);
      ++answered;
    }
  });
  for (int p = 0; p < kPushers; ++p) {
    threads[static_cast<size_t>(p)].join();
    ++pushers_done;
  }
  threads.back().join();
  EXPECT_GT(answered.load(), 0);

  std::string connect_error;
  auto client =
      SketchClient::Connect("127.0.0.1", server.port(), &connect_error);
  ASSERT_NE(client, nullptr) << connect_error;
  const QueryResultInfo last = client->Query("(A - B) | C");
  ASSERT_TRUE(last.ok) << last.error;
  PlanCache planner(PlanCache::Options{options.witness});
  const PlanCache::Result expected = planner.Query("(A - B) | C", server.bank());
  ASSERT_TRUE(expected.ok) << expected.error;
  EXPECT_EQ(last.estimate, expected.estimate);
  EXPECT_EQ(last.lo, expected.interval.lo);
  EXPECT_EQ(last.hi, expected.interval.hi);
  server.Stop();
  EXPECT_EQ(server.stats().updates_applied,
            static_cast<uint64_t>(kPushers) * kBatches * kPerBatch + 3);
}

// --- Cluster router: probe/repair/membership racing PUSH + QUERY --------

TEST(TsanConcurrencyTest, RouterRepairMembershipPushQueryStress) {
  // The self-healing router's shared-state seams all at once: the
  // background probe loop, explicit RepairShard sweeps, online
  // add-shard/drain-shard (one transfer under the exclusive write gate,
  // then the ring flip) — all racing client pushes and federated
  // queries. Functional bar: every acknowledged batch lands exactly once,
  // so the final federated answers match a fault-free reference server
  // bit-for-bit.
  SketchServer::Options shard_options;
  shard_options.params = SmallParams();
  shard_options.copies = 32;
  shard_options.seed = 20030609;
  shard_options.shards = 2;
  shard_options.queue_capacity = 16;
  shard_options.witness.pool_all_levels = true;
  SketchServer s0(shard_options);
  SketchServer s1(shard_options);
  SketchServer extra(shard_options);
  SketchServer reference(shard_options);
  std::string error;
  ASSERT_TRUE(s0.Start(&error)) << error;
  ASSERT_TRUE(s1.Start(&error)) << error;
  ASSERT_TRUE(extra.Start(&error)) << error;
  ASSERT_TRUE(reference.Start(&error)) << error;

  ClusterRouter::Options options;
  {
    ClusterShard shard;
    shard.name = "s0";
    shard.host = "127.0.0.1";
    shard.port = s0.port();
    options.shards.push_back(shard);
    shard.name = "s1";
    shard.port = s1.port();
    options.shards.push_back(shard);
  }
  options.replicas = 1;
  options.params = SmallParams();
  options.copies = 32;
  options.seed = 20030609;
  options.witness.pool_all_levels = true;
  options.probe_interval_ms = 10;  // Background probe loop is live.
  options.shard_connect_timeout_ms = 1000;
  options.shard_io_timeout_ms = 5000;
  ClusterRouter router(options);
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 2u);

  constexpr int kPushers = 2;
  constexpr int kBatches = 20;
  constexpr int kPerBatch = 60;
  SpinBarrier barrier(kPushers + 3);

  std::vector<std::thread> pushers;
  pushers.reserve(kPushers);
  for (int p = 0; p < kPushers; ++p) {
    pushers.emplace_back([&router, &reference, &barrier, p] {
      SketchClient::Options client_options;
      client_options.port = router.port();
      client_options.site_id = "stress-" + std::to_string(p);
      std::string connect_error;
      auto via_router =
          SketchClient::Connect(client_options, &connect_error);
      ASSERT_NE(via_router, nullptr) << connect_error;
      client_options.port = reference.port();
      auto via_reference =
          SketchClient::Connect(client_options, &connect_error);
      ASSERT_NE(via_reference, nullptr) << connect_error;
      barrier.ArriveAndWait();
      for (int b = 0; b < kBatches; ++b) {
        UpdateBatch batch;
        batch.stream_names = {"A", "B", "C"};
        batch.updates.reserve(kPerBatch);
        for (int i = 0; i < kPerBatch; ++i) {
          const uint64_t element = static_cast<uint64_t>(
              (p * kBatches + b) * kPerBatch + i) * 2654435761ULL + 3;
          batch.updates.push_back(
              Update{static_cast<StreamId>(i % 3), element, 1});
        }
        ASSERT_TRUE(via_router->PushUpdatesWithRetry(batch).ok);
        ASSERT_TRUE(via_reference->PushUpdatesWithRetry(batch).ok);
      }
    });
  }

  std::atomic<bool> done{false};
  std::thread querier([&router, &barrier, &done] {
    std::string connect_error;
    auto client =
        SketchClient::Connect("127.0.0.1", router.port(), &connect_error);
    ASSERT_NE(client, nullptr) << connect_error;
    barrier.ArriveAndWait();
    while (!done.load()) {
      const QueryResultInfo answer = client->Query("(A | B) & C");
      // Unknown streams before the first push lands are legal; once
      // answers come they must be sane.
      if (answer.ok) {
        EXPECT_GE(answer.estimate, 0.0);
      }
    }
  });
  std::thread repairer([&router, &barrier, &done] {
    barrier.ArriveAndWait();
    while (!done.load()) {
      // Healthy, non-stale shards converge trivially — the point is the
      // lock interleaving with pushes, probes, and transfers.
      router.RepairShard("s0");
      router.RepairShard("s1");
      router.ProbeAll();
    }
  });
  std::thread membership([&router, &extra, &barrier] {
    barrier.ArriveAndWait();
    for (int cycle = 0; cycle < 3; ++cycle) {
      ClusterShard joining;
      joining.name = "extra";
      joining.host = "127.0.0.1";
      joining.port = extra.port();
      uint64_t moved = 0;
      std::string member_error;
      ASSERT_TRUE(router.AddShard(joining, &moved, &member_error))
          << "cycle " << cycle << ": " << member_error;
      ASSERT_TRUE(router.DrainShard("extra", &moved, &member_error))
          << "cycle " << cycle << ": " << member_error;
    }
  });

  for (std::thread& pusher : pushers) pusher.join();
  membership.join();
  done.store(true);
  querier.join();
  repairer.join();

  // Quiescent: the federated view must equal the fault-free reference
  // exactly — no batch lost or double-applied across all the transfers.
  {
    std::string connect_error;
    auto via_router =
        SketchClient::Connect("127.0.0.1", router.port(), &connect_error);
    ASSERT_NE(via_router, nullptr) << connect_error;
    auto via_reference = SketchClient::Connect(
        "127.0.0.1", reference.port(), &connect_error);
    ASSERT_NE(via_reference, nullptr) << connect_error;
    for (const char* expression :
         {"A", "B", "C", "(A | B) & C", "A - (B & C)"}) {
      const QueryResultInfo fed = via_router->Query(expression);
      const QueryResultInfo ref = via_reference->Query(expression);
      ASSERT_TRUE(ref.ok) << expression << ": " << ref.error;
      ASSERT_TRUE(fed.ok) << expression << ": " << fed.error;
      EXPECT_EQ(fed.estimate, ref.estimate) << expression;
      EXPECT_EQ(fed.lo, ref.lo) << expression;
      EXPECT_EQ(fed.hi, ref.hi) << expression;
    }
  }

  router.Stop();
  s0.Stop();
  s1.Stop();
  extra.Stop();
  reference.Stop();
}

}  // namespace
}  // namespace setsketch
