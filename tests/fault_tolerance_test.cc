// Fault-tolerance tests for the sketch service (src/server/): dedup
// window semantics, deterministic fault injection, WAL append/replay with
// torn-tail and CRC-corruption handling, checkpoint atomicity, crash
// recovery that rebuilds bit-identical sketches, exactly-once ingest
// under retransmission, and client/server I/O deadlines.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sketch_backend.h"
#include "core/sketch_bank.h"
#include "distributed/summary_codec.h"
#include "query/stream_engine.h"
#include "server/fault_injector.h"
#include "server/sketch_client.h"
#include "server/sketch_server.h"
#include "server/wal.h"
#include "stream/update.h"

namespace setsketch {
namespace {

constexpr uint64_t kMasterSeed = 20030609;

SketchParams TestParams() {
  SketchParams params;
  params.levels = 20;
  params.num_second_level = 16;
  return params;
}

SketchServer::Options WalServerOptions(const std::string& wal_dir,
                                       int copies = 64) {
  SketchServer::Options options;
  options.params = TestParams();
  options.copies = copies;
  options.seed = kMasterSeed;
  options.shards = 2;
  options.queue_capacity = 64;
  options.witness.pool_all_levels = true;
  options.wal_dir = wal_dir;
  return options;
}

/// A per-test scratch directory under the gtest temp root.
std::filesystem::path FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Deterministic mixed-stream batch with churn (some deletions).
UpdateBatch MakeBatch(int index, int per_batch) {
  UpdateBatch batch;
  batch.stream_names = {"A", "B"};
  batch.updates.reserve(static_cast<size_t>(per_batch));
  for (int i = 0; i < per_batch; ++i) {
    const uint64_t element =
        static_cast<uint64_t>(index * per_batch + i) * 2654435761ULL + 17;
    const StreamId stream = i % 3 == 0 ? 1 : 0;
    const int64_t delta = i % 7 == 6 ? -1 : 1;
    batch.updates.push_back(Update{stream, element, delta});
  }
  return batch;
}

/// Asserts `served` holds bit-identical sketches to a serial reference
/// ingest of `updates` (via `names`) — the recovery correctness bar.
void ExpectBankMatchesReference(const SketchBank& served,
                                const SketchServer::Options& options,
                                const std::vector<std::string>& names,
                                const std::vector<Update>& updates) {
  SketchBank reference(
      SketchFamily(options.params, options.copies, options.seed));
  for (const std::string& name : names) reference.AddStream(name);
  for (const Update& u : updates) {
    reference.Apply(names[u.stream], u.element, u.delta);
  }
  for (const std::string& name : names) {
    const auto& got = served.Sketches(name);
    const auto& want = reference.Sketches(name);
    ASSERT_EQ(got.size(), want.size()) << name;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i] == want[i]) << name << " copy " << i;
    }
  }
}

/// Flips one byte of a file in place (corruption injection).
void FlipByteAt(const std::filesystem::path& path, int64_t offset_from_end) {
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekg(0, std::ios::end);
  const int64_t size = static_cast<int64_t>(file.tellg());
  ASSERT_GT(size, offset_from_end);
  const int64_t position = size - 1 - offset_from_end;
  file.seekg(position);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(position);
  file.write(&byte, 1);
}

/// Finds the WAL segment file for `shard` (any generation).
std::filesystem::path FindSegment(const std::filesystem::path& dir,
                                  int shard) {
  const std::string prefix = "wal-" + std::to_string(shard) + "-";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) return entry.path();
  }
  return {};
}

// --- Dedup window semantics ---------------------------------------------

TEST(DedupWindowTest, RecordsAndReportsWithinWindow) {
  DedupWindow window;
  EXPECT_FALSE(window.Seen(1));
  window.Record(1);
  EXPECT_TRUE(window.Seen(1));
  EXPECT_FALSE(window.Seen(2));
  window.Record(5);
  EXPECT_TRUE(window.Seen(5));
  EXPECT_TRUE(window.Seen(1));
  EXPECT_FALSE(window.Seen(3));
  window.Record(3);
  EXPECT_TRUE(window.Seen(3));
  EXPECT_FALSE(window.Seen(4));
  EXPECT_EQ(window.high(), 5u);
}

TEST(DedupWindowTest, SequencesBelowWindowAreConservativelySeen) {
  DedupWindow window;
  window.Record(1000);
  EXPECT_TRUE(window.Seen(1000));
  EXPECT_FALSE(window.Seen(999));       // Inside window, not recorded.
  EXPECT_FALSE(window.Seen(1000 - 63));  // Oldest tracked slot, unset.
  EXPECT_TRUE(window.Seen(1000 - 64));   // Fell off: conservatively seen.
  EXPECT_TRUE(window.Seen(1));
  EXPECT_FALSE(window.Seen(1001));
}

TEST(DedupWindowTest, RestoreReinstatesPersistedState) {
  DedupWindow window;
  window.Record(7);
  window.Record(9);
  DedupWindow restored;
  restored.Restore(window.high(), window.bits());
  EXPECT_TRUE(restored.Seen(7));
  EXPECT_FALSE(restored.Seen(8));
  EXPECT_TRUE(restored.Seen(9));
}

TEST(DedupWindowTest, CoversEverySequenceTheWantedWindowRecorded) {
  DedupWindow have;
  have.Record(100);
  have.Record(100 - 63);  // Oldest tracked slot (age 63).
  DedupWindow want;
  EXPECT_TRUE(have.Covers(want));  // An empty want is always covered.
  want.Record(100 - 63);
  EXPECT_TRUE(have.Covers(want));  // Age 63 recorded on both sides.
  want.Record(100 - 62);
  EXPECT_FALSE(have.Covers(want));  // Age 62 missing here.
  have.Record(100 - 62);
  EXPECT_TRUE(have.Covers(want));

  // Age 64 has fallen below have's window: conservatively seen, so a
  // want that recorded it is covered without a tracked bit.
  DedupWindow old;
  old.Record(100 - 64);
  EXPECT_TRUE(have.Covers(old));

  // A want whose high-water mark is ahead is never covered.
  DedupWindow ahead;
  ahead.Record(101);
  EXPECT_FALSE(have.Covers(ahead));
  have.Merge(ahead.high(), ahead.bits());
  EXPECT_TRUE(have.Covers(ahead));
  EXPECT_TRUE(have.Covers(want));  // Merging kept the older bits.
}

TEST(DedupIndexTest, CoversNamesTheFirstSiteBehind) {
  DedupIndex have, want;
  std::string behind;
  EXPECT_TRUE(have.Covers(want, &behind));
  want.Record("a", 3);
  want.Record("b", 5);
  have.Record("a", 3);
  EXPECT_FALSE(have.Covers(want, &behind));  // No window for "b" here.
  EXPECT_EQ(behind, "b");
  have.MergeWindow("b", 5, 1);
  EXPECT_TRUE(have.Covers(want, &behind));
}

TEST(DedupIndexTest, EncodeDecodeRoundTrip) {
  DedupIndex index;
  index.Record("site-a", 1);
  index.Record("site-a", 2);
  index.Record("site-b", 7);
  std::string bytes;
  index.EncodeTo(&bytes);
  DedupIndex decoded;
  size_t offset = 0;
  ASSERT_TRUE(decoded.DecodeFrom(bytes, &offset));
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(decoded.num_sites(), 2u);
  EXPECT_TRUE(decoded.Seen("site-a", 1));
  EXPECT_TRUE(decoded.Seen("site-a", 2));
  EXPECT_FALSE(decoded.Seen("site-a", 3));
  EXPECT_TRUE(decoded.Seen("site-b", 7));
  EXPECT_FALSE(decoded.Seen("site-c", 1));
}

// --- Fault injector determinism -----------------------------------------

TEST(FaultInjectorTest, SameSeedYieldsSameSchedule) {
  FaultInjector::Options options;
  options.seed = 99;
  options.drop_probability = 0.15;
  options.reset_probability = 0.1;
  options.truncate_probability = 0.1;
  options.delay_probability = 0.05;
  options.partial_probability = 0.2;
  options.delay_ms = 1;
  FaultInjector a(options);
  FaultInjector b(options);
  for (int i = 0; i < 200; ++i) {
    const SendPlan plan_a = a.PlanSend(100);
    const SendPlan plan_b = b.PlanSend(100);
    ASSERT_EQ(static_cast<int>(plan_a.kind), static_cast<int>(plan_b.kind))
        << "send " << i;
    ASSERT_EQ(plan_a.truncate_at, plan_b.truncate_at) << "send " << i;
    ASSERT_EQ(plan_a.chunk_bytes, plan_b.chunk_bytes) << "send " << i;
  }
  EXPECT_EQ(a.sends_planned(), 200u);
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(a.faults_injected(), 0u);
  EXPECT_LT(a.faults_injected(), 200u);
}

TEST(FaultInjectorTest, FaultBudgetGuaranteesEventualPassThrough) {
  FaultInjector::Options options;
  options.seed = 7;
  options.drop_probability = 1.0;
  options.max_faults = 5;
  FaultInjector injector(options);
  uint64_t faults = 0;
  for (int i = 0; i < 20; ++i) {
    const SendPlan plan = injector.PlanSend(64);
    if (plan.kind != SendPlan::Kind::kPass) ++faults;
    if (i >= 5) {
      EXPECT_EQ(static_cast<int>(plan.kind),
                static_cast<int>(SendPlan::Kind::kPass))
          << "send " << i;
    }
  }
  EXPECT_EQ(faults, 5u);
  EXPECT_EQ(injector.faults_injected(), 5u);
}

TEST(FaultInjectorTest, TruncationAlwaysLeavesAPartialFrame) {
  FaultInjector::Options options;
  options.seed = 3;
  options.truncate_probability = 1.0;
  FaultInjector injector(options);
  for (int i = 0; i < 50; ++i) {
    const SendPlan plan = injector.PlanSend(40);
    ASSERT_EQ(static_cast<int>(plan.kind),
              static_cast<int>(SendPlan::Kind::kTruncate));
    EXPECT_GE(plan.truncate_at, 1u);
    EXPECT_LT(plan.truncate_at, 40u);
  }
}

// --- WAL append / replay / corruption -----------------------------------

TEST(WalTest, AppendReplayRoundTrip) {
  const std::filesystem::path dir = FreshDir("wal_roundtrip");
  Wal::Options options;
  options.dir = dir.string();
  options.shards = 2;
  std::string error;
  std::unique_ptr<Wal> wal = Wal::Open(options, 0, &error);
  ASSERT_NE(wal, nullptr) << error;
  for (uint64_t sequence = 1; sequence <= 10; ++sequence) {
    WalRecord record;
    record.site_id = "s";
    record.sequence = sequence;
    record.payload = std::string(static_cast<size_t>(5 + sequence), 'x');
    ASSERT_TRUE(wal->Append(record, &error)) << error;
  }
  EXPECT_EQ(wal->records_appended(), 10u);
  EXPECT_GT(wal->bytes_appended(), 0u);
  wal.reset();

  std::vector<WalRecord> replayed;
  WalReplayStats stats;
  ASSERT_TRUE(Wal::Replay(
      options.dir, 0,
      [&replayed](const WalRecord& record) { replayed.push_back(record); },
      &stats, &error))
      << error;
  EXPECT_EQ(stats.records_replayed, 10u);
  EXPECT_EQ(stats.segments_read, 2u);
  EXPECT_EQ(stats.torn_segments, 0u);
  ASSERT_EQ(replayed.size(), 10u);
  uint64_t sequence_sum = 0;
  for (const WalRecord& record : replayed) {
    EXPECT_EQ(record.site_id, "s");
    EXPECT_EQ(record.payload.size(), static_cast<size_t>(5 + record.sequence));
    sequence_sum += record.sequence;
  }
  EXPECT_EQ(sequence_sum, 55u);  // Each of 1..10 exactly once.
}

TEST(WalTest, TornTailEndsReplayAtLastValidRecord) {
  const std::filesystem::path dir = FreshDir("wal_torn");
  Wal::Options options;
  options.dir = dir.string();
  options.shards = 1;
  std::string error;
  std::unique_ptr<Wal> wal = Wal::Open(options, 0, &error);
  ASSERT_NE(wal, nullptr) << error;
  for (uint64_t sequence = 1; sequence <= 3; ++sequence) {
    ASSERT_TRUE(wal->Append({"s", sequence, "payload"}, &error)) << error;
  }
  wal.reset();

  // A crash mid-append leaves a record header promising more bytes than
  // the file holds.
  const std::filesystem::path segment = FindSegment(dir, 0);
  ASSERT_FALSE(segment.empty());
  {
    std::ofstream out(segment,
                      std::ios::binary | std::ios::out | std::ios::app);
    const uint32_t promised = 100;
    out.write(reinterpret_cast<const char*>(&promised), sizeof(promised));
    out.write("torn", 4);
  }

  std::vector<uint64_t> sequences;
  WalReplayStats stats;
  ASSERT_TRUE(Wal::Replay(
      options.dir, 0,
      [&sequences](const WalRecord& record) {
        sequences.push_back(record.sequence);
      },
      &stats, &error))
      << error;
  EXPECT_EQ(sequences, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(stats.torn_segments, 1u);
}

TEST(WalTest, CrcMismatchStopsOneSegmentOthersStillReplay) {
  const std::filesystem::path dir = FreshDir("wal_crc");
  Wal::Options options;
  options.dir = dir.string();
  options.shards = 2;
  std::string error;
  std::unique_ptr<Wal> wal = Wal::Open(options, 0, &error);
  ASSERT_NE(wal, nullptr) << error;
  // Round-robin: sequences 1,3 land in one shard, 2,4 in the other.
  for (uint64_t sequence = 1; sequence <= 4; ++sequence) {
    ASSERT_TRUE(wal->Append({"s", sequence, "payload-payload"}, &error))
        << error;
  }
  wal.reset();

  // Corrupt the LAST record of shard 0's segment: its first record still
  // replays, the corrupt one ends that segment, shard 1 is untouched.
  const std::filesystem::path segment = FindSegment(dir, 0);
  ASSERT_FALSE(segment.empty());
  FlipByteAt(segment, 0);

  std::vector<uint64_t> sequences;
  WalReplayStats stats;
  ASSERT_TRUE(Wal::Replay(
      options.dir, 0,
      [&sequences](const WalRecord& record) {
        sequences.push_back(record.sequence);
      },
      &stats, &error))
      << error;
  EXPECT_EQ(stats.torn_segments, 1u);
  EXPECT_EQ(stats.records_replayed, 3u);
  // One of {3, 4} was corrupted away; 1 and 2 both survive.
  EXPECT_EQ(sequences.size(), 3u);
  uint64_t sequence_sum = 0;
  for (const uint64_t sequence : sequences) sequence_sum += sequence;
  EXPECT_TRUE(sequence_sum == 6u || sequence_sum == 7u) << sequence_sum;
}

TEST(WalTest, SegmentOfAnotherVersionRefusesReplayAndStart) {
  // A complete segment header with another version byte holds
  // acknowledged batches this build cannot read: replay must fail with a
  // typed error instead of counting the segment torn and dropping them,
  // and the server must refuse to start on it.
  const std::filesystem::path dir = FreshDir("wal_version");
  Wal::Options wal_options;
  wal_options.dir = dir.string();
  wal_options.shards = 1;
  std::string error;
  std::unique_ptr<Wal> wal = Wal::Open(wal_options, 0, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_TRUE(
      wal->Append("site-1", 1, EncodePushUpdates(MakeBatch(0, 50)), &error))
      << error;
  wal.reset();
  const std::filesystem::path segment = FindSegment(dir, 0);
  ASSERT_FALSE(segment.empty());
  {
    std::fstream file(segment,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(4);  // The version byte follows the 4-byte magic.
    file.put('\x01');
  }

  WalReplayStats stats;
  EXPECT_FALSE(Wal::Replay(
      dir.string(), 0, [](const WalRecord&) { ADD_FAILURE(); }, &stats,
      &error));
  EXPECT_EQ(error,
            "wal segment " + segment.string() + ": unsupported version 1");
  EXPECT_EQ(stats.torn_segments, 0u);

  SketchServer server(WalServerOptions(dir.string()));
  std::string start_error;
  EXPECT_FALSE(server.Start(&start_error));
  EXPECT_NE(start_error.find("unsupported version 1"), std::string::npos)
      << start_error;
}

TEST(WalTest, RotationAndCompactionSkipCoveredGenerations) {
  const std::filesystem::path dir = FreshDir("wal_rotate");
  Wal::Options options;
  options.dir = dir.string();
  options.shards = 1;
  std::string error;
  std::unique_ptr<Wal> wal = Wal::Open(options, 0, &error);
  ASSERT_NE(wal, nullptr) << error;
  const uint64_t first_generation = wal->generation();
  ASSERT_TRUE(wal->Append({"s", 1, "old"}, &error)) << error;

  uint64_t covered = 0;
  ASSERT_TRUE(wal->Rotate(&covered, &error)) << error;
  EXPECT_EQ(covered, first_generation);
  EXPECT_GT(wal->generation(), first_generation);
  ASSERT_TRUE(wal->Append({"s", 2, "new"}, &error)) << error;
  wal.reset();

  // Replay from the checkpointed generation: only the new record.
  std::vector<uint64_t> sequences;
  WalReplayStats stats;
  ASSERT_TRUE(Wal::Replay(
      options.dir, covered,
      [&sequences](const WalRecord& record) {
        sequences.push_back(record.sequence);
      },
      &stats, &error))
      << error;
  EXPECT_EQ(sequences, (std::vector<uint64_t>{2}));

  // Compaction removes the covered generation's files; a full replay now
  // also sees only the new record (crash between checkpoint and delete is
  // therefore harmless — the stale segments are just skipped).
  {
    std::unique_ptr<Wal> reopened = Wal::Open(options, covered, &error);
    ASSERT_NE(reopened, nullptr) << error;
    reopened->Compact(covered);
  }
  sequences.clear();
  ASSERT_TRUE(Wal::Replay(
      options.dir, 0,
      [&sequences](const WalRecord& record) {
        sequences.push_back(record.sequence);
      },
      &stats, &error))
      << error;
  EXPECT_EQ(sequences, (std::vector<uint64_t>{2}));
}

TEST(WalTest, CheckpointRoundTripAndCorruptionDetected) {
  const std::filesystem::path dir = FreshDir("wal_checkpoint");
  Checkpoint checkpoint;
  checkpoint.covered_generation = 7;
  checkpoint.dedup.Record("s", 3);
  checkpoint.engine_snapshot = "opaque-snapshot-bytes";
  std::string error;
  ASSERT_TRUE(WriteCheckpoint(dir.string(), checkpoint, true, &error))
      << error;

  Checkpoint loaded;
  ASSERT_TRUE(ReadCheckpoint(dir.string(), &loaded, &error)) << error;
  EXPECT_EQ(loaded.covered_generation, 7u);
  EXPECT_TRUE(loaded.dedup.Seen("s", 3));
  EXPECT_FALSE(loaded.dedup.Seen("s", 4));
  EXPECT_EQ(loaded.engine_snapshot, "opaque-snapshot-bytes");

  // Missing checkpoint: false with *error left empty (fresh start).
  const std::filesystem::path empty_dir = FreshDir("wal_checkpoint_none");
  error.clear();
  EXPECT_FALSE(ReadCheckpoint(empty_dir.string(), &loaded, &error));
  EXPECT_TRUE(error.empty()) << error;

  // Corrupt checkpoint: false with *error set (startup must refuse).
  FlipByteAt(dir / "checkpoint", 2);
  error.clear();
  EXPECT_FALSE(ReadCheckpoint(dir.string(), &loaded, &error));
  EXPECT_FALSE(error.empty());
}

// --- Exactly-once ingest over the wire ----------------------------------

TEST(FaultToleranceTest, DuplicateSequencesReAckWithoutReapplying) {
  const std::filesystem::path dir = FreshDir("ft_dedup");
  const SketchServer::Options options = WalServerOptions(dir.string());
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  SketchClient::Options client_options;
  client_options.port = server.port();
  client_options.site_id = "site-1";
  std::unique_ptr<SketchClient> client =
      SketchClient::Connect(client_options, &error);
  ASSERT_NE(client, nullptr) << error;

  const UpdateBatch batch = MakeBatch(0, 400);
  const SketchClient::Status first = client->PushUpdates(batch);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.duplicate);
  EXPECT_EQ(first.accepted, batch.updates.size());
  EXPECT_EQ(client->next_sequence(), 2u);

  // Retransmit the same (site, sequence) three times: each is re-ACKed
  // as a duplicate, none is re-applied.
  for (int i = 0; i < 3; ++i) {
    const SketchClient::Status again = client->PushUpdatesAt(batch, 1);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_TRUE(again.duplicate) << "retransmission " << i;
    EXPECT_EQ(again.accepted, batch.updates.size());
  }
  EXPECT_EQ(client->counters().duplicate_acks, 3u);

  ASSERT_TRUE(client->Shutdown().ok);
  server.Wait();
  const SketchServer::StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.duplicates_dropped, 3u);
  EXPECT_EQ(stats.updates_applied, batch.updates.size());
  EXPECT_EQ(stats.batches_accepted, 1u);
  EXPECT_EQ(stats.wal_records, 1u);  // Duplicates are never re-logged.
  ExpectBankMatchesReference(server.bank(), options, batch.stream_names,
                             batch.updates);
}

TEST(FaultToleranceTest, AnonymousPushesAreNotDeduplicated) {
  SketchServer server(WalServerOptions(""));  // No WAL either.
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::unique_ptr<SketchClient> client =
      SketchClient::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  UpdateBatch batch;
  batch.stream_names = {"A"};
  batch.updates = {Insert(0, 42), Insert(0, 43)};
  for (int i = 0; i < 2; ++i) {
    const SketchClient::Status status = client->PushUpdates(batch);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_FALSE(status.duplicate);
  }
  ASSERT_TRUE(client->Shutdown().ok);
  server.Wait();
  EXPECT_EQ(server.stats().duplicates_dropped, 0u);
  EXPECT_EQ(server.stats().updates_applied, 4u);  // Applied twice, by design.
}

// --- Crash recovery ------------------------------------------------------

TEST(FaultToleranceTest, CrashRecoveryReplaysWalTailBitIdentically) {
  const std::filesystem::path live = FreshDir("ft_crash_live");
  const std::filesystem::path image =
      std::filesystem::path(::testing::TempDir()) / "ft_crash_image";
  std::filesystem::remove_all(image);

  SketchServer::Options options = WalServerOptions(live.string());
  constexpr int kBatches = 6;
  constexpr int kPerBatch = 500;
  std::vector<Update> all;
  {
    SketchServer server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    SketchClient::Options client_options;
    client_options.port = server.port();
    client_options.site_id = "pusher";
    std::unique_ptr<SketchClient> client =
        SketchClient::Connect(client_options, &error);
    ASSERT_NE(client, nullptr) << error;
    for (int b = 0; b < kBatches; ++b) {
      const UpdateBatch batch = MakeBatch(b, kPerBatch);
      const SketchClient::Status status = client->PushUpdatesWithRetry(batch);
      ASSERT_TRUE(status.ok) << status.error;
      all.insert(all.end(), batch.updates.begin(), batch.updates.end());
    }
    // Snapshot the WAL directory while the server is live: every ACKed
    // batch is already fsync'd, so this copy is exactly the disk state a
    // kill -9 at this instant would leave behind (no checkpoint yet).
    std::filesystem::copy(live, image,
                          std::filesystem::copy_options::recursive);
  }  // The live server stops gracefully; the image stays a crash image.

  options.wal_dir = image.string();
  SketchServer recovered(options);
  std::string error;
  ASSERT_TRUE(recovered.Start(&error)) << error;
  SketchServer::StatsSnapshot stats = recovered.stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.recovered_batches, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.recovered_updates, all.size());

  // The dedup index was rebuilt from the WAL tail: retransmitting an
  // already-applied sequence is re-ACKed as a duplicate, not re-applied.
  SketchClient::Options client_options;
  client_options.port = recovered.port();
  client_options.site_id = "pusher";
  std::unique_ptr<SketchClient> client =
      SketchClient::Connect(client_options, &error);
  ASSERT_NE(client, nullptr) << error;
  const SketchClient::Status retransmit =
      client->PushUpdatesAt(MakeBatch(0, kPerBatch), 1);
  ASSERT_TRUE(retransmit.ok) << retransmit.error;
  EXPECT_TRUE(retransmit.duplicate);

  // And the service keeps accepting genuinely new batches post-recovery.
  const UpdateBatch fresh = MakeBatch(kBatches, kPerBatch);
  const SketchClient::Status accepted =
      client->PushUpdatesAt(fresh, kBatches + 1);
  ASSERT_TRUE(accepted.ok) << accepted.error;
  EXPECT_FALSE(accepted.duplicate);
  all.insert(all.end(), fresh.updates.begin(), fresh.updates.end());

  ASSERT_TRUE(client->Shutdown().ok);
  recovered.Wait();
  EXPECT_EQ(recovered.stats().duplicates_dropped, 1u);
  ExpectBankMatchesReference(recovered.bank(), options, {"A", "B"}, all);
}

TEST(FaultToleranceTest, GracefulStopCheckpointRestoresWithoutReplay) {
  const std::filesystem::path dir = FreshDir("ft_checkpoint");
  const SketchServer::Options options = WalServerOptions(dir.string());
  constexpr int kBatches = 4;
  constexpr int kPerBatch = 400;
  std::vector<Update> all;
  {
    SketchServer server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    SketchClient::Options client_options;
    client_options.port = server.port();
    client_options.site_id = "pusher";
    std::unique_ptr<SketchClient> client =
        SketchClient::Connect(client_options, &error);
    ASSERT_NE(client, nullptr) << error;
    for (int b = 0; b < kBatches; ++b) {
      const UpdateBatch batch = MakeBatch(b, kPerBatch);
      ASSERT_TRUE(client->PushUpdatesWithRetry(batch).ok);
      all.insert(all.end(), batch.updates.begin(), batch.updates.end());
    }
    server.Stop();
    EXPECT_GE(server.stats().snapshots_written, 1u);
  }

  // Restart from the checkpoint: state restores without replaying any
  // WAL records (they were compacted into the snapshot).
  SketchServer recovered(options);
  std::string error;
  ASSERT_TRUE(recovered.Start(&error)) << error;
  const SketchServer::StatsSnapshot stats = recovered.stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.recovered_batches, 0u);
  recovered.Stop();
  ExpectBankMatchesReference(recovered.bank(), options, {"A", "B"}, all);

  // A server with a different sketch configuration must refuse the same
  // directory — serving subtly different coins would silently diverge.
  SketchServer::Options mismatched = options;
  mismatched.copies = options.copies / 2;
  SketchServer refused(mismatched);
  error.clear();
  EXPECT_FALSE(refused.Start(&error));
  EXPECT_FALSE(error.empty());
}

TEST(FaultToleranceTest, CheckpointPastTheBankFileBudgetRestores) {
  // A server's bank may hold more counters than a bank file may declare
  // (kMaxDecodedCounterBytes); its own checkpoint must still restore.
  // 17 streams of 64 copies at levels 64 and s 128 hold 136 MiB.
  const std::filesystem::path dir = FreshDir("ft_checkpoint_budget");
  SketchServer::Options options = WalServerOptions(dir.string());
  options.params.levels = 64;
  options.params.num_second_level = 128;
  constexpr size_t kStreams = 17;
  UpdateBatch batch;
  for (size_t i = 0; i < kStreams; ++i) {
    batch.stream_names.push_back("S" + std::to_string(i));
    batch.updates.push_back(
        Update{static_cast<StreamId>(i), 1000 + i, 1});
  }
  std::vector<TwoLevelHashSketch> before;
  {
    SketchServer server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    std::unique_ptr<SketchClient> client =
        SketchClient::Connect("127.0.0.1", server.port(), &error);
    ASSERT_NE(client, nullptr) << error;
    ASSERT_TRUE(client->PushUpdates(batch).ok);
    server.Stop();
    EXPECT_GT(server.bank().CounterBytes(), kMaxDecodedCounterBytes);
    before = server.bank().Sketches("S3");
  }

  // Past the budget a bank file or LoadSnapshot gets by default...
  Checkpoint checkpoint;
  std::string error;
  ASSERT_TRUE(ReadCheckpoint(dir.string(), &checkpoint, &error)) << error;
  {
    EngineSnapshotData data;
    EXPECT_FALSE(DecodeEngineSnapshot(checkpoint.engine_snapshot,
                                      kMaxDecodedCounterBytes, &data,
                                      &error));
    EXPECT_NE(error.find("MiB of sketch counters"), std::string::npos)
        << error;
  }

  // ...yet the server that wrote it restores every stream.
  SketchServer recovered(options);
  ASSERT_TRUE(recovered.Start(&error)) << error;
  EXPECT_EQ(recovered.stats().recoveries, 1u);
  recovered.Stop();
  EXPECT_EQ(recovered.bank().StreamNames().size(), kStreams);
  EXPECT_EQ(recovered.bank().Sketches("S3"), before);
}

TEST(FaultToleranceTest, PeriodicCheckpointsCompactTheWal) {
  const std::filesystem::path dir = FreshDir("ft_compaction");
  SketchServer::Options options = WalServerOptions(dir.string());
  options.snapshot_every_bytes = 4096;  // Tiny: force several compactions.
  std::vector<Update> all;
  {
    SketchServer server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    SketchClient::Options client_options;
    client_options.port = server.port();
    client_options.site_id = "pusher";
    std::unique_ptr<SketchClient> client =
        SketchClient::Connect(client_options, &error);
    ASSERT_NE(client, nullptr) << error;
    for (int b = 0; b < 10; ++b) {
      const UpdateBatch batch = MakeBatch(b, 300);
      ASSERT_TRUE(client->PushUpdatesWithRetry(batch).ok);
      all.insert(all.end(), batch.updates.begin(), batch.updates.end());
    }
    server.Stop();
    EXPECT_GE(server.stats().snapshots_written, 2u);
  }
  SketchServer recovered(options);
  std::string error;
  ASSERT_TRUE(recovered.Start(&error)) << error;
  EXPECT_EQ(recovered.stats().recoveries, 1u);
  recovered.Stop();
  ExpectBankMatchesReference(recovered.bank(), options, {"A", "B"}, all);
}

// --- Chaos: fault-injected transport, exactly-once end state -------------

TEST(FaultToleranceTest, FaultInjectedPushesDeliverExactlyOnce) {
  const std::filesystem::path dir = FreshDir("ft_chaos");
  FaultInjector::Options fault_options;
  fault_options.seed = kMasterSeed;
  fault_options.drop_probability = 0.08;
  fault_options.reset_probability = 0.08;
  fault_options.truncate_probability = 0.08;
  fault_options.partial_probability = 0.16;
  fault_options.max_faults = 32;  // Finite budget: retries always converge.
  FaultInjector injector(fault_options);

  const SketchServer::Options options = WalServerOptions(dir.string());
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  SketchClient::Options client_options;
  client_options.port = server.port();
  client_options.site_id = "chaos-site";
  client_options.io_timeout_ms = 250;  // Dropped frames cost 250ms, not ∞.
  client_options.backoff_cap_ms = 8;
  client_options.fault_injector = &injector;
  std::unique_ptr<SketchClient> client =
      SketchClient::Connect(client_options, &error);
  ASSERT_NE(client, nullptr) << error;

  constexpr int kBatches = 12;
  constexpr int kPerBatch = 400;
  std::vector<Update> all;
  for (int b = 0; b < kBatches; ++b) {
    const UpdateBatch batch = MakeBatch(b, kPerBatch);
    const SketchClient::Status status =
        client->PushUpdatesWithRetry(batch, /*max_attempts=*/10000,
                                     /*backoff_ms=*/1);
    ASSERT_TRUE(status.ok) << "batch " << b << ": " << status.error;
    all.insert(all.end(), batch.updates.begin(), batch.updates.end());
  }
  EXPECT_GT(injector.faults_injected(), 0u) << "chaos never engaged";

  // Shut down over a clean connection (the chaotic one may be half-dead).
  std::unique_ptr<SketchClient> clean =
      SketchClient::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(clean, nullptr) << error;
  ASSERT_TRUE(clean->Shutdown().ok);
  server.Wait();

  // Exactly once: every update applied once despite drops, resets,
  // truncations and the retransmissions they forced.
  const SketchServer::StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.updates_applied, all.size());
  EXPECT_EQ(stats.batches_accepted, static_cast<uint64_t>(kBatches));
  // Every server-side dedup drop corresponds to a retransmission of an
  // already-applied batch; the client observed those whose re-ACK made it
  // back before its deadline.
  EXPECT_GE(stats.duplicates_dropped, client->counters().duplicate_acks);
  ExpectBankMatchesReference(server.bank(), options, {"A", "B"}, all);
}

// --- Deadlines -----------------------------------------------------------

/// Accepts one connection and reads forever without ever replying — the
/// pathological peer a deadline must defend against.
class SilentServer {
 public:
  bool Start() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0) {
      return false;
    }
    if (::listen(listen_fd_, 1) != 0) return false;
    socklen_t length = sizeof(address);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                      &length) != 0) {
      return false;
    }
    port_ = ntohs(address.sin_port);
    reader_ = std::thread([this] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      char buffer[1024];
      while (::recv(fd, buffer, sizeof(buffer), 0) > 0) {
      }
      ::close(fd);
    });
    return true;
  }

  ~SilentServer() {
    if (reader_.joinable()) reader_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  int port() const { return port_; }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread reader_;
};

TEST(FaultToleranceTest, RoundTripDeadlineSurfacesTypedTimeout) {
  SilentServer silent;
  ASSERT_TRUE(silent.Start());
  SketchClient::Options client_options;
  client_options.port = silent.port();
  client_options.io_timeout_ms = 100;
  std::string error;
  std::unique_ptr<SketchClient> client =
      SketchClient::Connect(client_options, &error);
  ASSERT_NE(client, nullptr) << error;

  const SketchClient::Status status = client->Ping();
  EXPECT_FALSE(status.ok);
  EXPECT_TRUE(status.timed_out) << status.error;
  EXPECT_GE(client->counters().timeouts, 1u);
  EXPECT_FALSE(client->connected());  // Timeout tears the connection down.
  client.reset();  // Closes the socket; the silent reader sees EOF.
}

TEST(FaultToleranceTest, IdleConnectionsAreDroppedAfterDeadline) {
  SketchServer::Options options = WalServerOptions("");
  options.idle_timeout_ms = 100;
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(server.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  // Send nothing: the server's idle deadline must close the connection
  // (recv unblocks with EOF instead of hanging forever).
  char byte = 0;
  const ssize_t received = ::recv(fd, &byte, 1, 0);
  EXPECT_LE(received, 0);
  ::close(fd);
  server.Stop();
}

TEST(FaultToleranceTest, RecoveredServerNeverServesStaleCachedPlans) {
  const std::filesystem::path live = FreshDir("ft_plan_live");
  const std::filesystem::path image =
      std::filesystem::path(::testing::TempDir()) / "ft_plan_image";
  std::filesystem::remove_all(image);

  SketchServer::Options options = WalServerOptions(live.string());
  constexpr int kImagedBatches = 4;
  constexpr int kPerBatch = 400;
  const std::string query_text = "(A | B) - (A & B)";
  std::vector<Update> imaged;
  {
    SketchServer server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    SketchClient::Options client_options;
    client_options.port = server.port();
    client_options.site_id = "pusher";
    std::unique_ptr<SketchClient> client =
        SketchClient::Connect(client_options, &error);
    ASSERT_NE(client, nullptr) << error;
    for (int b = 0; b < kImagedBatches; ++b) {
      const UpdateBatch batch = MakeBatch(b, kPerBatch);
      ASSERT_TRUE(client->PushUpdatesWithRetry(batch).ok);
      imaged.insert(imaged.end(), batch.updates.begin(),
                    batch.updates.end());
    }
    // Warm the plan cache: the repeat answer comes from the memo.
    const QueryResultInfo warm = client->Query(query_text);
    ASSERT_TRUE(warm.ok) << warm.error;
    ASSERT_TRUE(client->Query(query_text).ok);
    EXPECT_GE(server.stats().plan_cache_hits, 1u);

    // Crash image: exactly the fsync'd disk state at this instant, taken
    // while the cache above is hot.
    std::filesystem::copy(live, image,
                          std::filesystem::copy_options::recursive);

    // The live server keeps ingesting past the image point, so any plan
    // memo warmed after this divergence describes data the recovered
    // process never saw — the exact staleness hazard under test.
    ASSERT_TRUE(
        client->PushUpdatesWithRetry(MakeBatch(kImagedBatches, kPerBatch))
            .ok);
    ASSERT_TRUE(client->Query(query_text).ok);
  }  // kill -9 equivalent for the cache: the process state is gone.

  options.wal_dir = image.string();
  SketchServer recovered(options);
  std::string error;
  ASSERT_TRUE(recovered.Start(&error)) << error;
  EXPECT_EQ(recovered.stats().recoveries, 1u);

  // A recovered process starts with an empty plan cache: no hit, miss, or
  // memo can survive the crash, by construction.
  const SketchServer::StatsSnapshot fresh = recovered.stats();
  EXPECT_EQ(fresh.plan_cache_hits, 0u);
  EXPECT_EQ(fresh.plan_cache_misses, 0u);
  EXPECT_EQ(fresh.plan_cache_entries, 0u);

  SketchClient::Options client_options;
  client_options.port = recovered.port();
  std::unique_ptr<SketchClient> client =
      SketchClient::Connect(client_options, &error);
  ASSERT_NE(client, nullptr) << error;
  const QueryResultInfo answer = client->Query(query_text);
  ASSERT_TRUE(answer.ok) << answer.error;

  // The chaos assertion: the recovered answer must equal a fresh planner
  // run over a reference bank holding exactly the imaged updates — i.e.
  // the replayed WAL state, not the pre-crash server's (which had diverged
  // past the image point before dying).
  SketchBank reference(
      SketchFamily(options.params, options.copies, options.seed));
  reference.AddStream("A");
  reference.AddStream("B");
  const std::vector<std::string> names = {"A", "B"};
  for (const Update& u : imaged) {
    reference.Apply(names[u.stream], u.element, u.delta);
  }
  PlanCache::Options planner_options;
  planner_options.witness = options.witness;
  PlanCache planner(planner_options);
  const PlanCache::Result expected =
      planner.Query(query_text, reference);
  ASSERT_TRUE(expected.ok) << expected.error;
  EXPECT_EQ(answer.estimate, expected.estimate);
  EXPECT_EQ(answer.lo, expected.interval.lo);
  EXPECT_EQ(answer.hi, expected.interval.hi);

  // Post-recovery the cache behaves normally: the first query was a miss,
  // its repeat is a hit with the identical answer.
  const SketchServer::StatsSnapshot after_first = recovered.stats();
  EXPECT_EQ(after_first.plan_cache_misses, 1u);
  EXPECT_EQ(after_first.plan_cache_hits, 0u);
  const QueryResultInfo repeat = client->Query(query_text);
  ASSERT_TRUE(repeat.ok);
  EXPECT_EQ(repeat.estimate, answer.estimate);
  EXPECT_EQ(recovered.stats().plan_cache_hits, 1u);

  ASSERT_TRUE(client->Shutdown().ok);
  recovered.Wait();
}

// --- Backend streams across crash recovery and checkpoints ---------------

/// Two backend-tagged streams (T on theta/KMV, S on SetSketch) with some
/// insert-then-delete churn — the WAL must replay the tags, not just the
/// updates.
UpdateBatch MakeBackendBatch(int index, int per_batch) {
  UpdateBatch batch;
  batch.stream_names = {"T", "S"};
  batch.stream_backends = {
      static_cast<uint8_t>(SketchBackendId::kThetaKmv),
      static_cast<uint8_t>(SketchBackendId::kSetSketch)};
  for (int i = 0; i < per_batch; ++i) {
    const uint64_t element =
        static_cast<uint64_t>(index * per_batch + i) * 2654435761ULL + 29;
    const StreamId stream = i % 2;
    batch.updates.push_back(Update{stream, element, 1});
    if (i % 8 == 7) {  // Net-zero churn: insert immediately retracted.
      batch.updates.push_back(Update{stream, element, -1});
    }
  }
  return batch;
}

TEST(FaultToleranceTest, BackendStreamsRecoverFromWalTail) {
  const std::filesystem::path live = FreshDir("ft_backend_live");
  const std::filesystem::path image =
      std::filesystem::path(::testing::TempDir()) / "ft_backend_image";
  std::filesystem::remove_all(image);

  SketchServer::Options options = WalServerOptions(live.string());
  constexpr int kBatches = 5;
  constexpr int kPerBatch = 600;
  double live_t = 0, live_s = 0;
  {
    SketchServer server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    SketchClient::Options client_options;
    client_options.port = server.port();
    client_options.site_id = "pusher";
    std::unique_ptr<SketchClient> client =
        SketchClient::Connect(client_options, &error);
    ASSERT_NE(client, nullptr) << error;
    for (int b = 0; b < kBatches; ++b) {
      ASSERT_TRUE(
          client->PushUpdatesWithRetry(MakeBackendBatch(b, kPerBatch)).ok);
    }
    const QueryResultInfo t = client->Query("T");
    const QueryResultInfo s = client->Query("S");
    ASSERT_TRUE(t.ok) << t.error;
    ASSERT_TRUE(s.ok) << s.error;
    live_t = t.estimate;
    live_s = s.estimate;
    // Crash image: every ACKed batch is fsync'd, no checkpoint yet.
    std::filesystem::copy(live, image,
                          std::filesystem::copy_options::recursive);
  }

  options.wal_dir = image.string();
  SketchServer recovered(options);
  std::string error;
  ASSERT_TRUE(recovered.Start(&error)) << error;
  const SketchServer::StatsSnapshot stats = recovered.stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.recovered_batches, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.backend_streams, 2u);

  // Replay restores the exact synopsis state: estimates are bit-equal to
  // the pre-crash answers, and a foreign re-tag is still refused.
  SketchClient::Options client_options;
  client_options.port = recovered.port();
  client_options.site_id = "pusher";
  std::unique_ptr<SketchClient> client =
      SketchClient::Connect(client_options, &error);
  ASSERT_NE(client, nullptr) << error;
  const QueryResultInfo t = client->Query("T");
  const QueryResultInfo s = client->Query("S");
  ASSERT_TRUE(t.ok) << t.error;
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_DOUBLE_EQ(t.estimate, live_t);
  EXPECT_DOUBLE_EQ(s.estimate, live_s);

  UpdateBatch retag;
  retag.stream_names = {"T"};
  retag.stream_backends = {
      static_cast<uint8_t>(SketchBackendId::kSetSketch)};
  retag.updates = {Update{0, 42, 1}};
  const SketchClient::Status refused = client->PushUpdatesAt(retag, 999);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("CONFIG_MISMATCH"), std::string::npos)
      << refused.error;
  ASSERT_TRUE(client->Shutdown().ok);
  recovered.Wait();
}

TEST(FaultToleranceTest, BackendConfigMismatchRefusesCheckpoint) {
  const std::filesystem::path dir = FreshDir("ft_backend_checkpoint");
  SketchServer::Options options = WalServerOptions(dir.string());
  options.default_backend = SketchBackendId::kSetSketch;
  options.backend_size = 512;
  {
    SketchServer server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    SketchClient::Options client_options;
    client_options.port = server.port();
    client_options.site_id = "pusher";
    std::unique_ptr<SketchClient> client =
        SketchClient::Connect(client_options, &error);
    ASSERT_NE(client, nullptr) << error;
    ASSERT_TRUE(client->PushUpdatesWithRetry(MakeBatch(0, 300)).ok);
    server.Stop();  // Graceful: compacts into a checkpoint.
    EXPECT_GE(server.stats().snapshots_written, 1u);
  }

  // Identical backend configuration restores cleanly.
  {
    SketchServer same(options);
    std::string error;
    ASSERT_TRUE(same.Start(&error)) << error;
    EXPECT_EQ(same.stats().recoveries, 1u);
    same.Stop();
  }

  // A different default backend — or the same backend at a different
  // size — must refuse the directory, exactly like a coin mismatch.
  SketchServer::Options other_backend = options;
  other_backend.default_backend = SketchBackendId::kThetaKmv;
  SketchServer refused_backend(other_backend);
  std::string error;
  EXPECT_FALSE(refused_backend.Start(&error));
  EXPECT_NE(error.find("backend"), std::string::npos) << error;

  SketchServer::Options other_size = options;
  other_size.backend_size = 1024;
  SketchServer refused_size(other_size);
  error.clear();
  EXPECT_FALSE(refused_size.Start(&error));
  EXPECT_NE(error.find("backend"), std::string::npos) << error;
}

}  // namespace
}  // namespace setsketch
