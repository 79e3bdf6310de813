// Golden bytes: every seam that persists or transmits a stream's synopsis
// has exactly one layout and one version, pinned here as exact hex — the
// frame header, the hello, PUSH_UPDATES, SUMMARY_RESULT (default-backend
// and theta entries), a small engine snapshot, and the WAL segment and
// checkpoint headers. A change to any of these bytes must be deliberate:
// it changes what peers and files on disk read. Each decoder with a
// version byte must also refuse the versions one below and one above
// its own, with a typed error.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "core/sketch_backend.h"
#include "core/sketch_bank.h"
#include "query/stream_engine.h"
#include "server/protocol.h"
#include "server/wal.h"

namespace setsketch {
namespace {

std::string Hex(const std::string& bytes) {
  std::string out;
  char digits[3];
  for (const char c : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x",
                  static_cast<unsigned>(static_cast<uint8_t>(c)));
    out += digits;
  }
  return out;
}

/// The smallest sensible configuration: two levels, one second-level
/// hash, one copy — golden bytes stay short enough to read.
SketchParams TinyParams() {
  SketchParams params;
  params.levels = 2;
  params.num_second_level = 1;
  return params;
}

constexpr uint64_t kSeed = 5;

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::filesystem::path FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(GoldenBytesTest, FrameHeader) {
  // "SKCH" magic (LE u32), version 2, opcode PING, reserved, payload 0.
  const std::string frame = EncodeFrame(Opcode::kPing, "");
  EXPECT_EQ(Hex(frame), "48434b530201000000000000");

  for (const uint8_t version : {uint8_t{1}, uint8_t{3}}) {
    std::string other = frame;
    other[4] = static_cast<char>(version);
    FrameView view;
    size_t frame_bytes = 0;
    WireError error = WireError::kNone;
    std::string message;
    EXPECT_EQ(ScanFrame(other, &view, &frame_bytes, &error, &message),
              FrameScanStatus::kError);
    EXPECT_EQ(error, WireError::kBadVersion);
    EXPECT_EQ(message,
              "unsupported protocol version " + std::to_string(version));
  }
}

TEST(GoldenBytesTest, HelloRequest) {
  // "SKHI" magic, version 2, features, then levels, s, first-level
  // kind, independence, copies, seed, backend id, backend size (varints).
  const HelloInfo hello{kFeatureSummaryPull | kFeatureRepair,
                        SketchConfig{TinyParams(), 1, kSeed,
                                     SketchBackendId::kTwoLevelHash, 4096}};
  const std::string payload = EncodeHello(hello, /*response=*/false);
  EXPECT_EQ(Hex(payload), "49484b530203020100080105008020");
  HelloInfo decoded;
  ASSERT_TRUE(DecodeHello(payload, /*response=*/false, &decoded));
  EXPECT_TRUE(decoded.config == hello.config);
  EXPECT_EQ(decoded.features, hello.features);

  for (const uint8_t version : {uint8_t{1}, uint8_t{3}}) {
    std::string other = payload;
    other[4] = static_cast<char>(version);
    EXPECT_FALSE(DecodeHello(other, /*response=*/false, &decoded))
        << "version " << static_cast<int>(version);
  }
}

TEST(GoldenBytesTest, PushUpdates) {
  // Site "s", sequence 7, one name "A" with backend byte 0, one update
  // (index 0, element 5, zigzag(-1) = 1).
  UpdateBatch batch;
  batch.site_id = "s";
  batch.sequence = 7;
  batch.stream_names = {"A"};
  batch.updates = {Update{0, 5, -1}};
  const std::string payload = EncodePushUpdates(batch);
  EXPECT_EQ(Hex(payload), "0173070101410001000501");
  UpdateBatchView view;
  std::string error;
  ASSERT_TRUE(DecodePushUpdates(payload, &view, &error)) << error;
  EXPECT_EQ(view.stream_backends, std::vector<uint8_t>{0});
}

TEST(GoldenBytesTest, SummaryResultDefaultAndThetaEntries) {
  SketchBank bank(SketchFamily(TinyParams(), 1, kSeed), 16);
  bank.AddStream("A");
  bank.Apply("A", 7, 1);
  bank.AddStreamWithBackend("T", SketchBackendId::kThetaKmv,
                            bank.backend_options());
  bank.Apply("T", 7, 1);
  SummaryResult result;
  for (const char* name : {"A", "T"}) {
    SummaryResult::Entry entry;
    entry.name = name;
    entry.state = SummaryState::kFull;
    entry.bank_id = 3;
    entry.epoch = 4;
    entry.summary = bank.Summary(name);
    result.streams.push_back(std::move(entry));
  }
  const std::string payload = EncodeSummaryResult(result);
  EXPECT_EQ(Hex(payload),
            "02"                                  // two entries
            "0141" "02" "03" "04"                 // "A", kFull, id, epoch
            "00" "01000000"                       // backend 0, 1 copy
            "43324b53" "02000000" "01000000" "00" "08000000"  // SK2C
            "5ac389a30c3b0363"                    // the copy's seed
            "0001" "02" "0002"                    // zero run, 1, zero run
            "0154" "02" "03" "04"                 // "T", kFull, id, epoch
            "01" "10" "05"                        // theta id, size, seed
            "ffffffffffffffffff01" "01"           // theta, one entry
            "ec9eadf093a196c4c701" "02");         // hash, count 1
  SummaryResult decoded;
  std::string error;
  ASSERT_TRUE(DecodeSummaryResult(payload, &decoded, &error)) << error;
  EXPECT_EQ(EncodeSummaryResult(decoded), payload);
}

TEST(GoldenBytesTest, EngineSnapshotBytesAndFixedPoint) {
  StreamEngine::Options options;
  options.params = TinyParams();
  options.copies = 1;
  options.seed = kSeed;
  StreamEngine engine(options);
  engine.RegisterQuery("A");
  engine.Ingest("A", 7, 1);
  const std::string bytes = engine.SaveSnapshot();
  EXPECT_EQ(Hex(bytes),
            "4e534b53" "04"                       // "SKSN", version 4
            "02" "01" "00" "08" "01" "05"         // levels, s, kind, t,
                                                  // copies, seed
            "00" "8020"                           // backend 0, size 4096
            "000000000000e03f" "0000000000000040" "00"  // witness
            "0100000000000000"                    // updates processed
            "01000000" "01000000" "41"            // one stream, "A"
            "00" "01000000"                       // backend 0, 1 copy
            "43324b53" "02000000" "01000000" "00" "08000000"  // SK2C
            "5ac389a30c3b0363" "0001" "02" "0002"  // seed, counters
            "01000000" "01000000" "41");          // one query, "A"

  // Save -> load -> save is a fixed point.
  const std::unique_ptr<StreamEngine> restored =
      StreamEngine::LoadSnapshot(bytes);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->SaveSnapshot(), bytes);

  for (const uint8_t version : {uint8_t{3}, uint8_t{5}}) {
    std::string other = bytes;
    other[4] = static_cast<char>(version);
    EngineSnapshotData data;
    std::string error;
    EXPECT_FALSE(
        DecodeEngineSnapshot(other, kMaxDecodedCounterBytes, &data, &error));
    EXPECT_EQ(error, "unsupported engine snapshot version " +
                         std::to_string(version));
    EXPECT_EQ(StreamEngine::LoadSnapshot(other), nullptr);
  }
}

TEST(GoldenBytesTest, WalSegmentHeader) {
  const std::filesystem::path dir = FreshDir("golden_wal");
  Wal::Options options;
  options.dir = dir.string();
  options.shards = 1;
  options.fsync = false;
  std::string error;
  std::unique_ptr<Wal> wal = Wal::Open(options, 0, &error);
  ASSERT_NE(wal, nullptr) << error;
  wal.reset();
  const std::filesystem::path segment = dir / "wal-0-1.log";
  const std::string header = ReadFile(segment);
  // "SKWL", version 2.
  EXPECT_EQ(Hex(header), "534b574c02");

  for (const uint8_t version : {uint8_t{1}, uint8_t{3}}) {
    std::string other = header;
    other[4] = static_cast<char>(version);
    WriteFile(segment, other);
    WalReplayStats stats;
    EXPECT_FALSE(Wal::Replay(
        dir.string(), 0, [](const WalRecord&) {}, &stats, &error));
    EXPECT_EQ(error, "wal segment " + segment.string() +
                         ": unsupported version " + std::to_string(version));
  }
}

TEST(GoldenBytesTest, CheckpointHeader) {
  const std::filesystem::path dir = FreshDir("golden_checkpoint");
  Checkpoint checkpoint;
  checkpoint.covered_generation = 3;
  checkpoint.engine_snapshot = "x";
  std::string error;
  ASSERT_TRUE(WriteCheckpoint(dir.string(), checkpoint, /*fsync=*/false,
                              &error))
      << error;
  const std::string file = ReadFile(dir / "checkpoint");
  EXPECT_EQ(Hex(file),
            "534b4350" "02"        // "SKCP", version 2
            "04000000" "4b56a6c2"  // body length, crc32c(body)
            "03" "00" "01" "78");  // generation 3, no sites, "x"

  for (const uint8_t version : {uint8_t{1}, uint8_t{3}}) {
    std::string other = file;
    other[4] = static_cast<char>(version);
    WriteFile(dir / "checkpoint", other);
    Checkpoint loaded;
    EXPECT_FALSE(ReadCheckpoint(dir.string(), &loaded, &error));
    EXPECT_EQ(error, "checkpoint " + (dir / "checkpoint").string() +
                         ": unsupported version " + std::to_string(version));
  }
}

}  // namespace
}  // namespace setsketch
