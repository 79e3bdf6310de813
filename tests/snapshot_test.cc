// Tests for StreamEngine snapshots: save/load round trips, estimate
// equivalence, resumed ingest, and rejection of malformed input.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "query/stream_engine.h"
#include "stream/stream_generator.h"
#include "test_helpers.h"

namespace setsketch {
namespace {

StreamEngine::Options SnapshotOptions() {
  StreamEngine::Options options;
  options.params = TestParams();
  options.copies = 64;
  options.seed = 31415;
  options.witness.pool_all_levels = true;
  return options;
}

StreamEngine BuildPopulatedEngine() {
  StreamEngine engine(SnapshotOptions());
  engine.RegisterQuery("A & B");
  engine.RegisterQuery("A - B");
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.3));
  const PartitionedDataset data = gen.Generate(2048, 7);
  engine.IngestAll(data.ToInsertUpdates(9));
  return engine;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  StreamEngine original = BuildPopulatedEngine();
  const std::string bytes = original.SaveSnapshot();
  const std::unique_ptr<StreamEngine> restored =
      StreamEngine::LoadSnapshot(bytes);
  ASSERT_NE(restored, nullptr);

  EXPECT_EQ(restored->stream_names(), original.stream_names());
  EXPECT_EQ(restored->num_queries(), original.num_queries());
  EXPECT_EQ(restored->updates_processed(), original.updates_processed());
  EXPECT_EQ(restored->SynopsisBytes(), original.SynopsisBytes());

  // Same sketches => identical estimates for every query.
  for (int q = 0; q < original.num_queries(); ++q) {
    const auto a = original.AnswerQuery(q);
    const auto b = restored->AnswerQuery(q);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_DOUBLE_EQ(a.estimate, b.estimate) << a.expression;
  }
}

TEST(SnapshotTest, BackendStreamsRoundTripThroughSsn2) {
  StreamEngine::Options options = SnapshotOptions();
  options.default_backend = SketchBackendId::kSetSketch;
  options.backend_size = 256;
  StreamEngine engine(options);
  engine.RegisterStream("A");
  engine.RegisterStreamWithBackend("B", SketchBackendId::kTwoLevelHash);
  engine.RegisterStreamWithBackend("C", SketchBackendId::kThetaKmv);
  VennPartitionGenerator gen(3, {0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2});
  const PartitionedDataset data = gen.Generate(4096, 11);
  engine.IngestAll(data.ToInsertUpdates(5));

  const std::string bytes = engine.SaveSnapshot();

  const std::unique_ptr<StreamEngine> restored =
      StreamEngine::LoadSnapshot(bytes);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->stream_names(), engine.stream_names());
  // Each stream's backend survives: identical estimates per stream
  // (expressions cannot mix backends, so probe one at a time).
  for (const char* expr : {"A", "B", "C"}) {
    const auto before = engine.EstimateNow(expr);
    const auto after = restored->EstimateNow(expr);
    ASSERT_TRUE(before.ok) << expr;
    ASSERT_TRUE(after.ok) << expr;
    EXPECT_DOUBLE_EQ(before.estimate, after.estimate) << expr;
  }
  // And the round trip is a fixed point at the byte level too.
  EXPECT_EQ(restored->SaveSnapshot(), bytes);
}

TEST(SnapshotTest, RestoredEngineKeepsIngesting) {
  StreamEngine original = BuildPopulatedEngine();
  const std::string bytes = original.SaveSnapshot();
  const std::unique_ptr<StreamEngine> restored =
      StreamEngine::LoadSnapshot(bytes);
  ASSERT_NE(restored, nullptr);

  // Feed the same continuation stream to both; answers must stay equal.
  for (int e = 0; e < 500; ++e) {
    const uint64_t elem = static_cast<uint64_t>(e) * 7919 + 123;
    original.Ingest("A", elem, 1);
    restored->Ingest("A", elem, 1);
    if (e % 3 == 0) {
      original.Ingest("B", elem, 1);
      restored->Ingest("B", elem, 1);
    }
  }
  const auto a = original.AnswerQuery(0);
  const auto b = restored->AnswerQuery(0);
  EXPECT_DOUBLE_EQ(a.estimate, b.estimate);
}

TEST(SnapshotTest, ExactTrackingIsNotSerialized) {
  StreamEngine::Options options = SnapshotOptions();
  options.track_exact = true;
  StreamEngine engine(options);
  engine.RegisterQuery("A");
  engine.Ingest("A", 42, 1);
  ASSERT_EQ(engine.AnswerQuery(0).exact, 1);

  const std::unique_ptr<StreamEngine> restored =
      StreamEngine::LoadSnapshot(engine.SaveSnapshot());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->AnswerQuery(0).exact, -1);  // No ground truth.
}

TEST(SnapshotTest, EmptyEngineRoundTrips) {
  StreamEngine engine(SnapshotOptions());
  const std::unique_ptr<StreamEngine> restored =
      StreamEngine::LoadSnapshot(engine.SaveSnapshot());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->num_queries(), 0);
  EXPECT_TRUE(restored->stream_names().empty());
}

TEST(SnapshotTest, RejectsWitnessOptionsThatCannotPickALevel) {
  const std::string bytes = BuildPopulatedEngine().SaveSnapshot();
  // u32 magic, u8 version, the configuration block, then the witness
  // epsilon and beta as doubles.
  std::string config;
  EncodeSketchConfig(SnapshotOptions(), &config);
  const size_t epsilon_at = 5 + config.size();
  const size_t beta_at = epsilon_at + sizeof(double);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [at, value] :
       {std::pair{beta_at, nan}, std::pair{epsilon_at, nan},
        std::pair{epsilon_at, 0.0}, std::pair{beta_at, 1.0}}) {
    std::string hostile = bytes;
    std::memcpy(&hostile[at], &value, sizeof(value));
    EXPECT_EQ(StreamEngine::LoadSnapshot(hostile), nullptr)
        << "offset " << at << " value " << value;
  }
  ASSERT_NE(StreamEngine::LoadSnapshot(bytes), nullptr);
}

TEST(SnapshotTest, RejectsMalformedInput) {
  StreamEngine engine = BuildPopulatedEngine();
  const std::string bytes = engine.SaveSnapshot();

  EXPECT_EQ(StreamEngine::LoadSnapshot(""), nullptr);
  EXPECT_EQ(StreamEngine::LoadSnapshot("garbage"), nullptr);
  // Every truncation must be rejected cleanly.
  for (size_t cut : {size_t{4}, bytes.size() / 4, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_EQ(StreamEngine::LoadSnapshot(bytes.substr(0, cut)), nullptr)
        << "cut at " << cut;
  }
  // Trailing junk is rejected too.
  EXPECT_EQ(StreamEngine::LoadSnapshot(bytes + "x"), nullptr);
  // Bad magic.
  std::string corrupted = bytes;
  corrupted[0] = static_cast<char>(corrupted[0] + 1);
  EXPECT_EQ(StreamEngine::LoadSnapshot(corrupted), nullptr);
}

}  // namespace
}  // namespace setsketch
