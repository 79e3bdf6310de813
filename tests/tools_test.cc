// Tests for the sketchtool command library and the bank file format.

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

#include "capped_child.h"
#include "core/sketch_backend.h"
#include "core/two_level_hash_sketch.h"
#include "query/stream_engine.h"
#include "stream/stream_generator.h"
#include "stream/stream_io.h"
#include "tools/bank_io.h"
#include "tools/commands.h"

namespace setsketch {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteUpdatesFile(const std::string& path,
                      const std::vector<Update>& updates) {
  std::ofstream out(path);
  ASSERT_TRUE(out);
  WriteUpdates(out, updates);
}

class ToolsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }

  std::string Track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

// ---------------------------------------------------------------------------
// Bank I/O

TEST_F(ToolsTest, BankEncodeDecodeRoundTrip) {
  SketchParams params;
  params.levels = 24;
  params.num_second_level = 16;
  SketchBank bank(SketchFamily(params, 8, 99));
  bank.AddStream("A");
  bank.AddStream("B");
  for (int e = 0; e < 500; ++e) {
    bank.Apply("A", static_cast<uint64_t>(e) * 7919, 1);
    if (e % 2 == 0) bank.Apply("B", static_cast<uint64_t>(e) * 7919, 1);
  }
  const std::string bytes = EncodeBank(bank);
  std::string error;
  const std::unique_ptr<SketchBank> decoded = DecodeBank(bytes, &error);
  ASSERT_NE(decoded, nullptr) << error;
  EXPECT_EQ(decoded->num_copies(), 8);
  EXPECT_TRUE(decoded->HasStream("A"));
  EXPECT_TRUE(decoded->HasStream("B"));
  for (const std::string name : {"A", "B"}) {
    const auto& a = bank.Sketches(name);
    const auto& b = decoded->Sketches(name);
    for (size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]);
  }
}

/// A bank file inside every per-field bound that would still build
/// `copies` x 128 KiB of counters: one stream of all-zero copies at
/// levels 64 and s 128, each copy a 29-byte compact encoding (a header
/// and one zero run). kMaxCopies copies make 1.9 MB of file ask for
/// 8 GiB.
std::string AllZeroWideBank(int copies) {
  SketchParams wide;
  wide.levels = 64;
  wide.num_second_level = 128;
  const SketchBank shape(SketchFamily(wide, copies, 1));
  std::string bytes = EncodeBank(shape);
  // An empty bank ends with two u32 zeros: the stream and query counts.
  bytes.resize(bytes.size() - 2 * sizeof(uint32_t));
  const auto append_u32 = [&bytes](uint32_t value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append_u32(1);
  append_u32(1);
  bytes += 'A';
  bytes += static_cast<char>(SketchBackendId::kTwoLevelHash);
  append_u32(static_cast<uint32_t>(copies));
  // Every copy is the first one's encoding under its own seed value.
  std::string copy;
  TwoLevelHashSketch(shape.family().seed(0)).SerializeCompactTo(&copy);
  const uint64_t first_seed = shape.family().seed(0)->seed_value();
  const size_t seed_at = copy.find(std::string(
      reinterpret_cast<const char*>(&first_seed), sizeof(first_seed)));
  EXPECT_NE(seed_at, std::string::npos);
  EXPECT_EQ(copy.size(), 29u);
  for (int i = 0; i < copies; ++i) {
    const uint64_t seed = shape.family().seed(i)->seed_value();
    std::memcpy(&copy[seed_at], &seed, sizeof(seed));
    bytes += copy;
  }
  append_u32(0);
  return bytes;
}

TEST_F(ToolsTest, OversizedHeaderIsRefusedBeforeAllocating) {
  // A bank file with no streams is its 68-byte header. Declaring
  // s = 2^28 second-level functions describes a 4 GiB hash family per
  // copy; every header decoder (bank file, engine snapshot, server
  // checkpoint) must refuse it before building anything.
  SketchBank empty(SketchFamily(SketchParams{}, 2, 1));
  std::string huge_family = EncodeBank(empty);
  ASSERT_EQ(huge_family.size(), 68u);
  // u32 magic, u8 version, u8 backend, u32 backend size, i32 levels, then
  // i32 s.
  constexpr size_t kSecondLevelOffset = 14;
  int32_t s = 0;
  std::memcpy(&s, &huge_family[kSecondLevelOffset], sizeof(s));
  ASSERT_EQ(s, SketchParams{}.num_second_level);
  s = int32_t{1} << 28;
  std::memcpy(&huge_family[kSecondLevelOffset], &s, sizeof(s));

  // Every field in bounds, but the copies would build 8 GiB (or, from
  // half the bytes, 4 GiB) of counters.
  const std::string huge_counters = AllZeroWideBank(kMaxCopies);
  const std::string half_counters = AllZeroWideBank(kMaxCopies / 2);
  ASSERT_FALSE(HasFailure());

  for (const auto& [bytes, why] :
       {std::pair{huge_family, "invalid sketch parameters"},
        std::pair{huge_counters, "MiB of sketch counters"},
        std::pair{half_counters, "MiB of sketch counters"}}) {
    const std::string path = Track(TempPath("hostile_header.bank"));
    {
      std::ofstream out(path, std::ios::binary);
      out << bytes;
    }
    ExpectCleanInCappedChild([&bytes, &path, why] {
      const CommandResult info = RunInfo(path);
      EXPECT_FALSE(info.ok);
      EXPECT_NE(info.error.find(why), std::string::npos) << info.error;
      std::string error;
      EXPECT_EQ(DecodeBank(bytes, &error), nullptr);
      EXPECT_NE(error.find(why), std::string::npos) << error;
      EXPECT_EQ(StreamEngine::LoadSnapshot(bytes), nullptr);
    });
  }
}

TEST_F(ToolsTest, BankDecodeRejectsGarbage) {
  std::string error;
  EXPECT_EQ(DecodeBank("", &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(DecodeBank("not a bank", &error), nullptr);

  SketchBank bank(SketchFamily(SketchParams{}, 2, 1));
  bank.AddStream("A");
  const std::string bytes = EncodeBank(bank);
  EXPECT_EQ(DecodeBank(bytes.substr(0, bytes.size() / 2), &error), nullptr);
  EXPECT_EQ(DecodeBank(bytes + "zz", &error), nullptr);
}

TEST_F(ToolsTest, FileHelpersRoundTrip) {
  const std::string path = Track(TempPath("bytes.bin"));
  std::string error;
  const std::string payload = std::string("\x00\x01\x02garbled", 10);
  ASSERT_TRUE(WriteFileBytes(path, payload, &error)) << error;
  std::string read_back;
  ASSERT_TRUE(ReadFileBytes(path, &read_back, &error)) << error;
  EXPECT_EQ(read_back, payload);
  EXPECT_FALSE(ReadFileBytes("/no/such/file", &read_back, &error));
  EXPECT_FALSE(WriteFileBytes("/no/such/dir/f", payload, &error));
}

// ---------------------------------------------------------------------------
// Commands end-to-end

TEST_F(ToolsTest, BuildInfoEstimatePipeline) {
  // Controlled dataset: |A n B| = u/4.
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.25));
  const PartitionedDataset data = gen.Generate(4096, 5);
  const std::string updates_path = Track(TempPath("updates.txt"));
  WriteUpdatesFile(updates_path, data.ToInsertUpdates(7));

  BuildSpec spec;
  spec.updates_path = updates_path;
  spec.output_path = Track(TempPath("bank.bin"));
  spec.stream_names = {"A", "B"};
  spec.copies = 192;
  spec.seed = 11;
  const CommandResult build = RunBuild(spec);
  ASSERT_TRUE(build.ok) << build.error;
  EXPECT_NE(build.output.find("2 streams"), std::string::npos);

  const CommandResult info = RunInfo(spec.output_path);
  ASSERT_TRUE(info.ok) << info.error;
  EXPECT_NE(info.output.find("A"), std::string::npos);
  EXPECT_NE(info.output.find("copies r = 192"), std::string::npos);

  const CommandResult estimate =
      RunEstimate(spec.output_path, "A & B");
  ASSERT_TRUE(estimate.ok) << estimate.error;
  EXPECT_NE(estimate.output.find("|(A & B)| ~="), std::string::npos);
}

TEST_F(ToolsTest, BuildRejectsBadInputs) {
  BuildSpec spec;
  spec.updates_path = "/no/such/updates.txt";
  spec.output_path = Track(TempPath("never.bin"));
  EXPECT_FALSE(RunBuild(spec).ok);

  const std::string bad_updates = Track(TempPath("bad.txt"));
  {
    std::ofstream out(bad_updates);
    out << "0 1 1\nnot an update\n";
  }
  spec.updates_path = bad_updates;
  const CommandResult result = RunBuild(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("malformed"), std::string::npos);
}

TEST_F(ToolsTest, BuildRefusesABankItCouldNotReadBack) {
  // One stream of 1100 copies at levels 64 and s 128 holds 137.5 MiB of
  // counters, over the bank-file budget: refused before it is built.
  const std::string updates_path = Track(TempPath("one_stream.txt"));
  WriteUpdatesFile(updates_path, {Insert(0, 1)});
  BuildSpec spec;
  spec.updates_path = updates_path;
  spec.output_path = Track(TempPath("too_wide.bin"));
  spec.params.levels = 64;
  spec.params.num_second_level = 128;
  spec.copies = 1100;
  const CommandResult result = RunBuild(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("MiB a bank file holds"), std::string::npos)
      << result.error;
  EXPECT_FALSE(std::filesystem::exists(spec.output_path));
}

TEST_F(ToolsTest, BuildValidatesStreamNameCount) {
  const std::string updates_path = Track(TempPath("two_streams.txt"));
  WriteUpdatesFile(updates_path, {Insert(0, 1), Insert(1, 2)});
  BuildSpec spec;
  spec.updates_path = updates_path;
  spec.output_path = Track(TempPath("bank2.bin"));
  spec.stream_names = {"OnlyOne"};
  const CommandResult result = RunBuild(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("stream id 1"), std::string::npos);
}

TEST_F(ToolsTest, MergeCombinesDistributedBanks) {
  // Two "sites" sketch halves of the same streams with shared coins; the
  // merged bank must estimate the full streams.
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const PartitionedDataset data = gen.Generate(4096, 13);
  std::vector<Update> updates = data.ToInsertUpdates(17);
  std::vector<Update> half1(updates.begin(),
                            updates.begin() + updates.size() / 2);
  std::vector<Update> half2(updates.begin() + updates.size() / 2,
                            updates.end());

  const std::string bank1 = Track(TempPath("site1.bin"));
  const std::string bank2 = Track(TempPath("site2.bin"));
  for (const auto& [half, path] :
       {std::pair{half1, bank1}, std::pair{half2, bank2}}) {
    const std::string updates_path = Track(path + ".txt");
    WriteUpdatesFile(updates_path, half);
    BuildSpec spec;
    spec.updates_path = updates_path;
    spec.output_path = path;
    spec.stream_names = {"A", "B"};
    spec.copies = 128;
    spec.seed = 4242;  // Shared coins.
    ASSERT_TRUE(RunBuild(spec).ok);
  }

  const std::string merged = Track(TempPath("merged.bin"));
  const CommandResult merge = RunMerge({bank1, bank2}, merged);
  ASSERT_TRUE(merge.ok) << merge.error;

  const CommandResult estimate = RunEstimate(merged, "A & B");
  ASSERT_TRUE(estimate.ok) << estimate.error;
}

TEST_F(ToolsTest, MergeRejectsForeignCoins) {
  const std::string updates_path = Track(TempPath("u.txt"));
  WriteUpdatesFile(updates_path, {Insert(0, 1)});
  const std::string bank1 = Track(TempPath("c1.bin"));
  const std::string bank2 = Track(TempPath("c2.bin"));
  for (const auto& [path, seed] :
       {std::pair{bank1, uint64_t{1}}, std::pair{bank2, uint64_t{2}}}) {
    BuildSpec spec;
    spec.updates_path = updates_path;
    spec.output_path = path;
    spec.copies = 4;
    spec.seed = seed;
    ASSERT_TRUE(RunBuild(spec).ok);
  }
  const CommandResult merge =
      RunMerge({bank1, bank2}, Track(TempPath("m.bin")));
  EXPECT_FALSE(merge.ok);
  EXPECT_NE(merge.error.find("not combinable"), std::string::npos);
}

TEST_F(ToolsTest, MergeRefusesAlternativeBackendBanks) {
  // A bank file is an engine snapshot, so it carries alternative-backend
  // streams too; merge adds 2-level hash copies and refuses them.
  SketchParams params;
  params.levels = 16;
  params.num_second_level = 8;
  SketchBank bank(SketchFamily(params, 4, 7), 64);
  bank.AddStream("A");
  bank.AddStreamWithBackend("T", SketchBackendId::kThetaKmv,
                            bank.backend_options());
  for (uint64_t e = 1; e <= 100; ++e) {
    bank.Apply("A", e, 1);
    bank.Apply("T", e, 1);
  }
  const std::string bytes = EncodeBank(bank);
  std::string error;
  const std::unique_ptr<SketchBank> decoded = DecodeBank(bytes, &error);
  ASSERT_NE(decoded, nullptr) << error;
  ASSERT_NE(decoded->BackendSketch("T"), nullptr);
  EXPECT_EQ(decoded->backend_options(), bank.backend_options());
  EXPECT_EQ(EncodeBank(*decoded), bytes);

  const std::string backend_bank = Track(TempPath("theta.bin"));
  ASSERT_TRUE(WriteFileBytes(backend_bank, bytes, &error)) << error;
  const CommandResult merge =
      RunMerge({backend_bank, backend_bank}, Track(TempPath("m2.bin")));
  EXPECT_FALSE(merge.ok);
  EXPECT_NE(merge.error.find("stream 'T' is a theta_kmv synopsis"),
            std::string::npos)
      << merge.error;
}

TEST_F(ToolsTest, EstimateRejectsUnknownStreamAndBadExpression) {
  const std::string updates_path = Track(TempPath("u2.txt"));
  WriteUpdatesFile(updates_path, {Insert(0, 1), Insert(0, 2)});
  BuildSpec spec;
  spec.updates_path = updates_path;
  spec.output_path = Track(TempPath("b.bin"));
  spec.stream_names = {"A"};
  spec.copies = 8;
  ASSERT_TRUE(RunBuild(spec).ok);

  EXPECT_FALSE(RunEstimate(spec.output_path, "A &").ok);
  const CommandResult unknown = RunEstimate(spec.output_path, "A & Z");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("no stream named 'Z'"), std::string::npos);
}

}  // namespace
}  // namespace setsketch
