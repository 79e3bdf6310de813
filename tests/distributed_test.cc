// Tests for the distributed-streams model with stored coins: Site summary
// encoding, Coordinator merging, and the equivalence "distributed == one
// central observer" that counter linearity guarantees.

#include <gtest/gtest.h>

#include "core/sketch_bank.h"
#include "distributed/coordinator.h"
#include "distributed/site.h"
#include "distributed/summary_codec.h"
#include "query/plan_cache.h"
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

constexpr int kCopies = 128;
constexpr uint64_t kMasterSeed = 20030609;  // Deployment-wide coins.

/// Answers `text` over the coordinator's merged synopses the way every
/// query path does: installed in a SketchBank, asked through a PlanCache.
PlanCache::Result Answer(const Coordinator& coordinator,
                         const std::string& text) {
  SketchBank bank(SketchFamily(TestParams(), coordinator.copies(),
                               kMasterSeed));
  for (const std::string& name : coordinator.StreamNames()) {
    EXPECT_TRUE(bank.InstallSummary(
        name, StreamSummary{0, *coordinator.Sketches(name), nullptr}));
  }
  PlanCache cache(PlanCache::Options{});
  return cache.Query(text, bank);
}

TEST(SiteTest, IngestRequiresDeclaredStream) {
  Site site("s1", TestParams(), 4, kMasterSeed);
  EXPECT_FALSE(site.Ingest("A", 1, 1));
  site.ObserveStream("A");
  EXPECT_TRUE(site.Ingest("A", 1, 1));
  EXPECT_EQ(site.updates_processed(), 1);
}

TEST(SiteTest, SummaryRoundTripsThroughCoordinator) {
  Site site("s1", TestParams(), 4, kMasterSeed);
  site.ObserveStream("A");
  for (int e = 0; e < 100; ++e) {
    site.Ingest("A", static_cast<uint64_t>(e) * 7919, 1);
  }
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  const auto result = coordinator.AddSiteSummary(site.EncodeSummary());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.streams_merged, 1);
  const auto* sketches = coordinator.Sketches("A");
  ASSERT_NE(sketches, nullptr);
  EXPECT_EQ(sketches->size(), 4u);
  EXPECT_TRUE((*sketches)[0] == site.bank().Sketches("A")[0]);
}

TEST(CoordinatorTest, RejectsForeignCoins) {
  Site site("rogue", TestParams(), 4, /*master_seed=*/999);
  site.ObserveStream("A");
  site.Ingest("A", 1, 1);
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  const auto result = coordinator.AddSiteSummary(site.EncodeSummary());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("foreign"), std::string::npos);
}

TEST(CoordinatorTest, RejectsWrongCopyCount) {
  Site site("s1", TestParams(), 8, kMasterSeed);
  site.ObserveStream("A");
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  EXPECT_FALSE(coordinator.AddSiteSummary(site.EncodeSummary()).ok);
}

TEST(CoordinatorTest, RejectsTruncatedAndTrailingBytes) {
  Site site("s1", TestParams(), 2, kMasterSeed);
  site.ObserveStream("A");
  site.Ingest("A", 42, 1);
  const std::string bytes = site.EncodeSummary();
  Coordinator coordinator(TestParams(), 2, kMasterSeed);
  EXPECT_FALSE(
      coordinator.AddSiteSummary(bytes.substr(0, bytes.size() - 4)).ok);
  EXPECT_FALSE(coordinator.AddSiteSummary(bytes + "xx").ok);
  EXPECT_FALSE(coordinator.AddSiteSummary("").ok);
  // A failed ingest merges nothing.
  EXPECT_EQ(coordinator.StreamNames().size(), 0u);
  // The pristine buffer still works.
  EXPECT_TRUE(coordinator.AddSiteSummary(bytes).ok);
}

// Core guarantee: sketches merged across sites equal the sketches a single
// central observer would have built from the full streams.
TEST(DistributedTest, MergedSketchesEqualCentralizedSketches) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.3));
  const PartitionedDataset data = gen.Generate(2048, 7);
  const std::vector<Update> updates = data.ToInsertUpdates(3);

  // Central observer sees everything.
  Site central("central", TestParams(), 8, kMasterSeed);
  central.ObserveStream("A");
  central.ObserveStream("B");

  // Three sites each see a third of the updates (round-robin split), for
  // both streams.
  std::vector<Site> sites;
  for (int i = 0; i < 3; ++i) {
    sites.emplace_back("site" + std::to_string(i), TestParams(), 8,
                       kMasterSeed);
    sites.back().ObserveStream("A");
    sites.back().ObserveStream("B");
  }
  const std::vector<std::string> names = {"A", "B"};
  for (size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    central.Ingest(names[u.stream], u.element, u.delta);
    sites[i % 3].Ingest(names[u.stream], u.element, u.delta);
  }

  Coordinator coordinator(TestParams(), 8, kMasterSeed);
  for (const Site& site : sites) {
    ASSERT_TRUE(coordinator.AddSiteSummary(site.EncodeSummary()).ok);
  }
  for (const std::string& name : names) {
    const auto* merged = coordinator.Sketches(name);
    ASSERT_NE(merged, nullptr);
    const auto& reference = central.bank().Sketches(name);
    for (size_t i = 0; i < merged->size(); ++i) {
      EXPECT_TRUE((*merged)[i] == reference[i])
          << "stream " << name << " copy " << i;
    }
  }
}

TEST(DistributedTest, EndToEndExpressionEstimate) {
  VennPartitionGenerator gen(3, ExprDiffIntersectProbs(0.25));
  const PartitionedDataset data = gen.Generate(4096, 11);
  const std::vector<Update> updates = data.ToInsertUpdates(5);
  const std::vector<std::string> names = {"A", "B", "C"};

  std::vector<Site> sites;
  for (int i = 0; i < 4; ++i) {
    sites.emplace_back("site" + std::to_string(i), TestParams(), 256,
                       kMasterSeed);
    for (const auto& name : names) sites.back().ObserveStream(name);
  }
  for (size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    sites[i % 4].Ingest(names[u.stream], u.element, u.delta);
  }

  Coordinator coordinator(TestParams(), 256, kMasterSeed);
  for (const Site& site : sites) {
    ASSERT_TRUE(coordinator.AddSiteSummary(site.EncodeSummary()).ok);
  }
  const auto answer = Answer(coordinator, "(A - B) & C");
  ASSERT_TRUE(answer.ok) << answer.error;
  const int64_t exact = static_cast<int64_t>(data.regions[5].size());
  EXPECT_LT(RelativeError(answer.estimate, static_cast<double>(exact)),
            0.7);
}

TEST(SiteTest, CompactAndFixedSummariesDecodeIdentically) {
  // The summary carries compact copies; they decode to exactly the
  // counters the fixed-width sketch encoding round-trips, at well under
  // half its size.
  Site site("s1", TestParams(), 16, kMasterSeed);
  site.ObserveStream("A");
  for (int e = 0; e < 500; ++e) {
    site.Ingest("A", static_cast<uint64_t>(e) * 31337 + 5, 1 + e % 2);
  }
  const std::string compact = site.EncodeSummary();
  std::string fixed;
  for (const TwoLevelHashSketch& sketch : site.bank().Sketches("A")) {
    sketch.SerializeTo(&fixed);
  }
  EXPECT_LT(compact.size() * 2, fixed.size());

  Coordinator coordinator(TestParams(), 16, kMasterSeed);
  ASSERT_TRUE(coordinator.AddSiteSummary(compact).ok);
  const auto* decoded = coordinator.Sketches("A");
  ASSERT_NE(decoded, nullptr);
  size_t offset = 0;
  for (const TwoLevelHashSketch& sketch : *decoded) {
    const std::unique_ptr<TwoLevelHashSketch> reference =
        TwoLevelHashSketch::Deserialize(fixed, &offset);
    ASSERT_NE(reference, nullptr);
    EXPECT_TRUE(sketch == *reference);
  }
  EXPECT_EQ(offset, fixed.size());
}

/// A PUSH_SUMMARY payload from `site` naming the given streams, each
/// carrying one site's synopsis of stream "A" (so names are free).
std::string CraftSummary(const std::string& site_name,
                         const std::vector<std::string>& stream_names,
                         const SketchBank& bank) {
  std::string out;
  AppendVarintString(&out, site_name);
  AppendVarint(&out, stream_names.size());
  for (const std::string& name : stream_names) {
    AppendVarintString(&out, name);
    EncodeStreamSummary(bank, "A", &out);
  }
  return out;
}

TEST(CoordinatorTest, OversizedNamesAreRefusedAndMergeNothing) {
  Site site("s1", TestParams(), 4, kMasterSeed);
  site.ObserveStream("A");
  site.Ingest("A", 42, 1);
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  const std::string long_name(kMaxStreamNameBytes + 1, 'n');
  const auto stream = coordinator.AddSiteSummary(
      CraftSummary("s1", {long_name}, site.bank()));
  EXPECT_FALSE(stream.ok);
  EXPECT_NE(stream.error.find("stream name"), std::string::npos)
      << stream.error;
  const auto site_id = coordinator.AddSiteSummary(CraftSummary(
      std::string(kMaxSiteIdBytes + 1, 's'), {"A"}, site.bank()));
  EXPECT_FALSE(site_id.ok);
  EXPECT_NE(site_id.error.find("site name"), std::string::npos)
      << site_id.error;
  // At the bound both are fine.
  EXPECT_TRUE(coordinator
                  .AddSiteSummary(CraftSummary(
                      std::string(kMaxSiteIdBytes, 's'),
                      {std::string(kMaxStreamNameBytes, 'n')}, site.bank()))
                  .ok);
  EXPECT_EQ(coordinator.SiteNames().size(), 1u);
}

TEST(CoordinatorTest, EmptyNamesAreRefused) {
  Site site("s1", TestParams(), 4, kMasterSeed);
  site.ObserveStream("A");
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  const auto empty_stream =
      coordinator.AddSiteSummary(CraftSummary("s1", {""}, site.bank()));
  EXPECT_FALSE(empty_stream.ok);
  EXPECT_EQ(empty_stream.error, "empty stream name");
  const auto empty_site =
      coordinator.AddSiteSummary(CraftSummary("", {"A"}, site.bank()));
  EXPECT_FALSE(empty_site.ok);
  EXPECT_EQ(empty_site.error, "empty site name");
  EXPECT_TRUE(coordinator.SiteNames().empty());
  EXPECT_TRUE(coordinator.StreamNames().empty());
}

TEST(CoordinatorTest, DuplicateStreamIsRefusedWhole) {
  Site site("s1", TestParams(), 4, kMasterSeed);
  site.ObserveStream("A");
  site.Ingest("A", 42, 1);
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  const auto result = coordinator.AddSiteSummary(
      CraftSummary("s1", {"A", "B", "A"}, site.bank()));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.streams_merged, 0);
  EXPECT_NE(result.error.find("duplicate stream 'A'"), std::string::npos)
      << result.error;
  EXPECT_TRUE(coordinator.StreamNames().empty());
}

TEST(CoordinatorTest, AlternativeBackendStreamIsRefused) {
  SketchBank bank(SketchFamily(TestParams(), 4, kMasterSeed));
  bank.AddStreamWithBackend("A", SketchBackendId::kThetaKmv,
                            bank.backend_options());
  bank.Apply("A", 7, 1);
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  const auto result =
      coordinator.AddSiteSummary(CraftSummary("s1", {"A"}, bank));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("theta_kmv"), std::string::npos)
      << result.error;
  EXPECT_TRUE(coordinator.StreamNames().empty());
}

TEST(CoordinatorTest, RetransmissionReplacesInsteadOfDoubleCounting) {
  Site site("s1", TestParams(), 64, kMasterSeed);
  site.ObserveStream("A");
  for (int e = 0; e < 1000; ++e) {
    site.Ingest("A", static_cast<uint64_t>(e) * 7919 + 1, 1);
  }
  Coordinator coordinator(TestParams(), 64, kMasterSeed);
  const auto first = coordinator.AddSiteSummary(site.EncodeSummary());
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.site, "s1");
  EXPECT_FALSE(first.replaced);
  // Copy: the merged view is a cache that later summaries rebuild.
  const std::vector<TwoLevelHashSketch> reference =
      *coordinator.Sketches("A");

  // The same cumulative summary arrives again (periodic collection):
  // the merged view must be unchanged, not doubled.
  const auto second = coordinator.AddSiteSummary(site.EncodeSummary());
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.replaced);
  EXPECT_TRUE((*coordinator.Sketches("A"))[0] == reference[0]);
  EXPECT_EQ(coordinator.SiteNames(),
            (std::vector<std::string>{"s1"}));

  // An *updated* cumulative summary supersedes the old one.
  site.Ingest("A", 999999, 1);
  ASSERT_TRUE(coordinator.AddSiteSummary(site.EncodeSummary()).ok);
  EXPECT_TRUE((*coordinator.Sketches("A"))[0] ==
              site.bank().Sketches("A")[0]);
}

TEST(CoordinatorTest, FailedRetransmissionKeepsPriorSummary) {
  Site site("s1", TestParams(), 8, kMasterSeed);
  site.ObserveStream("A");
  site.Ingest("A", 42, 1);
  Coordinator coordinator(TestParams(), 8, kMasterSeed);
  const std::string good = site.EncodeSummary();
  ASSERT_TRUE(coordinator.AddSiteSummary(good).ok);
  ASSERT_FALSE(
      coordinator.AddSiteSummary(good.substr(0, good.size() - 3)).ok);
  // The first summary is still in force.
  ASSERT_NE(coordinator.Sketches("A"), nullptr);
  EXPECT_TRUE((*coordinator.Sketches("A"))[0] ==
              site.bank().Sketches("A")[0]);
}

TEST(CoordinatorTest, EstimateErrorsAreInformative) {
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  const auto bad_parse = Answer(coordinator, "A &");
  EXPECT_FALSE(bad_parse.ok);
  EXPECT_NE(bad_parse.error.find("parse error"), std::string::npos);
  const auto unknown = Answer(coordinator, "A & B");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unknown stream"), std::string::npos);
}

TEST(CoordinatorTest, TruncationSweepMergesNothing) {
  // Cutting the summary at *any* byte boundary must fail atomically:
  // no site registered, no stream merged, no partial sketch state.
  Site site("s1", TestParams(), 4, kMasterSeed);
  site.ObserveStream("A");
  site.ObserveStream("B");
  for (int e = 0; e < 200; ++e) {
    site.Ingest(e % 2 == 0 ? "A" : "B", static_cast<uint64_t>(e) * 31 + 7,
                1);
  }
  const std::string bytes = site.EncodeSummary();
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    const auto result = coordinator.AddSiteSummary(bytes.substr(0, cut));
    ASSERT_FALSE(result.ok) << "cut at " << cut;
    ASSERT_FALSE(result.error.empty()) << "cut at " << cut;
  }
  EXPECT_TRUE(coordinator.SiteNames().empty());
  EXPECT_TRUE(coordinator.StreamNames().empty());
  EXPECT_TRUE(coordinator.AddSiteSummary(bytes).ok);
}

TEST(CoordinatorTest, EmptySummaryIsAcceptedAndReplacesWholesale) {
  // A site that has observed no streams yet sends a legal, empty summary.
  Site idle("s1", TestParams(), 4, kMasterSeed);
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  const auto first = coordinator.AddSiteSummary(idle.EncodeSummary());
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.streams_merged, 0);
  EXPECT_FALSE(first.replaced);
  EXPECT_EQ(coordinator.SiteNames(), (std::vector<std::string>{"s1"}));

  // Later the same site (same name — replacement is keyed by it) reports
  // actual data...
  Site active("s1", TestParams(), 4, kMasterSeed);
  active.ObserveStream("A");
  active.Ingest("A", 42, 1);
  ASSERT_TRUE(coordinator.AddSiteSummary(active.EncodeSummary()).ok);
  ASSERT_NE(coordinator.Sketches("A"), nullptr);

  // ...and an empty retransmission (a site reset) wipes its contribution
  // instead of leaving stale sketches behind.
  const auto reset = coordinator.AddSiteSummary(idle.EncodeSummary());
  ASSERT_TRUE(reset.ok) << reset.error;
  EXPECT_TRUE(reset.replaced);
  EXPECT_EQ(coordinator.Sketches("A"), nullptr);
}

TEST(CoordinatorTest, RetransmissionWithAddedStreamReplacesWholesale) {
  Site site("s1", TestParams(), 8, kMasterSeed);
  site.ObserveStream("A");
  for (int e = 0; e < 300; ++e) {
    site.Ingest("A", static_cast<uint64_t>(e) * 101 + 3, 1);
  }
  Coordinator coordinator(TestParams(), 8, kMasterSeed);
  ASSERT_TRUE(coordinator.AddSiteSummary(site.EncodeSummary()).ok);

  // The site later starts observing B and keeps ingesting A, then ships
  // its next cumulative summary.
  site.ObserveStream("B");
  for (int e = 0; e < 300; ++e) {
    site.Ingest("A", static_cast<uint64_t>(e) * 7919 + 11, 1);
    site.Ingest("B", static_cast<uint64_t>(e) * 6007 + 13, 1);
  }
  const auto second = coordinator.AddSiteSummary(site.EncodeSummary());
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.replaced);
  EXPECT_EQ(second.streams_merged, 2);
  // A reflects the latest cumulative state — not first + second summed.
  ASSERT_NE(coordinator.Sketches("A"), nullptr);
  EXPECT_TRUE((*coordinator.Sketches("A"))[0] ==
              site.bank().Sketches("A")[0]);
  ASSERT_NE(coordinator.Sketches("B"), nullptr);
  EXPECT_TRUE((*coordinator.Sketches("B"))[0] ==
              site.bank().Sketches("B")[0]);
}

TEST(CoordinatorTest, MismatchedSketchParamsAreRejected) {
  // Same master seed and copy count, but the site draws differently
  // shaped sketches (fewer levels) — its coins cannot match.
  SketchParams narrow = TestParams();
  narrow.levels = 16;
  Site site("s1", narrow, 4, kMasterSeed);
  site.ObserveStream("A");
  site.Ingest("A", 1, 1);
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  const auto result = coordinator.AddSiteSummary(site.EncodeSummary());
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(CoordinatorTest, HugeDeclaredLengthFailsFast) {
  // A summary declaring a ~4 GiB site name must be rejected by bounds
  // checks, not by attempting the allocation.
  std::string hostile;
  const uint32_t absurd = 0xFFFFFFFFu;
  hostile.append(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  hostile += "abc";
  Coordinator coordinator(TestParams(), 4, kMasterSeed);
  const auto result = coordinator.AddSiteSummary(hostile);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("truncated"), std::string::npos);
}

TEST(DistributedTest, SitesCanCoverDisjointStreams) {
  // Site 1 only observes A, site 2 only observes B; the coordinator can
  // still answer cross-stream queries.
  Site s1("s1", TestParams(), 192, kMasterSeed);
  Site s2("s2", TestParams(), 192, kMasterSeed);
  s1.ObserveStream("A");
  s2.ObserveStream("B");
  for (int e = 0; e < 2000; ++e) {
    const uint64_t elem = static_cast<uint64_t>(e) * 2654435761u;
    s1.Ingest("A", elem, 1);
    if (e % 2 == 0) s2.Ingest("B", elem, 1);
  }
  Coordinator coordinator(TestParams(), 192, kMasterSeed);
  ASSERT_TRUE(coordinator.AddSiteSummary(s1.EncodeSummary()).ok);
  ASSERT_TRUE(coordinator.AddSiteSummary(s2.EncodeSummary()).ok);
  const auto answer = Answer(coordinator, "A & B");
  ASSERT_TRUE(answer.ok);
  EXPECT_LT(RelativeError(answer.estimate, 1000), 0.6);
}

}  // namespace
}  // namespace setsketch
