// Tests for the plan cache (query/plan_cache.h): bit-identical equivalence
// of planned + cached evaluation vs direct EstimateSetExpression (the
// refactor's correctness bar), including through ingest -> epoch
// invalidation -> re-query cycles; probe-table equivalence with the lazy
// group probes (negative net frequencies, multi-word masks, mismatched
// seeds); cache-hit semantics for equivalent spellings; one probe per
// stale query; LRU eviction; bank-identity invalidation; EXPLAIN's
// memo evidence; and the engine-level wiring.

#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/set_expression_estimator.h"
#include "core/sketch_bank.h"
#include "expr/expression.h"
#include "expr/parser.h"
#include "query/plan_cache.h"
#include "query/stream_engine.h"
#include "test_helpers.h"

namespace setsketch {
namespace {

ExprPtr Parse(const std::string& text) {
  const ParseResult p = ParseExpression(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.error;
  return p.expression;
}

/// Uniform region probabilities over the 2^n - 1 non-empty Venn regions.
std::vector<double> UniformRegionProbs(int num_streams) {
  const size_t regions = size_t{1} << num_streams;
  std::vector<double> probs(regions, 1.0 / static_cast<double>(regions - 1));
  probs[0] = 0.0;
  return probs;
}

/// Asserts the planned result equals direct estimation bit for bit: the
/// whole point of routing everything through one kernel is that caching
/// and canonicalization change nothing about the answer.
void ExpectBitIdentical(const PlanCache::Result& planned,
                        const ExpressionEstimate& direct,
                        const std::string& context) {
  ASSERT_EQ(planned.detail.ok, direct.ok) << context;
  EXPECT_EQ(planned.detail.expression.estimate, direct.expression.estimate)
      << context;
  EXPECT_EQ(planned.detail.expression.witnesses, direct.expression.witnesses)
      << context;
  EXPECT_EQ(planned.detail.expression.valid_observations,
            direct.expression.valid_observations)
      << context;
  EXPECT_EQ(planned.detail.expression.level, direct.expression.level)
      << context;
  EXPECT_EQ(planned.detail.union_part.estimate, direct.union_part.estimate)
      << context;
  EXPECT_EQ(planned.detail.union_part.level, direct.union_part.level)
      << context;
  EXPECT_EQ(planned.detail.union_part.nonempty_count,
            direct.union_part.nonempty_count)
      << context;
  if (direct.ok) {
    EXPECT_EQ(planned.estimate, direct.expression.estimate) << context;
  }
}

/// Uniformly random expression tree over `names`, depth-bounded.
ExprPtr RandomExpression(std::mt19937_64& rng,
                         const std::vector<std::string>& names, int depth) {
  std::uniform_int_distribution<int> pick_kind(0, depth <= 0 ? 0 : 3);
  std::uniform_int_distribution<size_t> pick_name(0, names.size() - 1);
  switch (pick_kind(rng)) {
    case 1:
      return Expression::Union(RandomExpression(rng, names, depth - 1),
                               RandomExpression(rng, names, depth - 1));
    case 2:
      return Expression::Intersect(RandomExpression(rng, names, depth - 1),
                                   RandomExpression(rng, names, depth - 1));
    case 3:
      return Expression::Difference(RandomExpression(rng, names, depth - 1),
                                    RandomExpression(rng, names, depth - 1));
    default:
      return Expression::Stream(names[pick_name(rng)]);
  }
}

// --- Bit-identical equivalence ------------------------------------------

TEST(PlanCacheTest, PlannedAnswersMatchDirectEstimatorExactly) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  const auto bank = BankFromDataset(gen.Generate(4096, 11), 64, 11);
  PlanCache cache(PlanCache::Options{});
  const std::vector<std::string> queries = {
      "S0", "S0 | S1", "S0 & S1", "S0 - S1", "(S0 - S1) - S2",
      "S0 | (S1 & S2)", "(S0 | S1) & S2", "(S0 & S1) | ((S0 & S1) - S2)",
      "(S0 | S1) - (S0 & S1)", "S0 & S1 & S2",
  };
  for (const std::string& text : queries) {
    const ExprPtr expr = Parse(text);
    const ExpressionEstimate direct = EstimateSetExpression(*expr, *bank);
    const PlanCache::Result cold = cache.Query(*expr, *bank);
    ExpectBitIdentical(cold, direct, text + " (cold)");
    EXPECT_FALSE(cold.cache_hit);
    // The memoized re-answer is the same object, bit for bit.
    const PlanCache::Result hot = cache.Query(*expr, *bank);
    ExpectBitIdentical(hot, direct, text + " (hot)");
    EXPECT_TRUE(hot.cache_hit);
  }
}

TEST(PlanCacheTest, RandomizedEquivalenceThroughIngestAndInvalidation) {
  std::mt19937_64 rng(0x5E7CA11);
  const std::vector<std::string> names = {"S0", "S1", "S2"};
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  auto bank = BankFromDataset(gen.Generate(2048, 21), 48, 21);
  PlanCache cache(PlanCache::Options{});

  std::uniform_int_distribution<uint64_t> pick_element(1, 1u << 20);
  std::uniform_int_distribution<size_t> pick_stream(0, names.size() - 1);
  for (int round = 0; round < 40; ++round) {
    const ExprPtr expr = RandomExpression(rng, names, 3);
    // The cache short-circuits provably-empty queries to an exact 0
    // without running the estimator, so the bit-identical comparison only
    // applies to the non-degenerate ones.
    if (ProvablyEmpty(Canonicalize(*expr))) {
      const PlanCache::Result empty = cache.Query(*expr, *bank);
      EXPECT_TRUE(empty.ok);
      EXPECT_EQ(empty.estimate, 0.0);
      continue;
    }
    const std::string text = expr->ToString();
    ExpectBitIdentical(cache.Query(*expr, *bank),
                       EstimateSetExpression(*expr, *bank), text);
    // Mutate a random stream (epoch bump), then require the re-planned
    // answer to track the bank's new state exactly — a stale memo would
    // reproduce the old numbers instead.
    bank->Apply(names[pick_stream(rng)], pick_element(rng), 1);
    ExpectBitIdentical(cache.Query(*expr, *bank),
                       EstimateSetExpression(*expr, *bank),
                       text + " (after ingest)");
  }
}

TEST(PlanCacheTest, EquivalentSpellingsHitOneCachedPlan) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  const auto bank = BankFromDataset(gen.Generate(1024, 31), 32, 31);
  PlanCache cache(PlanCache::Options{});

  const PlanCache::Result first = cache.Query("S0 | (S1 & S2)", *bank);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // A commuted + reassociated spelling canonicalizes to the same plan and
  // is answered from the memo without compiling anything new.
  const PlanCache::Result second = cache.Query("(S2 & S1) | S0", *bank);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.canonical, first.canonical);
  EXPECT_EQ(second.estimate, first.estimate);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.memo_bytes, 0u);
}

TEST(PlanCacheTest, IngestRebuildsOneProbeTablePerStaleQuery) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  auto bank = BankFromDataset(gen.Generate(1024, 41), 32, 41);
  PlanCache::Options options;
  options.witness.pool_all_levels = true;  // Robust across seeds.
  PlanCache cache(options);

  // A plan with a union sub-expression under the root: every leaf bit it
  // reads comes from one probe table, so there is exactly one build per
  // stale answer whichever stream moved.
  const ExprPtr expr = Parse("(S0 | S1) & S2");
  const PlanCache::Result cold = cache.Query(*expr, *bank);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cache.stats().merge_builds, 1u);

  bank->Apply("S2", 987654321u, 1);
  ExpectBitIdentical(cache.Query(*expr, *bank),
                     EstimateSetExpression(*expr, *bank, options.witness),
                     "after S2 ingest");
  EXPECT_EQ(cache.stats().merge_builds, 2u);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  bank->Apply("S0", 123456789u, 1);
  ExpectBitIdentical(cache.Query(*expr, *bank),
                     EstimateSetExpression(*expr, *bank, options.witness),
                     "after S0 ingest");
  EXPECT_EQ(cache.stats().merge_builds, 3u);
  EXPECT_EQ(cache.stats().invalidations, 2u);

  // Quiescent re-query: pure hit, nothing rebuilt.
  ASSERT_TRUE(cache.Query(*expr, *bank).ok);
  EXPECT_EQ(cache.stats().merge_builds, 3u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, ExplainShowsTheMemoizedAnswersEvidence) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  auto bank = BankFromDataset(gen.Generate(1024, 43), 32, 43);
  PlanCache cache(PlanCache::Options{});
  const std::string text = "(S0 | S1) - S2";
  const auto expected_line = [](const PlanCache::Result& result) {
    const UnionEstimate& u = result.detail.union_part;
    const WitnessEstimate& w = result.detail.expression;
    std::ostringstream line;
    line << "memo evidence: union level " << u.level << ", nonempty "
         << u.nonempty_count << "/" << u.copies << " copies (p_hat "
         << u.p_hat << "), saturated " << (u.saturated ? "yes" : "no")
         << ", estimate " << u.estimate << "; witness level " << w.level
         << ", witnesses " << w.witnesses << "/" << w.valid_observations
         << " valid observations, estimate " << w.estimate << "\n";
    return line.str();
  };

  const auto compiled = CompileQuery(text);
  EXPECT_EQ(cache.Explain(*compiled, *bank).find("memo evidence"),
            std::string::npos);  // Nothing memoized yet.
  const PlanCache::Result first = cache.Query(text, *bank);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_EQ(first.detail.union_part.copies, 32);
  std::string report = cache.Explain(*compiled, *bank);
  EXPECT_NE(report.find("cache: HIT"), std::string::npos) << report;
  EXPECT_NE(report.find(expected_line(first)), std::string::npos) << report;
  EXPECT_NE(report.find("1 row-summary word(s) per stream and cell"),
            std::string::npos)
      << report;
  // 32 copies x 24 levels, three streams: one 24-word bitset each for
  // nonempty, singleton and the streams; in three copy-range parts
  // (10, 11, 11 copies) each part pads its 24 words on its own.
  EXPECT_NE(report.find("in 1 part(s), bitsets of 1 word(s) per level: "
                        "nonempty, union-singleton, 3 occupancy (120 words)"),
            std::string::npos)
      << report;
  const std::string split = cache.Explain(*compiled, *bank, /*parts=*/3);
  EXPECT_NE(split.find("in 3 part(s), bitsets of 3 word(s) per level: "
                       "nonempty, union-singleton, 3 occupancy (360 words)"),
            std::string::npos)
      << split;

  // A stale entry still shows the evidence of the answer it holds; the
  // next query replaces both.
  bank->Apply("S2", 555u, 1);
  report = cache.Explain(*compiled, *bank);
  EXPECT_NE(report.find("cache: STALE"), std::string::npos) << report;
  EXPECT_NE(report.find(expected_line(first)), std::string::npos) << report;
  const PlanCache::Result second = cache.Query(text, *bank);
  ASSERT_TRUE(second.ok) << second.error;
  report = cache.Explain(*compiled, *bank);
  EXPECT_NE(report.find(expected_line(second)), std::string::npos) << report;
}

TEST(PlanCacheTest, IngestIntoUnrelatedStreamKeepsPlansHot) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  auto bank = BankFromDataset(gen.Generate(1024, 51), 32, 51);
  bank->AddStream("Other");
  PlanCache cache(PlanCache::Options{});

  ASSERT_TRUE(cache.Query("S0 & S1", *bank).ok);
  bank->Apply("Other", 42u, 1);  // Epoch bump on a non-participant.
  const PlanCache::Result again = cache.Query("S0 & S1", *bank);
  ASSERT_TRUE(again.ok);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, DifferentBankNeverReusesMemos) {
  // Two banks with identical content but distinct identities: the second
  // query must re-derive everything (bank ids differ), never serve the
  // first bank's memo — this is the recovery-safety property.
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const PartitionedDataset data = gen.Generate(1024, 61);
  const auto bank_a = BankFromDataset(data, 32, 61);
  const auto bank_b = BankFromDataset(data, 32, 61);
  PlanCache cache(PlanCache::Options{});

  const PlanCache::Result on_a = cache.Query("S0 - S1", *bank_a);
  ASSERT_TRUE(on_a.ok);
  const PlanCache::Result on_b = cache.Query("S0 - S1", *bank_b);
  ASSERT_TRUE(on_b.ok);
  EXPECT_FALSE(on_b.cache_hit);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // Same data + same seed => same answer, recomputed rather than reused.
  EXPECT_EQ(on_a.estimate, on_b.estimate);

  // And the memo now belongs to bank_b: querying it again is a hit...
  EXPECT_TRUE(cache.Query("S0 - S1", *bank_b).cache_hit);
  // ...while going back to bank_a re-derives again.
  EXPECT_FALSE(cache.Query("S0 - S1", *bank_a).cache_hit);
}

// --- Probe table ---------------------------------------------------------

/// Asserts every probe of `table` equals the paper's tests on the
/// groups' summed counters: union occupancy and singleton per (copy,
/// level), and each column's occupancy bit.
void ExpectTableMatchesGroups(const ProbeTable& table,
                              const std::vector<SketchGroup>& groups) {
  ASSERT_EQ(static_cast<size_t>(table.copies()), groups.size());
  ASSERT_EQ(table.levels(), groups[0][0]->levels());
  for (int copy = 0; copy < table.copies(); ++copy) {
    const SketchGroup& group = groups[static_cast<size_t>(copy)];
    for (int level = 0; level < table.levels(); ++level) {
      const BruteForceUnionBucket truth = EvaluateUnionBucket(group, level);
      ASSERT_EQ(table.NonEmpty(copy, level), truth.nonempty)
          << "copy " << copy << " level " << level;
      ASSERT_EQ(table.UnionSingleton(copy, level), truth.singleton)
          << "copy " << copy << " level " << level;
      for (size_t k = 0; k < group.size(); ++k) {
        ASSERT_EQ(table.Occupied(copy, level, static_cast<int>(k)),
                  truth.occupied[k])
            << "copy " << copy << " level " << level << " column " << k;
      }
    }
  }
}

TEST(ProbeTableTest, MatchesGroupProbesUnderNegativeNetFrequencies) {
  // Sparse banks with churn: some elements carry negative net frequency,
  // and some appear with opposite signs in two streams, so a bucket can
  // be occupied in both while the summed LevelTotal is 0 — the case where
  // the OR of occupancies (NonEmpty) and the summed counters
  // (UnionSingleton) must each keep their own semantics.
  std::mt19937_64 rng(0xC0FFEE);
  const std::vector<std::string> names = {"S0", "S1", "S2", "S3", "S4"};
  std::uniform_int_distribution<uint64_t> pick_element(1, 1u << 30);
  std::uniform_int_distribution<size_t> pick_stream(0, names.size() - 1);
  std::uniform_int_distribution<int> pick_delta(-2, 2);
  int cancelling_cells = 0;
  for (int trial = 0; trial < 6; ++trial) {
    SketchBank bank(SketchFamily(TestParams(), 16, 500 + trial));
    for (const std::string& name : names) bank.AddStream(name);
    for (int i = 0; i < 60; ++i) {
      const uint64_t element = pick_element(rng);
      const int delta = pick_delta(rng);
      if (delta == 0) continue;
      bank.Apply(names[pick_stream(rng)], element, delta);
      if (i % 3 == 0) {
        // The same element with the opposite sign in a random stream
        // (usually another one; the same one cancels it).
        bank.Apply(names[pick_stream(rng)], element, -delta);
      }
    }
    const std::vector<SketchGroup> groups = bank.Groups(names);
    ProbeTable table;
    ASSERT_TRUE(table.Build(bank.Columns(names)));
    ExpectTableMatchesGroups(table, groups);
    for (int copy = 0; copy < table.copies(); ++copy) {
      for (int level = 0; level < table.levels(); ++level) {
        int64_t total = 0;
        for (const TwoLevelHashSketch* x :
             groups[static_cast<size_t>(copy)]) {
          total += x->LevelTotal(level);
        }
        if (table.NonEmpty(copy, level) && total == 0) ++cancelling_cells;
      }
    }

    // And the planner's answers stay bit-identical to the direct
    // estimator over such banks, whether or not estimation succeeds.
    PlanCache cache(PlanCache::Options{});
    for (int q = 0; q < 8; ++q) {
      const ExprPtr expr = RandomExpression(rng, names, 3);
      if (ProvablyEmpty(Canonicalize(*expr))) continue;
      ExpectBitIdentical(cache.Query(*expr, bank),
                         EstimateSetExpression(*expr, bank),
                         expr->ToString() + " (churn)");
    }
  }
  // The workload really exercised the OR-vs-sum distinction.
  EXPECT_GT(cancelling_cells, 0);
}

TEST(ProbeTableTest, MultiWordMasksCoverSeventyStreams) {
  // 70 stream columns need two mask words per (copy, level); an
  // expression over all of them must still match the direct estimator.
  constexpr int kStreams = 70;
  SketchBank bank(SketchFamily(TestParams(), 16, 65));
  std::vector<std::string> names;
  for (int k = 0; k < kStreams; ++k) {
    names.push_back("S" + std::to_string(k));
    bank.AddStream(names.back());
  }
  std::mt19937_64 rng(65);
  std::uniform_int_distribution<uint64_t> pick_element(1, 4000);
  for (int k = 0; k < kStreams; ++k) {
    for (int i = 0; i < 40 + 5 * k; ++i) {
      bank.Apply(names[static_cast<size_t>(k)], pick_element(rng), 1);
    }
  }

  const std::vector<SketchGroup> groups = bank.Groups(names);
  ProbeTable table;
  ASSERT_TRUE(table.Build(bank.Columns(names)));
  ExpectTableMatchesGroups(table, groups);

  std::string all = names[0];
  for (int k = 1; k < kStreams; ++k) {
    all += " | " + names[static_cast<size_t>(k)];
  }
  PlanCache::Options options;
  options.witness.pool_all_levels = true;
  PlanCache cache(options);
  const std::vector<std::string> queries = {
      "(" + all + ") - (S3 & S67)", "(" + all + ") & S69",
      "(S68 | S1) - (S65 & S66)"};
  for (size_t q = 0; q < queries.size(); ++q) {
    const ExprPtr expr = Parse(queries[q]);
    const PlanCache::Result planned = cache.Query(*expr, bank);
    ASSERT_TRUE(planned.ok) << planned.error;
    ExpectBitIdentical(planned,
                       EstimateSetExpression(*expr, bank, options.witness),
                       "query " + std::to_string(q));
  }
}

TEST(ProbeTableTest, MismatchedSeedsAreATypedError) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  auto bank = BankFromDataset(gen.Generate(512, 121), 8, 121);
  // Corrupt one copy of S1 with a sketch from a different family: its
  // coins no longer match copy 3 of S0.
  const SketchFamily other(TestParams(), 8, 999);
  TwoLevelHashSketch foreign(other.seed(3));
  foreign.Update(42, 1);
  (*bank->MutableSketches("S1"))[3] = foreign;

  const std::vector<std::string> names = {"S0", "S1"};
  ProbeTable table;
  EXPECT_FALSE(table.Build(bank->Columns(names)));
  EXPECT_EQ(table.copies(), 0);
  EXPECT_FALSE(EstimateSetExpression(*Parse("S0 - S1"), *bank).ok);

  PlanCache cache(PlanCache::Options{});
  const PlanCache::Result inline_result = cache.Query("S0 - S1", *bank);
  EXPECT_FALSE(inline_result.ok);
  EXPECT_NE(inline_result.error.find("mismatched seeds"), std::string::npos)
      << inline_result.error;

  // The two-phase path reports the same error from FinishQuery.
  PlanCache::Result hit;
  PlanCache::SnapshotRequest request;
  ASSERT_FALSE(cache.BeginQuery(*CompileQuery(Parse("S0 & S1")), *bank, &hit,
                                &request));
  const PlanCache::Result finished = cache.FinishQuery(request);
  EXPECT_FALSE(finished.ok);
  EXPECT_NE(finished.error.find("mismatched seeds"), std::string::npos)
      << finished.error;
}

// --- Cache management ----------------------------------------------------

TEST(PlanCacheTest, LruEvictionBoundsTheCache) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  const auto bank = BankFromDataset(gen.Generate(512, 71), 16, 71);
  PlanCache::Options options;
  options.max_entries = 2;
  PlanCache cache(options);

  ASSERT_TRUE(cache.Query("S0 | S1", *bank).ok);
  ASSERT_TRUE(cache.Query("S0 & S1", *bank).ok);
  ASSERT_TRUE(cache.Query("S0 - S1", *bank).ok);  // Evicts "S0 | S1".
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // The evicted plan recompiles on next use; the survivors stay hot.
  EXPECT_TRUE(cache.Query("S0 - S1", *bank).cache_hit);
  EXPECT_FALSE(cache.Query("S0 | S1", *bank).cache_hit);
  EXPECT_EQ(cache.stats().compiles, 4u);
}

TEST(PlanCacheTest, ZeroCapacityClampsToOneUsableEntry) {
  // max_entries = 0 would otherwise evict the entry FindOrCompile just
  // inserted and leave a dangling pointer; the cache clamps to 1.
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const auto bank = BankFromDataset(gen.Generate(512, 77), 16, 77);
  PlanCache::Options options;
  options.max_entries = 0;
  PlanCache cache(options);

  ASSERT_TRUE(cache.Query("S0 | S1", *bank).ok);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_TRUE(cache.Query("S0 | S1", *bank).cache_hit);
  // A second distinct plan evicts the first (capacity one), never itself.
  ASSERT_TRUE(cache.Query("S0 & S1", *bank).ok);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_TRUE(cache.Query("S0 & S1", *bank).cache_hit);
}

// --- Two-phase (snapshot) queries ----------------------------------------

TEST(PlanCacheTest, TwoPhaseQueryMatchesInlineAndInstallsTheMemo) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  const auto bank = BankFromDataset(gen.Generate(2048, 17), 32, 17);
  PlanCache cache(PlanCache::Options{});
  const ExprPtr expr = Parse("S0 | (S1 & S2)");
  const ExpressionEstimate direct = EstimateSetExpression(*expr, *bank);

  PlanCache::Result hit;
  PlanCache::SnapshotRequest request;
  ASSERT_FALSE(
      cache.BeginQuery(*CompileQuery(expr), *bank, &hit, &request));
  EXPECT_EQ(request.bank_id, bank->bank_id());
  ASSERT_EQ(request.epochs.size(), 3u);
  EXPECT_EQ(request.table.copies(), 32);
  EXPECT_TRUE(request.error.empty()) << request.error;

  const PlanCache::Result finished = cache.FinishQuery(request);
  ExpectBitIdentical(finished, direct, "two-phase cold");
  EXPECT_EQ(cache.stats().misses, 1u);

  // The finished result is installed: the next Begin is a pure hit, and
  // an equivalent spelling shares it.
  ASSERT_TRUE(cache.BeginQuery(*CompileQuery(expr), *bank, &hit, &request));
  ExpectBitIdentical(hit, direct, "two-phase hot");
  EXPECT_TRUE(hit.cache_hit);
  ASSERT_TRUE(cache.BeginQuery(*CompileQuery(Parse("(S2 & S1) | S0")), *bank,
                               &hit, &request));
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(PlanCacheTest, StaleSnapshotAnswersItselfWithoutRegressingNewerMemo) {
  // A FinishQuery racing behind an ingest + newer-epoch evaluation must
  // return its own (point-in-time correct) answer but leave the newer
  // memo installed: epochs only move forward, so the older snapshot can
  // never satisfy a future freshness check.
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  auto bank = BankFromDataset(gen.Generate(2048, 27), 32, 27);
  PlanCache cache(PlanCache::Options{});
  const ExprPtr expr = Parse("S0 | S1");
  const ExpressionEstimate old_direct = EstimateSetExpression(*expr, *bank);

  PlanCache::Result hit;
  PlanCache::SnapshotRequest request;
  ASSERT_FALSE(
      cache.BeginQuery(*CompileQuery(expr), *bank, &hit, &request));

  // Ingest + inline evaluation land first (newer epochs).
  for (uint64_t e = 0; e < 512; ++e) bank->Apply("S0", 1u << 20 | e, 1);
  const PlanCache::Result newer = cache.Query(*expr, *bank);
  ASSERT_TRUE(newer.ok);

  // The stale snapshot still answers its own point in time...
  const PlanCache::Result stale = cache.FinishQuery(request);
  ExpectBitIdentical(stale, old_direct, "stale snapshot");

  // ...and the newer memo survives: the next query is a hit on it.
  const PlanCache::Result after = cache.Query(*expr, *bank);
  ASSERT_TRUE(after.ok);
  EXPECT_TRUE(after.cache_hit);
  EXPECT_EQ(after.estimate, newer.estimate);
}

TEST(PlanCacheTest, SameEpochFinishReusesTheConcurrentlyInstalledAnswer) {
  // Two cold queries of one expression race: whichever FinishQuery lands
  // second finds the identical-epoch memo already installed and reuses it
  // instead of re-evaluating.
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const auto bank = BankFromDataset(gen.Generate(1024, 37), 32, 37);
  PlanCache cache(PlanCache::Options{});
  const ExprPtr expr = Parse("S0 - S1");

  PlanCache::Result hit;
  PlanCache::SnapshotRequest first_request, second_request;
  const PlanCache::Compiled query = CompileQuery(expr);
  ASSERT_FALSE(cache.BeginQuery(*query, *bank, &hit, &first_request));
  ASSERT_FALSE(cache.BeginQuery(*query, *bank, &hit, &second_request));

  const PlanCache::Result first = cache.FinishQuery(first_request);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.cache_hit);
  const uint64_t builds = cache.stats().merge_builds;
  const PlanCache::Result second = cache.FinishQuery(second_request);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit);  // Reused, nothing rebuilt.
  EXPECT_EQ(cache.stats().merge_builds, builds);
  EXPECT_EQ(second.estimate, first.estimate);
}

TEST(PlanCacheTest, ClearDropsPlansButKeepsCounters) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const auto bank = BankFromDataset(gen.Generate(512, 81), 16, 81);
  PlanCache cache(PlanCache::Options{});
  ASSERT_TRUE(cache.Query("S0 | S1", *bank).ok);
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().compiles, 1u);  // History retained.
  EXPECT_FALSE(cache.Query("S0 | S1", *bank).cache_hit);
  EXPECT_EQ(cache.stats().compiles, 2u);
}

// --- Error and degenerate paths -----------------------------------------

TEST(PlanCacheTest, UnknownStreamIsATypedErrorNotACrash) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const auto bank = BankFromDataset(gen.Generate(256, 91), 16, 91);
  PlanCache cache(PlanCache::Options{});
  const PlanCache::Result result = cache.Query("S0 & Missing", *bank);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown stream"), std::string::npos)
      << result.error;
  // The error is not memoized as an answer: registering the stream later
  // makes the same plan answerable.
  bank->AddStream("Missing");
  EXPECT_TRUE(cache.Query("S0 & Missing", *bank).ok);
}

TEST(PlanCacheTest, ParseFailuresSurfaceTypedErrors) {
  SketchBank bank(SketchFamily(TestParams(), 8, 3));
  PlanCache cache(PlanCache::Options{});
  const PlanCache::Result result = cache.Query("(S0 &", bank);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("position"), std::string::npos)
      << result.error;
  EXPECT_EQ(cache.stats().entries, 0u);  // Nothing was compiled.
}

TEST(PlanCacheTest, ProvablyEmptyQueriesShortCircuitToExactZero) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const auto bank = BankFromDataset(gen.Generate(512, 101), 16, 101);
  PlanCache cache(PlanCache::Options{});
  for (const std::string text : {"S0 - S0", "(S0 & S1) - S0"}) {
    const PlanCache::Result result = cache.Query(text, *bank);
    EXPECT_TRUE(result.ok) << text;
    EXPECT_EQ(result.estimate, 0.0) << text;
    EXPECT_TRUE(result.cache_hit) << text;  // Answered without a plan.
  }
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().compiles, 0u);
}

// --- Text memo -----------------------------------------------------------

TEST(PlanCacheTextMemoTest, RepeatedTextCompilesOnceAndHits) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  const auto bank = BankFromDataset(gen.Generate(1024, 131), 32, 131);
  PlanCache cache(PlanCache::Options{});
  const std::string text = "(S0 - S1) | S2";

  const PlanCache::Compiled compiled = cache.Compile(text);
  ASSERT_TRUE(compiled->ok()) << compiled->error;
  EXPECT_EQ(compiled->display, "((S0 - S1) | S2)");
  EXPECT_EQ(compiled->streams, (std::vector<std::string>{"S0", "S1", "S2"}));
  EXPECT_FALSE(compiled->provably_empty);

  const PlanCache::Result cold = cache.Query(text, *bank);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  const PlanCache::Result hot = cache.Query(text, *bank);
  EXPECT_TRUE(hot.cache_hit);
  ExpectBitIdentical(hot, EstimateSetExpression(*Parse(text), *bank), text);
  // One compilation served all three calls.
  EXPECT_EQ(cache.Compile(text), compiled);
  EXPECT_EQ(cache.stats().compiles, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTextMemoTest, EquivalentTextsShareAnEntryButKeepTheirDisplay) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  const auto bank = BankFromDataset(gen.Generate(1024, 137), 32, 137);
  PlanCache cache(PlanCache::Options{});

  const PlanCache::Compiled a = cache.Compile("S0 | (S1 & S2)");
  const PlanCache::Compiled b = cache.Compile("(S2 & S1) | S0");
  EXPECT_NE(a, b);
  EXPECT_EQ(a->canonical, b->canonical);
  EXPECT_EQ(a->display, "(S0 | (S1 & S2))");
  EXPECT_EQ(b->display, "((S2 & S1) | S0)");
  EXPECT_EQ(b->streams, (std::vector<std::string>{"S2", "S1", "S0"}));

  const PlanCache::Result first = cache.Query(*a, *bank);
  const PlanCache::Result second = cache.Query(*b, *bank);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.estimate, first.estimate);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().compiles, 1u);
}

TEST(PlanCacheTextMemoTest, EpochBumpTurnsTheNextHitIntoAReprobe) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  auto bank = BankFromDataset(gen.Generate(1024, 139), 32, 139);
  PlanCache cache(PlanCache::Options{});
  const std::string text = "S0 & (S1 | S2)";
  ASSERT_TRUE(cache.Query(text, *bank).ok);
  ASSERT_TRUE(cache.Query(text, *bank).cache_hit);

  bank->Apply("S2", 4242u, 1);
  const PlanCache::Result reprobed = cache.Query(text, *bank);
  EXPECT_FALSE(reprobed.cache_hit);
  ExpectBitIdentical(reprobed, EstimateSetExpression(*Parse(text), *bank),
                     "after S2 ingest");
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().merge_builds, 2u);
  EXPECT_TRUE(cache.Query(text, *bank).cache_hit);
}

TEST(PlanCacheTextMemoTest, UnknownStreamAnswersOnceTheStreamExists) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.5));
  const auto bank = BankFromDataset(gen.Generate(512, 149), 16, 149);
  PlanCache cache(PlanCache::Options{});
  const std::string text = "S0 - Later";
  const PlanCache::Result unknown = cache.Query(text, *bank);
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.error, "unknown stream in expression");

  // The memo holds only the text's compilation; the unknown stream is
  // checked per query.
  bank->AddStream("Later");
  bank->Apply("Later", 7u, 1);
  const PlanCache::Result answered = cache.Query(text, *bank);
  ASSERT_TRUE(answered.ok) << answered.error;
  ExpectBitIdentical(answered, EstimateSetExpression(*Parse(text), *bank),
                     text);
  EXPECT_EQ(cache.stats().compiles, 1u);
}

TEST(PlanCacheTextMemoTest, StreamCreatedUnderABackendLaterRoutesToIt) {
  SketchBank bank(SketchFamily(TestParams(), 16, 151), /*backend_size=*/512);
  PlanCache cache(PlanCache::Options{});
  const std::string text = "T | U";
  EXPECT_FALSE(cache.Query(text, bank).ok);  // Neither stream exists yet.

  ASSERT_TRUE(bank.AddStreamWithBackend("T", SketchBackendId::kThetaKmv,
                                        bank.backend_options()));
  ASSERT_TRUE(bank.AddStreamWithBackend("U", SketchBackendId::kThetaKmv,
                                        bank.backend_options()));
  for (uint64_t e = 0; e < 300; ++e) {
    bank.MutableBackendSketch(e % 2 == 0 ? "T" : "U")->Update(e, 1);
  }
  const PlanCache::Result routed = cache.Query(text, bank);
  ASSERT_TRUE(routed.ok) << routed.error;
  EXPECT_EQ(routed.estimate, 300.0);  // Below k: theta counts exactly.
  EXPECT_EQ(cache.stats().backend_queries, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCacheTextMemoTest, EvictionDropsTheTextsWithTheirEntry) {
  VennPartitionGenerator gen(3, UniformRegionProbs(3));
  const auto bank = BankFromDataset(gen.Generate(512, 157), 16, 157);
  PlanCache::Options options;
  options.max_entries = 3;
  PlanCache cache(options);

  // Two spellings of one plan, then three plans compiled outside the
  // text memo: the first plan's entry is evicted, and both of its texts
  // go with it although the texts bound still had room.
  const PlanCache::Compiled a = cache.Compile("S0 | S1");
  const PlanCache::Compiled b = cache.Compile("S1 | S0");
  ASSERT_TRUE(cache.Query(*a, *bank).ok);
  ASSERT_TRUE(cache.Query(*b, *bank).cache_hit);
  for (const std::string text : {"S0 & S1", "S0 - S2", "S2 - S1"}) {
    ASSERT_TRUE(cache.Query(*Parse(text), *bank).ok) << text;
  }
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_NE(cache.Compile("S0 | S1"), a);
  EXPECT_NE(cache.Compile("S1 | S0"), b);

  // The texts bound holds on its own: provably-empty texts build no
  // entry, and each new one pushes out the least recently used text.
  const PlanCache::Compiled kept = cache.Compile("S0 & S1");
  for (const std::string text : {"S0 - S0", "S1 - S1", "S2 - S2"}) {
    EXPECT_TRUE(cache.Query(text, *bank).ok) << text;
  }
  EXPECT_NE(cache.Compile("S0 & S1"), kept);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(PlanCacheTextMemoTest, ParseFailuresAreRememberedWithoutAnEntry) {
  SketchBank bank(SketchFamily(TestParams(), 8, 163));
  PlanCache cache(PlanCache::Options{});
  const PlanCache::Compiled bad = cache.Compile("(S0 &");
  EXPECT_FALSE(bad->ok());
  EXPECT_NE(bad->error.find("position"), std::string::npos) << bad->error;
  EXPECT_EQ(cache.Compile("(S0 &"), bad);
  EXPECT_EQ(cache.Query("(S0 &", bank).error, bad->error);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// --- Engine wiring -------------------------------------------------------

TEST(PlanCacheTest, EngineAnswersRunThroughThePlanCache) {
  StreamEngine::Options options;
  options.params = TestParams();
  options.copies = 32;
  options.seed = 7;
  StreamEngine engine(options);
  const StreamEngine::QueryHandle handle =
      engine.RegisterQuery("(A | B) & C");
  ASSERT_TRUE(handle.ok()) << handle.error;
  for (uint64_t e = 1; e <= 600; ++e) {
    engine.Ingest("A", e, 1);
    if (e % 2 == 0) engine.Ingest("B", e, 1);
    if (e % 3 == 0) engine.Ingest("C", e, 1);
  }

  const StreamEngine::Answer first = engine.AnswerQuery(handle.id);
  ASSERT_TRUE(first.ok);
  const PlanCache::Stats after_first = engine.plan_cache_stats();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.hits, 0u);

  // Same synopsis, same question: a pure cache hit with the same answer.
  const StreamEngine::Answer second = engine.AnswerQuery(handle.id);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.estimate, first.estimate);
  EXPECT_EQ(engine.plan_cache_stats().hits, 1u);

  // Ingest invalidates; the answer re-derives against the new state and
  // matches the direct estimator bit for bit.
  engine.Ingest("A", 999999u, 1);
  const StreamEngine::Answer third = engine.AnswerQuery(handle.id);
  ASSERT_TRUE(third.ok);
  EXPECT_EQ(engine.plan_cache_stats().invalidations, 1u);
  const ExpressionEstimate direct =
      EstimateSetExpression(*Parse("(A | B) & C"), engine.bank());
  EXPECT_EQ(third.estimate, direct.expression.estimate);
}

TEST(PlanCacheTest, RestoredEngineStartsWithAFreshPlanCache) {
  StreamEngine::Options options;
  options.params = TestParams();
  options.copies = 32;
  options.seed = 17;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.RegisterQuery("A - B").ok());
  for (uint64_t e = 1; e <= 400; ++e) {
    engine.Ingest("A", e, 1);
    if (e % 2 == 0) engine.Ingest("B", e, 1);
  }
  const StreamEngine::Answer before = engine.AnswerQuery(0);
  ASSERT_TRUE(before.ok);
  EXPECT_GE(engine.plan_cache_stats().misses, 1u);

  const std::unique_ptr<StreamEngine> restored =
      StreamEngine::LoadSnapshot(engine.SaveSnapshot());
  ASSERT_NE(restored, nullptr);
  // Fresh cache, fresh bank identity: no counter or memo survives the
  // snapshot boundary, so a stale plan can never answer post-restore.
  const PlanCache::Stats fresh = restored->plan_cache_stats();
  EXPECT_EQ(fresh.hits, 0u);
  EXPECT_EQ(fresh.misses, 0u);
  EXPECT_EQ(fresh.entries, 0u);
  const StreamEngine::Answer after = restored->AnswerQuery(0);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.estimate, before.estimate);  // Same synopsis bytes.
  EXPECT_FALSE(restored->plan_cache_stats().hits > 0);
}

TEST(PlanCacheTest, BackendQueriesRouteAroundTheMemoAndCountStats) {
  SketchBank bank(SketchFamily(TestParams(), 32, 99), /*backend_size=*/512);
  ASSERT_TRUE(bank.AddStreamWithBackend("T", SketchBackendId::kThetaKmv,
                                        bank.backend_options()));
  ASSERT_TRUE(bank.AddStreamWithBackend("U", SketchBackendId::kThetaKmv,
                                        bank.backend_options()));
  ASSERT_TRUE(bank.AddStream("D"));
  for (uint64_t e = 0; e < 3000; ++e) {
    bank.MutableBackendSketch("T")->Update(e, 1);
    if (e < 1000) bank.MutableBackendSketch("U")->Update(e, 1);
    bank.Apply("D", e, 1);
  }

  PlanCache cache(PlanCache::Options{});
  const ExprPtr expr = Parse("T | U");
  const PlanCache::Result first = cache.Query(*expr, bank);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cache_hit);
  // |T u U| = 3000 (U is a subset); theta at k=512 targets ~4.4% RSE.
  EXPECT_NEAR(first.estimate, 3000.0, 3000.0 * 0.2);
  EXPECT_LE(first.interval.lo, first.estimate);
  EXPECT_GE(first.interval.hi, first.estimate);
  EXPECT_EQ(cache.stats().backend_queries, 1u);

  // No memoization: a repeat re-evaluates inline (the synopsis is tiny),
  // so the backend counter keeps climbing and hits never do.
  const PlanCache::Result second = cache.Query(*expr, bank);
  ASSERT_TRUE(second.ok);
  EXPECT_DOUBLE_EQ(second.estimate, first.estimate);
  EXPECT_EQ(cache.stats().backend_queries, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);

  // The two-phase protocol answers backend queries entirely in phase 1.
  PlanCache::Result hit;
  PlanCache::SnapshotRequest request;
  EXPECT_TRUE(cache.BeginQuery(*CompileQuery(expr), bank, &hit, &request));
  ASSERT_TRUE(hit.ok);
  EXPECT_DOUBLE_EQ(hit.estimate, first.estimate);
  EXPECT_EQ(cache.stats().backend_queries, 3u);

  // Mixing a default-backend stream into a backend expression is a typed
  // refusal, not a crash or a silent wrong answer.
  const PlanCache::Result mixed = cache.Query(*Parse("T | D"), bank);
  EXPECT_FALSE(mixed.ok);
  EXPECT_NE(mixed.error.find("mixed sketch backends"), std::string::npos);

  // Unknown streams stay a typed error on the backend path too.
  const PlanCache::Result unknown = cache.Query(*Parse("T | Zz"), bank);
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unknown stream"), std::string::npos);

  // Default-backend queries are untouched by any of this: D still goes
  // through the memo and lands a cache entry.
  const PlanCache::Result d1 = cache.Query(*Parse("D"), bank);
  ASSERT_TRUE(d1.ok) << d1.error;
  const PlanCache::Result d2 = cache.Query(*Parse("D"), bank);
  ASSERT_TRUE(d2.ok);
  EXPECT_TRUE(d2.cache_hit);
  EXPECT_EQ(d2.estimate, d1.estimate);
}

TEST(PlanCacheTest, BackendQueryInvalidatesNothingAndFollowsEpochs) {
  SketchBank bank(SketchFamily(TestParams(), 32, 7), /*backend_size=*/256);
  ASSERT_TRUE(bank.AddStreamWithBackend("S", SketchBackendId::kSetSketch,
                                        bank.backend_options()));
  for (uint64_t e = 0; e < 2000; ++e) {
    bank.MutableBackendSketch("S")->Update(e, 1);
  }
  PlanCache cache(PlanCache::Options{});
  const ExprPtr expr = Parse("S");
  const PlanCache::Result before = cache.Query(*expr, bank);
  ASSERT_TRUE(before.ok) << before.error;

  // Deletions flow straight through: the next query sees the shrunken
  // stream with no epoch/invalidiation machinery in between.
  for (uint64_t e = 1000; e < 2000; ++e) {
    bank.MutableBackendSketch("S")->Update(e, -1);
  }
  const PlanCache::Result after = cache.Query(*expr, bank);
  ASSERT_TRUE(after.ok);
  EXPECT_NEAR(after.estimate, 1000.0, 1000.0 * 0.2);
  EXPECT_LT(after.estimate, before.estimate);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

}  // namespace
}  // namespace setsketch
