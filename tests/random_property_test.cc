// Randomized property tests: random expressions over random datasets must
// (a) estimate within a calibrated envelope of the exact answer, and
// (b) agree between the estimator pipeline and the exact evaluator's
// semantics; plus linearity fuzzing of the sketch under random legal
// update interleavings. All seeds fixed — deterministic.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/set_expression_estimator.h"
#include "expr/canonical.h"
#include "expr/exact_evaluator.h"
#include "hash/prng.h"
#include "query/stream_engine.h"
#include "stream/exact_set_store.h"
#include "stream/stream_generator.h"
#include "test_helpers.h"
#include "util/stats.h"

namespace setsketch {
namespace {

// Random expression over streams S0..S{n-1}, depth-bounded.
ExprPtr RandomExpression(Xoshiro256StarStar* rng, int num_streams,
                         int depth) {
  if (depth == 0 || rng->NextBelow(4) == 0) {
    return Expression::Stream(
        "S" + std::to_string(rng->NextBelow(
                  static_cast<uint64_t>(num_streams))));
  }
  ExprPtr left = RandomExpression(rng, num_streams, depth - 1);
  ExprPtr right = RandomExpression(rng, num_streams, depth - 1);
  switch (rng->NextBelow(3)) {
    case 0:
      return Expression::Union(std::move(left), std::move(right));
    case 1:
      return Expression::Intersect(std::move(left), std::move(right));
    default:
      return Expression::Difference(std::move(left), std::move(right));
  }
}

// Random region probabilities over n streams (non-degenerate).
std::vector<double> RandomRegionProbs(Xoshiro256StarStar* rng, int n) {
  std::vector<double> probs(1ULL << n, 0.0);
  double total = 0;
  for (size_t mask = 1; mask < probs.size(); ++mask) {
    probs[mask] = 0.05 + rng->NextDouble();
    total += probs[mask];
  }
  for (double& p : probs) p /= total;
  return probs;
}

class RandomExpressionTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomExpressionTest, EstimateWithinEnvelopeOfExact) {
  const uint64_t trial = static_cast<uint64_t>(GetParam());
  Xoshiro256StarStar rng(0xABCD0000 + trial);
  const int num_streams = 3;
  const ExprPtr expr = RandomExpression(&rng, num_streams, 2);

  VennPartitionGenerator gen(num_streams,
                             RandomRegionProbs(&rng, num_streams));
  const PartitionedDataset data = gen.Generate(4096, 0xBEEF + trial);
  const auto bank = BankFromDataset(data, 192, 0xF00 + trial * 17);

  // Ground truth via region masks (cross-checks generator + analysis).
  const std::vector<std::string> order = DatasetStreamNames(num_streams);
  int64_t exact = 0;
  for (uint32_t region : ResultRegions(*expr, order).masks) {
    exact += static_cast<int64_t>(data.regions[region].size());
  }

  WitnessOptions options;
  options.pool_all_levels = true;
  options.mle_union = true;
  const ExpressionEstimate estimate =
      EstimateSetExpression(*expr, *bank, options);
  ASSERT_TRUE(estimate.ok) << expr->ToString();

  // Envelope: generous but meaningful — half the exact value plus a
  // union-scaled noise floor.
  const double bound = 0.5 * static_cast<double>(exact) +
                       0.08 * static_cast<double>(data.UnionSize()) + 10;
  EXPECT_NEAR(estimate.expression.estimate, static_cast<double>(exact),
              bound)
      << expr->ToString() << " exact=" << exact;
}

INSTANTIATE_TEST_SUITE_P(Trials, RandomExpressionTest,
                         ::testing::Range(0, 12));

// Exact evaluator vs region analysis: two independent paths to |E| must
// agree exactly for random expressions and datasets.
class SemanticsCrossCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(SemanticsCrossCheckTest, ExactEvaluatorMatchesRegionCount) {
  const uint64_t trial = static_cast<uint64_t>(GetParam());
  Xoshiro256StarStar rng(0x5EED00 + trial * 31);
  const int num_streams = 3;
  const ExprPtr expr = RandomExpression(&rng, num_streams, 3);

  VennPartitionGenerator gen(num_streams,
                             RandomRegionProbs(&rng, num_streams));
  const PartitionedDataset data = gen.Generate(1024, 0xCAFE + trial);

  ExactSetStore store(num_streams);
  store.ApplyAll(data.ToInsertUpdates(trial));
  StreamNameMap names;
  const std::vector<std::string> order = DatasetStreamNames(num_streams);
  for (size_t i = 0; i < order.size(); ++i) {
    names.emplace(order[i], static_cast<StreamId>(i));
  }

  int64_t by_regions = 0;
  for (uint32_t region : ResultRegions(*expr, order).masks) {
    by_regions += static_cast<int64_t>(data.regions[region].size());
  }
  EXPECT_EQ(ExactCardinality(*expr, store, names), by_regions)
      << expr->ToString();
}

INSTANTIATE_TEST_SUITE_P(Trials, SemanticsCrossCheckTest,
                         ::testing::Range(0, 20));

// Linearity fuzz: arbitrary legal insert/delete interleavings leave the
// sketch equal to the net multiset's sketch.
class LinearityFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(LinearityFuzzTest, SketchEqualsNetMultisetSketch) {
  const uint64_t trial = static_cast<uint64_t>(GetParam());
  Xoshiro256StarStar rng(0xFACE00 + trial * 13);
  const auto seed =
      std::make_shared<const SketchSeed>(TestParams(), 0xD00D + trial);

  // Random legal update sequence over a small element domain.
  ExactSetStore store(1);
  TwoLevelHashSketch incremental(seed);
  for (int step = 0; step < 3000; ++step) {
    const uint64_t element = rng.NextBelow(64) * 2654435761ULL;
    int64_t delta;
    if (rng.NextBelow(3) == 0) {
      // Deletion of up to the current net frequency (always legal).
      const int64_t freq = store.NetFrequency(0, element);
      if (freq == 0) continue;
      delta = -static_cast<int64_t>(1 + rng.NextBelow(
                                            static_cast<uint64_t>(freq)));
    } else {
      delta = static_cast<int64_t>(1 + rng.NextBelow(4));
    }
    ASSERT_TRUE(store.Apply(Update{0, element, delta}));
    incremental.Update(element, delta);
  }

  // Rebuild from the net multiset only.
  TwoLevelHashSketch from_net(seed);
  store.ForEachDistinct(0, [&](uint64_t element, int64_t freq) {
    from_net.Update(element, freq);
  });
  EXPECT_TRUE(incremental == from_net);
}

INSTANTIATE_TEST_SUITE_P(Trials, LinearityFuzzTest,
                         ::testing::Range(0, 10));

TEST(EngineShortCircuitTest, ProvablyEmptyQueriesAnswerZero) {
  StreamEngine::Options options;
  options.params = TestParams();
  options.copies = 8;  // Tiny: the answer must not depend on sampling.
  options.seed = 5;
  StreamEngine engine(options);
  const auto q = engine.RegisterQuery("(A & B) - A");
  ASSERT_TRUE(q.ok());
  for (int e = 0; e < 1000; ++e) {
    engine.Ingest("A", static_cast<uint64_t>(e), 1);
    engine.Ingest("B", static_cast<uint64_t>(e), 1);
  }
  const auto answer = engine.AnswerQuery(q.id);
  ASSERT_TRUE(answer.ok);
  EXPECT_DOUBLE_EQ(answer.estimate, 0.0);
}

}  // namespace
}  // namespace setsketch
