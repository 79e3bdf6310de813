// DELETE experiment: the paper's motivating robustness claim (Sections 1,
// 3.1). 2-level hash sketches are *impervious* to deletions — the synopsis
// after an update stream equals the synopsis of the net multiset — while
// sampling-style synopses (theta/KMV samples, min-wise signatures)
// deplete or go stale.
//
// Protocol: fix a 2-stream dataset with |A n B| = u/4; wrap the insert
// stream in increasing amounts of *net-zero churn* (transient elements
// inserted then fully deleted). Every synopsis sees the same update
// sequence; the net sets never change, so a deletion-robust estimator's
// error must stay flat as churn grows.
//
// Expected shape: the 2-level hash sketch error is constant (bit-identical
// sketches, in fact) — the exit status enforces it. The theta/KMV column
// is a deletion-aware ThetaKmvSketch per stream estimated through
// EstimateWithBackend: its estimate stays unbiased, but its sample — the
// "theta sample (A+B)" column — shrinks as transients force theta down
// and then leave, which is the depletion Section 1 describes. MIP cannot apply a
// deletion at all and degrades.

#include <cstdint>
#include <iostream>
#include <vector>

#include "baselines/minwise_sketch.h"
#include "bench_common.h"
#include "core/set_intersection_estimator.h"
#include "core/set_union_estimator.h"
#include "core/sketch_bank.h"
#include "core/theta_sketch.h"
#include "expr/parser.h"
#include "stream/stream_generator.h"
#include "util/csv_writer.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace setsketch {
namespace {

constexpr int kCopies = 256;
constexpr int kKmvK = 1024;
constexpr int kMinwiseK = 1024;

struct TrialResult {
  double tlhs_error = 0;
  double kmv_error = 0;
  double mip_error = 0;
  size_t kmv_sample = 0;
  int64_t mip_ignored = 0;
};

TrialResult RunTrial(const Expression& intersection, int64_t u,
                     double churn_fraction, int max_multiplicity,
                     uint64_t seed) {
  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.25));
  const PartitionedDataset data = gen.Generate(u, seed);
  const double exact =
      static_cast<double>(data.regions[3].size());  // |A n B|.
  const double exact_union = static_cast<double>(data.UnionSize());

  std::vector<Update> updates = data.ToInsertUpdates(seed ^ 1);
  if (churn_fraction > 0 || max_multiplicity > 1) {
    ChurnOptions churn;
    churn.max_multiplicity = max_multiplicity;
    churn.transient_fraction = churn_fraction;
    churn.seed = seed ^ 2;
    updates = InjectChurn(updates, churn);
  }

  SketchBank bank(SketchFamily(bench::FigureParams(), kCopies, seed ^ 3));
  bank.AddStream("A");
  bank.AddStream("B");
  const BackendOptions kmv_options{kKmvK, seed ^ 4};
  ThetaKmvSketch kmv_a(kmv_options), kmv_b(kmv_options);
  MinwiseSketch mip_a(kMinwiseK, seed ^ 5), mip_b(kMinwiseK, seed ^ 5);

  const std::vector<std::string> names = {"A", "B"};
  for (const Update& update : updates) {
    const std::string& name = names[update.stream];
    bank.Apply(name, update.element, update.delta);
    (update.stream == 0 ? kmv_a : kmv_b).Update(update.element, update.delta);
    MinwiseSketch& mip = update.stream == 0 ? mip_a : mip_b;
    for (int64_t i = 0; i < update.delta; ++i) mip.Insert(update.element);
    for (int64_t i = 0; i < -update.delta; ++i) mip.Delete(update.element);
  }

  TrialResult result;
  const auto pairs = bank.Groups({"A", "B"});
  const UnionEstimate ue = EstimateSetUnion(pairs, 0.5);
  WitnessOptions wopts;
  wopts.pool_all_levels = true;
  const WitnessEstimate tlhs =
      EstimateSetIntersection(pairs, ue.estimate, wopts);
  result.tlhs_error =
      tlhs.ok ? RelativeError(tlhs.estimate, exact) : 1.0;
  const BackendEstimate kmv = EstimateWithBackend(
      intersection,
      [&kmv_a, &kmv_b](const std::string& name) -> const DistinctSketch* {
        return name == "A" ? &kmv_a : &kmv_b;
      });
  result.kmv_error = kmv.ok ? RelativeError(kmv.estimate, exact) : 1.0;
  // MIP gets the *exact* union size for free (generous to the baseline);
  // its Jaccard is what churn corrupts.
  result.mip_error = RelativeError(
      MinwiseSketch::EstimateIntersection(mip_a, mip_b, exact_union),
      exact);
  result.kmv_sample = kmv_a.SampleSize() + kmv_b.SampleSize();
  result.mip_ignored = mip_a.ignored_deletions() + mip_b.ignored_deletions();
  return result;
}

int Run() {
  const bench::BenchScale scale = bench::ReadBenchScale();
  // Deletion-heavy streams are expensive for the baselines; use a quarter
  // of the figure workload.
  const int64_t u = std::max<int64_t>(1024, scale.union_size / 4);
  const ParseResult intersection = ParseExpression("A & B");
  if (intersection.expression == nullptr) {
    std::cerr << "internal: cannot parse A & B\n";
    return 1;
  }

  std::cout << "=== DELETE: estimator robustness under net-zero churn ===\n"
            << "|A n B| = u/4, u = " << u << ", trials = " << scale.trials
            << "; churn adds transient elements inserted then fully"
            << " deleted\n"
            << "2-level hash sketches: " << kCopies
            << " copies; theta/KMV k = " << kKmvK << "; MIP k = " << kMinwiseK
            << "\n\n";

  CsvWriter csv("deletion_robustness.csv",
                {"max_multiplicity", "churn_fraction", "tlhs_error_pct",
                 "kmv_error_pct", "mip_error_pct", "kmv_sample_size",
                 "mip_ignored_deletes"});

  // Pure transient churn (net multiplicities stay at 1) — the minimal
  // deletion workload. A second sweep adds multiset churn (elements
  // inserted up to 3x, surplus deleted), which additionally defeats
  // samples that cannot count net frequencies.
  bool flat = true;
  for (int max_multiplicity : {1, 3}) {
    std::cout << (max_multiplicity == 1
                      ? "--- pure transient churn ---\n"
                      : "--- multiset churn (multiplicity <= 3) ---\n");
    TablePrinter table({"churn/element", "2LHS err", "theta/KMV err",
                        "MIP err", "theta sample (A+B)",
                        "MIP ignored deletes"});
    double churn_free_tlhs_pct = 0;
    for (double churn : {0.0, 0.5, 1.0, 2.0, 4.0}) {
      std::vector<double> tlhs, kmv, mip;
      double sample = 0, ignored = 0;
      for (int t = 0; t < scale.trials; ++t) {
        const TrialResult r =
            RunTrial(*intersection.expression, u, churn, max_multiplicity,
                     31337 + static_cast<uint64_t>(t) * 97);
        tlhs.push_back(r.tlhs_error);
        kmv.push_back(r.kmv_error);
        mip.push_back(r.mip_error);
        sample += static_cast<double>(r.kmv_sample);
        ignored += static_cast<double>(r.mip_ignored);
      }
      const double tlhs_pct =
          TrimmedMeanDropHighest(tlhs, bench::kTrimFraction) * 100;
      const double kmv_pct =
          TrimmedMeanDropHighest(kmv, bench::kTrimFraction) * 100;
      const double mip_pct =
          TrimmedMeanDropHighest(mip, bench::kTrimFraction) * 100;
      // The churned sketches are bit-identical to the churn-free ones, so
      // the 2LHS error must repeat exactly down the sweep.
      if (churn == 0.0) churn_free_tlhs_pct = tlhs_pct;
      flat = flat && tlhs_pct == churn_free_tlhs_pct;
      table.AddRow(std::vector<std::string>{
          FormatDouble(churn, 2), FormatDouble(tlhs_pct, 2) + "%",
          FormatDouble(kmv_pct, 2) + "%", FormatDouble(mip_pct, 2) + "%",
          FormatDouble(sample / scale.trials, 0),
          FormatDouble(ignored / scale.trials, 0)});
      csv.AddRow(std::vector<double>{static_cast<double>(max_multiplicity),
                                     churn, tlhs_pct, kmv_pct, mip_pct,
                                     sample / scale.trials,
                                     ignored / scale.trials});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  std::cout << "csv written to deletion_robustness.csv\n";
  if (!flat) {
    std::cerr << "FAIL: the 2LHS error changed with churn; its sketches"
              << " must be bit-identical to the churn-free ones\n";
    return 1;
  }
  std::cout << "2LHS error identical at every churn level (bit-identical"
            << " sketches); the theta sample shrinks with churn, MIP"
            << " degrades\n\n";
  return 0;
}

}  // namespace
}  // namespace setsketch

int main() { return setsketch::Run(); }
