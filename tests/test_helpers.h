// Shared fixtures for estimator tests: build aligned sketch banks over
// controlled synthetic datasets.

#ifndef SETSKETCH_TESTS_TEST_HELPERS_H_
#define SETSKETCH_TESTS_TEST_HELPERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sketch_bank.h"
#include "stream/stream_generator.h"

namespace setsketch {

inline SketchParams TestParams(int levels = 24, int s = 16) {
  SketchParams params;
  params.levels = levels;
  params.num_second_level = s;
  return params;
}

/// Builds a SketchBank with `copies` aligned sketches per stream over the
/// regions of `data` (streams named "S0", "S1", ...).
inline std::unique_ptr<SketchBank> BankFromDataset(
    const PartitionedDataset& data, int copies, uint64_t master_seed,
    SketchParams params = TestParams()) {
  auto bank = std::make_unique<SketchBank>(
      SketchFamily(params, copies, master_seed));
  std::vector<std::string> names;
  for (int s = 0; s < data.num_streams; ++s) {
    names.push_back("S" + std::to_string(s));
    bank->AddStream(names.back());
  }
  for (size_t mask = 1; mask < data.regions.size(); ++mask) {
    for (uint64_t e : data.regions[mask]) {
      for (int s = 0; s < data.num_streams; ++s) {
        if ((mask >> s) & 1) bank->Apply(names[static_cast<size_t>(s)], e, 1);
      }
    }
  }
  return bank;
}

/// Stream names "S0".."S{n-1}" for a dataset.
/// The paper's union-bucket tests read cell by cell from the group's
/// summed counters: an independent oracle for the row-summary probes.
struct BruteForceUnionBucket {
  bool nonempty = false;
  bool singleton = false;
  std::vector<bool> occupied;  ///< Per column of the group.
};

inline BruteForceUnionBucket EvaluateUnionBucket(const SketchGroup& group,
                                                 int level) {
  BruteForceUnionBucket result;
  int64_t total = 0;
  for (const TwoLevelHashSketch* x : group) {
    const int64_t column_total = x->Count(level, 0, 0) + x->Count(level, 0, 1);
    result.occupied.push_back(column_total != 0);
    result.nonempty = result.nonempty || column_total != 0;
    total += column_total;
  }
  bool split = false;
  for (int j = 0; j < group[0]->num_second_level(); ++j) {
    int64_t c0 = 0, c1 = 0;
    for (const TwoLevelHashSketch* x : group) {
      c0 += x->Count(level, j, 0);
      c1 += x->Count(level, j, 1);
    }
    split = split || (c0 > 0 && c1 > 0);
  }
  result.singleton = total != 0 && !split;
  return result;
}

inline std::vector<std::string> DatasetStreamNames(int num_streams) {
  std::vector<std::string> names;
  for (int s = 0; s < num_streams; ++s) {
    names.push_back("S" + std::to_string(s));
  }
  return names;
}

}  // namespace setsketch

#endif  // SETSKETCH_TESTS_TEST_HELPERS_H_
