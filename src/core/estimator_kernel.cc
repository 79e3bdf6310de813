#include "core/estimator_kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "core/estimator_config.h"

namespace setsketch {

void ProbeTable::Clear() {
  copies_ = 0;
  levels_ = 0;
  columns_ = 0;
  words_ = 0;
  part_copy_.clear();
  part_word_.clear();
  part_filled_.clear();
  bits_.clear();
}

void ProbeTable::Shape(int copies, int levels, int columns, int parts) {
  constexpr size_t kLineWords = kCacheLineBytes / sizeof(uint64_t);
  copies_ = copies;
  levels_ = levels;
  columns_ = columns;
  part_copy_.resize(static_cast<size_t>(parts) + 1);
  part_word_.resize(static_cast<size_t>(parts) + 1);
  for (int p = 0; p <= parts; ++p) {
    // The copy ranges of the server's shard workers (shard_queue.h).
    part_copy_[static_cast<size_t>(p)] =
        static_cast<int>(static_cast<int64_t>(p) * copies / parts);
  }
  size_t word = 0;
  for (size_t p = 0; p <= static_cast<size_t>(parts); ++p) {
    part_word_[p] = word;
    if (p < static_cast<size_t>(parts)) {
      const size_t region = static_cast<size_t>(levels) * PartLevelWords(p);
      word += (region + kLineWords - 1) / kLineWords * kLineWords;
    }
  }
  words_ = word;
  part_filled_.assign(static_cast<size_t>(parts), 0);
  part_scratch_.resize(static_cast<size_t>(parts));
  for (FillScratch& scratch : part_scratch_) {
    scratch.block.resize((2 + static_cast<size_t>(columns)) *
                         static_cast<size_t>(levels));
    scratch.group.resize(static_cast<size_t>(columns));
    scratch.next.resize(static_cast<size_t>(columns));
  }
  // Every word is written by exactly one FillPart, padding included.
  bits_.resize((2 + static_cast<size_t>(columns)) * words_);
}

ProbeTable::Layout ProbeTable::LayoutOf(int copies, int levels, int parts) {
  ProbeTable table;
  table.Shape(copies, levels, /*columns=*/0, parts);
  Layout layout;
  for (size_t p = 0; p < static_cast<size_t>(parts); ++p) {
    layout.level_words += table.PartLevelWords(p);
  }
  layout.bitset_words = table.words();
  return layout;
}

bool ProbeTable::Reset(const std::vector<const SketchColumn*>& columns,
                       int parts) {
  Clear();
  if (columns.empty() || columns[0]->empty()) return false;
  const size_t copies = columns[0]->size();
  for (const SketchColumn* column : columns) {
    if (column->size() != copies) return false;
  }
  if (parts < 1) return false;
  Shape(static_cast<int>(copies), (*columns[0])[0].levels(),
        static_cast<int>(columns.size()), parts);
  return true;
}

template <typename GroupOf>
bool ProbeTable::FillCells(int part, bool pairwise, const GroupOf& group_of) {
  const size_t bitsets = 2 + static_cast<size_t>(columns_);
  const size_t levels = static_cast<size_t>(levels_);
  const int first = part_copy_[static_cast<size_t>(part)];
  const int last = part_copy_[static_cast<size_t>(part) + 1];
  const size_t stride = PartLevelWords(static_cast<size_t>(part));
  const size_t region = part_word_[static_cast<size_t>(part)];
  const size_t region_words = part_word_[static_cast<size_t>(part) + 1] -
                              region;
  // One word of up to 64 copies per (bitset, level) accumulates in
  // block[b * levels + level] (bit i for copy start + i), then lands in
  // the part's region with one store per word.
  FillScratch& scratch = part_scratch_[static_cast<size_t>(part)];
  std::vector<uint64_t>& block = scratch.block;
  SketchGroup& group = scratch.group;
  SketchGroup& next = scratch.next;
  if (first < last) group_of(first, &next);
  for (size_t b = 0; b < bitsets; ++b) {
    // The region's padding past its last level.
    uint64_t* out = bits_.data() + b * words_ + region;
    std::fill(out + levels * stride, out + region_words, uint64_t{0});
  }
  size_t word = 0;
  for (int start = first; start < last; start += 64, ++word) {
    std::fill(block.begin(), block.end(), uint64_t{0});
    const int end = std::min(last, start + 64);
    for (int copy = start; copy < end; ++copy) {
      std::swap(group, next);
      if (copy + 1 < last) {
        // The next copy's summaries are separate allocations the hardware
        // prefetcher cannot guess; after ingest they are cache misses.
        group_of(copy + 1, &next);
        for (const TwoLevelHashSketch* x : next) {
          if (x == nullptr) continue;  // Refused when its turn comes.
          const uint64_t* rows = x->PositiveRow(0);
          const size_t words = levels * static_cast<size_t>(x->row_words());
          for (size_t w = 0; w < words; w += 8) __builtin_prefetch(rows + w);
        }
      }
      if (!GroupSeedsMatch(group) || group[0]->levels() != levels_) {
        return false;
      }
      const int shift = copy - start;
      uint64_t* singleton = block.data() + levels;
      ProbeUnionBuckets(group, 0, levels_,
                        {block.data(), singleton, block.data() + 2 * levels,
                         shift});
      if (pairwise) {
        for (size_t level = 0; level < levels; ++level) {
          if (((block[level] >> shift) & 1) == 0) continue;
          const uint64_t bit = uint64_t{1} << shift;
          singleton[level] =
              SingletonUnionBucket(*group[0], *group[1],
                                   static_cast<int>(level))
                  ? singleton[level] | bit
                  : singleton[level] & ~bit;
        }
      }
    }
    for (size_t b = 0; b < bitsets; ++b) {
      uint64_t* out = bits_.data() + b * words_ + region + word;
      for (size_t level = 0; level < levels; ++level) {
        out[level * stride] = block[b * levels + level];
      }
    }
  }
  part_filled_[static_cast<size_t>(part)] = 1;
  return true;
}

bool ProbeTable::FillPart(const std::vector<const SketchColumn*>& columns,
                          int part) {
  if (part < 0 || static_cast<size_t>(part) >= part_filled_.size() ||
      columns.size() != static_cast<size_t>(columns_)) {
    return false;
  }
  return FillCells(part, /*pairwise=*/false,
                   [&columns](int copy, SketchGroup* group) {
                     for (size_t k = 0; k < columns.size(); ++k) {
                       (*group)[k] =
                           &(*columns[k])[static_cast<size_t>(copy)];
                     }
                   });
}

bool ProbeTable::Build(const std::vector<const SketchColumn*>& columns) {
  if (Reset(columns, 1) && FillPart(columns, 0)) return true;
  Clear();
  return false;
}

bool ProbeTable::Build(const std::vector<SketchGroup>& groups,
                       bool pairwise) {
  Clear();
  if (groups.empty() || groups[0].empty() || groups[0][0] == nullptr) {
    return false;
  }
  const size_t columns = groups[0].size();
  for (const SketchGroup& group : groups) {
    if (group.size() != columns) return false;
  }
  if (pairwise && columns != 2) return false;
  Shape(static_cast<int>(groups.size()), groups[0][0]->levels(),
        static_cast<int>(columns), 1);
  if (FillCells(0, pairwise, [&groups](int copy, SketchGroup* group) {
        *group = groups[static_cast<size_t>(copy)];
      })) {
    return true;
  }
  Clear();
  return false;
}

bool ProbeTable::Filled() const {
  return copies_ > 0 &&
         std::all_of(part_filled_.begin(), part_filled_.end(),
                     [](unsigned char filled) { return filled != 0; });
}

bool ProbeTable::Bit(const uint64_t* bitset, int copy, int level) const {
  // The last part whose first copy is <= copy.
  const size_t part = static_cast<size_t>(
      std::upper_bound(part_copy_.begin(), part_copy_.end() - 1, copy) -
      part_copy_.begin() - 1);
  const size_t offset = static_cast<size_t>(copy - part_copy_[part]);
  const uint64_t word =
      bitset[part_word_[part] +
             static_cast<size_t>(level) * PartLevelWords(part) + offset / 64];
  return ((word >> (offset % 64)) & 1) != 0;
}

template <typename Visit>
void ProbeTable::ForLevelWords(int level, const Visit& visit) const {
  if (level < 0) {
    visit(size_t{0}, words_);  // Padding bits are zero.
    return;
  }
  for (size_t p = 0; p + 1 < part_copy_.size(); ++p) {
    const size_t stride = PartLevelWords(p);
    const size_t begin = part_word_[p] + static_cast<size_t>(level) * stride;
    visit(begin, begin + stride);
  }
}

int ProbeTable::Count(const uint64_t* bits, int level) const {
  int count = 0;
  ForLevelWords(level, [&](size_t begin, size_t end) {
    for (size_t w = begin; w < end; ++w) count += std::popcount(bits[w]);
  });
  return count;
}

int ProbeTable::CountBoth(const uint64_t* a, const uint64_t* b,
                          int level) const {
  int count = 0;
  ForLevelWords(level, [&](size_t begin, size_t end) {
    for (size_t w = begin; w < end; ++w) count += std::popcount(a[w] & b[w]);
  });
  return count;
}

UnionEstimate KernelEstimateUnion(const ProbeTable& table, double epsilon,
                                  bool mle) {
  UnionEstimate result;
  const int r = table.copies();
  const int levels = table.levels();
  if (r <= 0 || levels <= 0 || !(epsilon > 0)) return result;
  const double threshold = (1.0 + epsilon) * r / 8.0;

  // Non-empty cells per level: a few popcounts each.
  std::vector<int> nonempty(static_cast<size_t>(levels), 0);
  for (int level = 0; level < levels; ++level) {
    nonempty[static_cast<size_t>(level)] =
        table.Count(table.nonempty(), level);
  }

  // Find the smallest level whose non-empty count drops to the target
  // fraction (Figure 5, steps 3-11).
  int index = 0;
  int count = 0;
  for (index = 0; index < levels; ++index) {
    count = nonempty[static_cast<size_t>(index)];
    if (static_cast<double>(count) <= threshold) break;
  }
  if (index == levels) {
    // Every level stayed dense: the union is far too large for this sketch
    // shape. Report the last level and flag saturation.
    index = levels - 1;
    result.saturated = true;
  }

  result.level = index;
  result.copies = r;
  result.nonempty_count = count;
  double p_hat = static_cast<double>(count) / r;
  result.p_hat = p_hat;

  if (count == 0) {
    // No copy saw an element at this level; with index = 0 this means all
    // streams are empty. The estimator formula also yields 0.
    result.estimate = 0.0;
    result.ok = true;
  } else {
    if (p_hat >= 1.0) {
      // Only reachable when saturated; clamp so the inversion stays finite.
      p_hat = 1.0 - 0.5 / r;
    }
    // Invert p = 1 - (1 - 1/R)^u at R = 2^(index+1) (Figure 5, step 13).
    const double big_r = std::ldexp(1.0, index + 1);
    result.estimate = std::log1p(-p_hat) / std::log1p(-1.0 / big_r);
    result.ok = true;
  }
  if (!mle || !result.ok || result.estimate <= 0.0) return result;

  // All-levels maximum-likelihood refinement: every level j contributes an
  // independent binomial observation k_j of r at
  // p_j(u) = 1 - (1 - 2^-(j+1))^u.
  // log p_j(u) and log(1 - p_j(u)) with p_j(u) = 1 - (1 - 2^-(j+1))^u.
  auto log_likelihood = [&](double u) {
    double total = 0.0;
    for (int j = 0; j < levels; ++j) {
      const int k = nonempty[static_cast<size_t>(j)];
      // q = (1 - 1/R)^u = P[bucket empty]; p = 1 - q.
      const double log_q = u * std::log1p(-std::ldexp(1.0, -(j + 1)));
      if (k > 0) {
        const double p = -std::expm1(log_q);  // 1 - q, accurately.
        if (p <= 0.0) return -1e300;          // k>0 impossible at p=0.
        total += k * std::log(p);
      }
      if (k < r) total += (r - k) * log_q;
    }
    return total;
  };

  // Golden-section search on t = log2(u); the likelihood is unimodal.
  const double golden = (std::sqrt(5.0) - 1.0) / 2.0;
  double lo = 0.0;
  double hi = static_cast<double>(levels);
  double x1 = hi - golden * (hi - lo);
  double x2 = lo + golden * (hi - lo);
  double f1 = log_likelihood(std::exp2(x1));
  double f2 = log_likelihood(std::exp2(x2));
  for (int iteration = 0; iteration < 100; ++iteration) {
    if (f1 < f2) {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + golden * (hi - lo);
      f2 = log_likelihood(std::exp2(x2));
    } else {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - golden * (hi - lo);
      f1 = log_likelihood(std::exp2(x1));
    }
  }
  result.estimate = std::exp2((lo + hi) / 2.0);
  return result;
}

WitnessEstimate KernelCountWitnesses(const ProbeTable& table,
                                     const uint64_t* witness,
                                     double union_estimate,
                                     const WitnessOptions& options) {
  WitnessEstimate result;
  const int r = table.copies();
  const int levels = table.levels();
  if (r <= 0 || levels <= 0 || union_estimate < 0 || !options.Valid()) {
    return result;
  }
  result.copies = r;
  result.union_estimate = union_estimate;
  result.level = WitnessLevel(union_estimate, options.epsilon, options.beta,
                              levels);

  // Pooled mode: every union-singleton cell is a valid observation;
  // strict mode: each copy's cell at the witness level. A singleton cell
  // is a witness where B(E) holds ("noEstimate" elsewhere).
  const int level = options.pool_all_levels ? -1 : result.level;
  result.valid_observations = table.Count(table.singleton(), level);
  result.witnesses = table.CountBoth(table.singleton(), witness, level);
  if (result.valid_observations == 0) return result;  // All "noEstimate".
  result.estimate = result.WitnessFraction() * union_estimate;
  result.ok = true;
  return result;
}

}  // namespace setsketch
