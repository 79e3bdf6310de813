#include "core/two_level_hash_sketch.h"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define SETSKETCH_SCATTER_AVX2 1
#include <immintrin.h>
#endif

#include "util/check.h"
#include "util/varint.h"

namespace setsketch {

namespace {

constexpr uint32_t kMagic = 0x534B3231;         // "SK21": fixed-width.
constexpr uint32_t kMagicCompact = 0x534B3243;  // "SK2C": varint + RLE.

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(const std::string& data, size_t* offset, T* value) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

/// Summarizes one row of `s` counter pairs into `row`: bit 2j + b of the
/// row is "cell (j, b) > 0" (word (2j + b) / 64). Returns whether some
/// cell is negative. The portable variant of SummarizeRowAvx2 below.
bool SummarizeRow(const int64_t* base, int s, uint64_t* row) {
  uint64_t word = 0;
  int64_t signs = 0;
  for (int j = 0; j < s; ++j) {
    const int64_t c0 = base[2 * j];
    const int64_t c1 = base[2 * j + 1];
    signs |= c0 | c1;
    word |= (static_cast<uint64_t>(c0 > 0) |
             static_cast<uint64_t>(c1 > 0) << 1)
            << ((2 * j) & 63);
    if (((2 * j + 2) & 63) == 0) {
      row[j / 32] = word;
      word = 0;
    }
  }
  if (((2 * s) & 63) != 0) row[(2 * s) / 64] = word;
  return signs < 0;
}

/// Template argument of ScatterMask for widths without their own
/// unrolled instantiation.
constexpr int kAnyWidth = -1;

/// Portable counter-scatter kernel for the sliced update paths (the AVX2
/// variant below takes over when the CPU supports it): adds `delta` to
/// the cell selected by bit j of `mask` for each of `s` second-level
/// pairs. Templated on the pair count so the common widths get a fully
/// unrolled loop (a runtime trip count costs ~2x here); `kAnyWidth`
/// keeps one shared instantiation for the rest.
template <int kWidth>
void ScatterMask(int64_t* base, uint64_t mask, int64_t delta, int s) {
  const int count = kWidth == kAnyWidth ? s : kWidth;
  for (int j = 0; j < count; ++j) {
    int64_t& cell = base[2 * j + static_cast<int>((mask >> j) & 1ULL)];
    cell = WrappingAdd(cell, delta);
  }
}

#ifdef SETSKETCH_SCATTER_AVX2
/// AVX2 variant of the scatter (compiled for every x86-64 build, entered
/// only behind a __builtin_cpu_supports check): two counter pairs per
/// 256-bit lane, with the touched cell of each pair selected by adding a
/// precomputed addend row — (delta, 0) or (0, delta) per pair, indexed by
/// two mask bits at a time.
__attribute__((target("avx2"))) void ScatterMaskAvx2(int64_t* base,
                                                     uint64_t mask,
                                                     int64_t delta, int s) {
  // rows[p] is the addend quad for mask bit pair p = (b1 b0):
  // (b0 ? (0, d) : (d, 0), b1 ? (0, d) : (d, 0)).
  alignas(32) int64_t rows[4][4];
  for (int p = 0; p < 4; ++p) {
    rows[p][0] = (p & 1) ? 0 : delta;
    rows[p][1] = (p & 1) ? delta : 0;
    rows[p][2] = (p & 2) ? 0 : delta;
    rows[p][3] = (p & 2) ? delta : 0;
  }
  int j = 0;
  for (; j + 2 <= s; j += 2) {
    __m256i* quad = reinterpret_cast<__m256i*>(base + 2 * j);
    const __m256i add = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(rows[(mask >> j) & 3ULL]));
    _mm256_storeu_si256(quad,
                        _mm256_add_epi64(_mm256_loadu_si256(quad), add));
  }
  if (j < s) {  // odd s: last pair takes the scalar path.
    int64_t& cell = base[2 * j + static_cast<int>((mask >> j) & 1ULL)];
    cell = WrappingAdd(cell, delta);
  }
}

/// AVX2 variant of SummarizeRow: four cells per compare against zero,
/// and the OR of every quad's sign bits says whether any is negative.
__attribute__((target("avx2"))) bool SummarizeRowAvx2(const int64_t* base,
                                                      int s, uint64_t* row) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i signs = zero;
  uint64_t word = 0;
  int j = 0;
  for (; j + 2 <= s; j += 2) {
    const __m256i quad =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + 2 * j));
    signs = _mm256_or_si256(signs, quad);
    const auto positive = static_cast<uint64_t>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(quad, zero))));
    word |= positive << ((2 * j) & 63);
    if (((2 * j + 4) & 63) == 0) {
      row[j / 32] = word;
      word = 0;
    }
  }
  bool negative = _mm256_movemask_pd(_mm256_castsi256_pd(signs)) != 0;
  if (j < s) {  // odd s: the last pair.
    const int64_t c0 = base[2 * j];
    const int64_t c1 = base[2 * j + 1];
    negative = negative || (c0 | c1) < 0;
    word |= (static_cast<uint64_t>(c0 > 0) |
             static_cast<uint64_t>(c1 > 0) << 1)
            << ((2 * j) & 63);
  }
  if (((2 * s) & 63) != 0) row[(2 * s) / 64] = word;
  return negative;
}

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }
#endif  // SETSKETCH_SCATTER_AVX2

/// Row-summary words for `params`, padded to whole cache lines.
size_t SummaryWords(const SketchParams& params) {
  constexpr size_t kWordsPerLine = kCacheLineBytes / sizeof(uint64_t);
  const size_t words = static_cast<size_t>(params.levels) *
                       static_cast<size_t>((2 * params.num_second_level + 63) /
                                           64);
  return (words + kWordsPerLine - 1) / kWordsPerLine * kWordsPerLine;
}

}  // namespace

TwoLevelHashSketch::TwoLevelHashSketch(std::shared_ptr<const SketchSeed> seed)
    : seed_(std::move(seed)),
      num_second_level_(seed_->params().num_second_level),
      row_words_((2 * num_second_level_ + 63) / 64),
      slice_(seed_->slice()),
      counters_(static_cast<size_t>(seed_->params().levels) *
                    static_cast<size_t>(num_second_level_) * 2,
                0),
      positive_(SummaryWords(seed_->params()), 0) {}

void TwoLevelHashSketch::ApplyMask(int level, uint64_t mask, int64_t delta) {
  SETSKETCH_DCHECK(level >= 0 && level < seed_->params().levels)
      << "level out of range";
  int64_t* base = counters_.data() + CellIndex(level, 0, 0);
  const int s = num_second_level_;
#ifdef SETSKETCH_SCATTER_AVX2
  static const bool use_avx2 = CpuHasAvx2();
  if (use_avx2) {
    ScatterMaskAvx2(base, mask, delta, s);
    return;
  }
#endif
  switch (s) {
    case 8:
      ScatterMask<8>(base, mask, delta, s);
      break;
    case 16:
      ScatterMask<16>(base, mask, delta, s);
      break;
    case 32:
      ScatterMask<32>(base, mask, delta, s);
      break;
    case 64:
      ScatterMask<64>(base, mask, delta, s);
      break;
    default:
      ScatterMask<kAnyWidth>(base, mask, delta, s);
      break;
  }
}

void TwoLevelHashSketch::SummarizeRows(uint64_t rows) {
#ifdef SETSKETCH_SCATTER_AVX2
  static const bool use_avx2 = CpuHasAvx2();
  const auto summarize = use_avx2 ? SummarizeRowAvx2 : SummarizeRow;
#else
  const auto summarize = SummarizeRow;
#endif
  for (; rows != 0; rows &= rows - 1) {
    const int level = std::countr_zero(rows);
    SetRowNegative(level,
                   summarize(counters_.data() + CellIndex(level, 0, 0),
                             num_second_level_, MutablePositiveRow(level)));
  }
}

void TwoLevelHashSketch::Update(uint64_t element, int64_t delta) {
  if (slice_ == nullptr) {  // s > 64: per-function evaluation.
    UpdateScalar(element, delta);
    return;
  }
  const int level = seed_->Level(element);
  ApplyMask(level, slice_->Bits(element), delta);
  SummarizeRows(uint64_t{1} << level);
}

void TwoLevelHashSketch::UpdateScalar(uint64_t element, int64_t delta) {
  const int level = seed_->Level(element);
  int64_t* base = counters_.data() + CellIndex(level, 0, 0);
  for (int j = 0; j < num_second_level_; ++j) {
    int64_t& cell = base[2 * j + seed_->second_level(j)(element)];
    cell = WrappingAdd(cell, delta);
  }
  SummarizeRows(uint64_t{1} << level);
}

void TwoLevelHashSketch::UpdateBatch(std::span<const ElementDelta> batch) {
  if (slice_ == nullptr) {
    for (const ElementDelta& u : batch) UpdateScalar(u.element, u.delta);
    return;
  }
  // Hash a block ahead of the counter scatter: the (level, mask) loop is
  // pure computation, the scatter loop is mostly memory traffic, and
  // splitting them keeps both pipelines full. The rows the batch touched
  // are summarized once, at the end.
  constexpr size_t kBlock = 64;
  int level[kBlock];
  uint64_t mask[kBlock];
  uint64_t touched = 0;
  const SketchSeed& seed = *seed_;
  for (size_t i = 0; i < batch.size(); i += kBlock) {
    const size_t n = std::min(kBlock, batch.size() - i);
    for (size_t k = 0; k < n; ++k) {
      level[k] = seed.Level(batch[i + k].element);
      mask[k] = slice_->Bits(batch[i + k].element);
      touched |= uint64_t{1} << level[k];
    }
    for (size_t k = 0; k < n; ++k) {
      ApplyMask(level[k], mask[k], batch[i + k].delta);
    }
  }
  SummarizeRows(touched);
}

bool TwoLevelHashSketch::Merge(const TwoLevelHashSketch& other) {
  if (!(*seed_ == *other.seed_)) return false;
  // Equal seeds imply equal params, hence equal counter shapes; anything
  // else means a sketch was corrupted after construction.
  SETSKETCH_CHECK(counters_.size() == other.counters_.size())
      << "seed-compatible sketches with mismatched counter arrays:"
      << counters_.size() << "vs" << other.counters_.size();
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = WrappingAdd(counters_[i], other.counters_[i]);
  }
  SummarizeRows(AllRows());
  SETSKETCH_DCHECK(SummaryMatchesCounters())
      << "row summaries diverged from counters after Merge";
  return true;
}

void TwoLevelHashSketch::Clear() {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(positive_.begin(), positive_.end(), 0);
  negative_rows_ = 0;
}

bool TwoLevelHashSketch::Empty() const {
  if (negative_rows_ != 0) return false;
  for (const uint64_t word : positive_) {
    if (word != 0) return false;
  }
  return true;
}

bool TwoLevelHashSketch::SummaryMatchesCounters() const {
  for (int level = 0; level < levels(); ++level) {
    bool negative = false;
    std::vector<uint64_t> row(static_cast<size_t>(row_words_), 0);
    for (int j = 0; j < num_second_level_; ++j) {
      for (int bit = 0; bit < 2; ++bit) {
        const int64_t cell = Count(level, j, bit);
        negative = negative || cell < 0;
        if (cell > 0) {
          const int index = 2 * j + bit;
          row[static_cast<size_t>(index / 64)] |= uint64_t{1} << (index % 64);
        }
      }
    }
    if (negative != (((negative_rows_ >> level) & 1) != 0) ||
        !std::equal(row.begin(), row.end(), PositiveRow(level))) {
      return false;
    }
  }
  return true;
}

namespace {

/// Encoded size of AppendHeader's fields.
constexpr size_t kHeaderBytes = sizeof(uint32_t) + 3 * sizeof(int32_t) +
                                sizeof(uint8_t) + sizeof(uint64_t);

void AppendHeader(std::string* out, uint32_t magic, const SketchParams& p,
                  uint64_t seed_value) {
  AppendPod(out, magic);
  AppendPod(out, static_cast<int32_t>(p.levels));
  AppendPod(out, static_cast<int32_t>(p.num_second_level));
  AppendPod(out, static_cast<uint8_t>(p.first_level_kind));
  AppendPod(out, static_cast<int32_t>(p.independence));
  AppendPod(out, seed_value);
}

}  // namespace

void TwoLevelHashSketch::SerializeTo(std::string* out) const {
  // Exact output size up front: every PUSH_SUMMARY otherwise grows the
  // buffer through repeated reallocation.
  out->reserve(out->size() + kHeaderBytes +
               counters_.size() * sizeof(int64_t));
  AppendHeader(out, kMagic, seed_->params(), seed_->seed_value());
  // Counters are usually sparse in high levels but dense overall; a plain
  // dump keeps the decoder trivial and the encoding O(levels * s).
  for (int64_t c : counters_) AppendPod(out, c);
}

void TwoLevelHashSketch::SerializeCompactTo(std::string* out) const {
  // Upper bound on the token stream: <= 10 varint bytes per nonzero cell
  // and <= nonzero + 1 zero runs of <= 11 bytes (token + run length).
  // Nonzero cells are at most the positive ones plus every cell of a row
  // with a negative one.
  size_t nonzero = static_cast<size_t>(std::popcount(negative_rows_)) * 2 *
                   static_cast<size_t>(num_second_level_);
  for (const uint64_t word : positive_) {
    nonzero += static_cast<size_t>(std::popcount(word));
  }
  out->reserve(out->size() + kHeaderBytes + 10 * nonzero +
               11 * (nonzero + 1));
  AppendHeader(out, kMagicCompact, seed_->params(), seed_->seed_value());
  // Token stream: a zero token is followed by a run length; any nonzero
  // token is zigzag(counter), which is nonzero for every nonzero counter,
  // so the two cases disambiguate.
  size_t i = 0;
  while (i < counters_.size()) {
    if (counters_[i] == 0) {
      size_t run = 1;
      while (i + run < counters_.size() && counters_[i + run] == 0) ++run;
      AppendVarint(out, 0);
      AppendVarint(out, run);
      i += run;
    } else {
      AppendVarint(out, ZigZagEncode(counters_[i]));
      ++i;
    }
  }
}

std::unique_ptr<TwoLevelHashSketch> TwoLevelHashSketch::Deserialize(
    const std::string& data, size_t* offset) {
  std::string error;
  return Deserialize(data, offset, nullptr, &error);
}

std::unique_ptr<TwoLevelHashSketch> TwoLevelHashSketch::Deserialize(
    const std::string& data, size_t* offset,
    const std::shared_ptr<const SketchSeed>& expected, std::string* error) {
  *error = "malformed";
  uint32_t magic = 0;
  if (!ReadPod(data, offset, &magic) ||
      (magic != kMagic && magic != kMagicCompact)) {
    return nullptr;
  }
  int32_t levels = 0, s = 0, independence = 0;
  uint8_t kind = 0;
  uint64_t seed_value = 0;
  if (!ReadPod(data, offset, &levels) || !ReadPod(data, offset, &s) ||
      !ReadPod(data, offset, &kind) ||
      !ReadPod(data, offset, &independence) ||
      !ReadPod(data, offset, &seed_value)) {
    return nullptr;
  }
  SketchParams params;
  params.levels = levels;
  params.num_second_level = s;
  params.first_level_kind = static_cast<FirstLevelKind>(kind);
  params.independence = independence;
  std::shared_ptr<const SketchSeed> seed = expected;
  if (seed != nullptr) {
    // The receiver's own coins bound the allocation below.
    if (!(params == seed->params()) || seed_value != seed->seed_value()) {
      *error = "uses foreign hash functions";
      return nullptr;
    }
  } else {
    if (!params.Valid()) return nullptr;
    seed = std::make_shared<const SketchSeed>(params, seed_value);
  }
  auto sketch = std::make_unique<TwoLevelHashSketch>(std::move(seed));
  if (magic == kMagic) {
    for (int64_t& c : sketch->counters_) {
      if (!ReadPod(data, offset, &c)) return nullptr;
    }
  } else {
    // Compact decoding: zigzag varints with zero-run-length tokens.
    size_t i = 0;
    const size_t n = sketch->counters_.size();
    while (i < n) {
      uint64_t token = 0;
      if (!ReadVarint(data, offset, &token)) return nullptr;
      if (token == 0) {
        uint64_t run = 0;
        if (!ReadVarint(data, offset, &run)) return nullptr;
        if (run == 0 || run > n - i) return nullptr;  // Corrupt run.
        i += run;  // Cells already zero-initialized.
      } else {
        sketch->counters_[i] = ZigZagDecode(token);
        ++i;
      }
    }
  }
  sketch->SummarizeRows(sketch->AllRows());
  SETSKETCH_DCHECK(sketch->SummaryMatchesCounters())
      << "row summaries diverged from counters after decode";
  return sketch;
}

bool operator==(const TwoLevelHashSketch& a, const TwoLevelHashSketch& b) {
  return *a.seed_ == *b.seed_ && a.counters_ == b.counters_;
}

}  // namespace setsketch
