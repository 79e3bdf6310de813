#include "core/two_level_hash_sketch.h"

#include <algorithm>
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

/// Portable counter-scatter kernel for the sliced update paths (the AVX2
/// variant below takes over when the CPU supports it): adds `delta` to
/// the cell selected by bit j of `mask` for each of `s` second-level
/// pairs, maintaining the nonzero-cell count. Zero transitions are rare
/// once counters are warm, so a predicted not-taken branch beats updating
/// the count branchlessly every cell. Templated on the pair count so the
/// common widths get a fully unrolled loop (a runtime trip count costs
/// ~2x here); `kAnyWidth` keeps one shared instantiation for the rest.
constexpr int kAnyWidth = -1;

template <int kWidth>
void ScatterMask(int64_t* base, uint64_t mask, int64_t delta, int s,
                 int64_t* nonzero_cells) {
  const int count = kWidth == kAnyWidth ? s : kWidth;
  for (int j = 0; j < count; ++j) {
    int64_t& cell = base[2 * j + static_cast<int>((mask >> j) & 1ULL)];
    const int64_t before = cell;
    cell = before + delta;
    if (before == 0) [[unlikely]] ++*nonzero_cells;
    if (cell == 0) [[unlikely]] --*nonzero_cells;
  }
}

#ifdef SETSKETCH_SCATTER_AVX2
/// AVX2 variant of the scatter (compiled for every x86-64 build, entered
/// only behind a __builtin_cpu_supports check): two counter pairs per
/// 256-bit lane, with the touched cell of each pair selected by adding a
/// precomputed addend row — (delta, 0) or (0, delta) per pair, indexed by
/// two mask bits at a time. Zero transitions are detected branchlessly in
/// the same pass (zero-ness of a lane changed <=> that cell transitioned;
/// untouched cells never change), so the common case runs with a single
/// predicted not-taken branch per update, and the rare slow path recovers
/// each `before` as `cell - addend`.
__attribute__((target("avx2"))) void ScatterMaskAvx2(int64_t* base,
                                                     uint64_t mask,
                                                     int64_t delta, int s,
                                                     int64_t* nonzero_cells) {
  // rows[p] is the addend quad for mask bit pair p = (b1 b0):
  // (b0 ? (0, d) : (d, 0), b1 ? (0, d) : (d, 0)).
  alignas(32) int64_t rows[4][4];
  for (int p = 0; p < 4; ++p) {
    rows[p][0] = (p & 1) ? 0 : delta;
    rows[p][1] = (p & 1) ? delta : 0;
    rows[p][2] = (p & 2) ? 0 : delta;
    rows[p][3] = (p & 2) ? delta : 0;
  }
  const __m256i zero = _mm256_setzero_si256();
  __m256i transitioned = zero;
  int j = 0;
  for (; j + 2 <= s; j += 2) {
    __m256i* quad = reinterpret_cast<__m256i*>(base + 2 * j);
    const __m256i before = _mm256_loadu_si256(quad);
    const __m256i add = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(rows[(mask >> j) & 3ULL]));
    const __m256i after = _mm256_add_epi64(before, add);
    _mm256_storeu_si256(quad, after);
    const __m256i before_zero = _mm256_cmpeq_epi64(before, zero);
    const __m256i after_zero = _mm256_cmpeq_epi64(after, zero);
    transitioned = _mm256_or_si256(
        transitioned, _mm256_xor_si256(before_zero, after_zero));
  }
  const bool any = _mm256_movemask_epi8(transitioned) != 0;
  if (j < s) {  // odd s: last pair takes the scalar path.
    int64_t& cell = base[2 * j + static_cast<int>((mask >> j) & 1ULL)];
    const int64_t before = cell;
    cell = before + delta;
    if (before == 0) [[unlikely]] ++*nonzero_cells;
    if (cell == 0) [[unlikely]] --*nonzero_cells;
  }
  if (any) [[unlikely]] {
    const int vectored = s & ~1;
    for (int k = 0; k < vectored; ++k) {
      const int64_t cell = base[2 * k + static_cast<int>((mask >> k) & 1ULL)];
      const int64_t before = cell - delta;
      *nonzero_cells += static_cast<int>(before == 0) -
                        static_cast<int>(cell == 0);
    }
  }
}

bool ScatterHasAvx2() { return __builtin_cpu_supports("avx2"); }
#endif  // SETSKETCH_SCATTER_AVX2

}  // namespace

TwoLevelHashSketch::TwoLevelHashSketch(std::shared_ptr<const SketchSeed> seed)
    : seed_(std::move(seed)),
      num_second_level_(seed_->params().num_second_level),
      slice_(seed_->slice()),
      counters_(static_cast<size_t>(seed_->params().levels) *
                    static_cast<size_t>(num_second_level_) * 2,
                0) {}

void TwoLevelHashSketch::ApplyMask(int level, uint64_t mask, int64_t delta) {
  SETSKETCH_DCHECK(level >= 0 && level < seed_->params().levels)
      << "level out of range";
  int64_t* base = counters_.data() + CellIndex(level, 0, 0);
  const int s = num_second_level_;
#ifdef SETSKETCH_SCATTER_AVX2
  static const bool use_avx2 = ScatterHasAvx2();
  if (use_avx2) {
    ScatterMaskAvx2(base, mask, delta, s, &nonzero_cells_);
    return;
  }
#endif
  switch (s) {
    case 8:
      ScatterMask<8>(base, mask, delta, s, &nonzero_cells_);
      break;
    case 16:
      ScatterMask<16>(base, mask, delta, s, &nonzero_cells_);
      break;
    case 32:
      ScatterMask<32>(base, mask, delta, s, &nonzero_cells_);
      break;
    case 64:
      ScatterMask<64>(base, mask, delta, s, &nonzero_cells_);
      break;
    default:
      ScatterMask<kAnyWidth>(base, mask, delta, s, &nonzero_cells_);
      break;
  }
}

void TwoLevelHashSketch::Update(uint64_t element, int64_t delta) {
  if (slice_ == nullptr) {  // s > 64: per-function evaluation.
    UpdateScalar(element, delta);
    return;
  }
  ApplyMask(seed_->Level(element), slice_->Bits(element), delta);
}

void TwoLevelHashSketch::UpdateScalar(uint64_t element, int64_t delta) {
  const int level = seed_->Level(element);
  int64_t* base = counters_.data() + CellIndex(level, 0, 0);
  for (int j = 0; j < num_second_level_; ++j) {
    const int bit = seed_->second_level(j)(element);
    int64_t& cell = base[2 * j + bit];
    const int64_t before = cell;
    cell = before + delta;
    if (before == 0) [[unlikely]] ++nonzero_cells_;
    if (cell == 0) [[unlikely]] --nonzero_cells_;
  }
}

void TwoLevelHashSketch::UpdateBatch(std::span<const ElementDelta> batch) {
  if (slice_ == nullptr) {
    for (const ElementDelta& u : batch) UpdateScalar(u.element, u.delta);
    return;
  }
  // Hash a block ahead of the counter scatter: the (level, mask) loop is
  // pure computation, the scatter loop is mostly memory traffic, and
  // splitting them keeps both pipelines full.
  constexpr size_t kBlock = 64;
  int level[kBlock];
  uint64_t mask[kBlock];
  const SketchSeed& seed = *seed_;
  for (size_t i = 0; i < batch.size(); i += kBlock) {
    const size_t n = std::min(kBlock, batch.size() - i);
    for (size_t k = 0; k < n; ++k) {
      level[k] = seed.Level(batch[i + k].element);
      mask[k] = slice_->Bits(batch[i + k].element);
    }
    for (size_t k = 0; k < n; ++k) {
      ApplyMask(level[k], mask[k], batch[i + k].delta);
    }
  }
}

bool TwoLevelHashSketch::Merge(const TwoLevelHashSketch& other) {
  if (!(*seed_ == *other.seed_)) return false;
  // Equal seeds imply equal params, hence equal counter shapes; anything
  // else means a sketch was corrupted after construction.
  SETSKETCH_CHECK(counters_.size() == other.counters_.size())
      << "seed-compatible sketches with mismatched counter arrays:"
      << counters_.size() << "vs" << other.counters_.size();
  for (size_t i = 0; i < counters_.size(); ++i) {
    const int64_t before = counters_[i];
    counters_[i] += other.counters_[i];
    nonzero_cells_ +=
        static_cast<int>(before == 0 && counters_[i] != 0) -
        static_cast<int>(before != 0 && counters_[i] == 0);
  }
  SETSKETCH_DCHECK(nonzero_cells_ == RecountNonzeroCells())
      << "nonzero-cell count diverged from counters after Merge";
  return true;
}

void TwoLevelHashSketch::Clear() {
  std::fill(counters_.begin(), counters_.end(), 0);
  nonzero_cells_ = 0;
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
  const size_t nonzero = static_cast<size_t>(nonzero_cells_);
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
      sketch->nonzero_cells_ += static_cast<int>(c != 0);
    }
    return sketch;
  }
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
      // ZigZagDecode(token) != 0 whenever token != 0, so every non-run
      // token is one nonzero cell.
      sketch->counters_[i] = ZigZagDecode(token);
      ++sketch->nonzero_cells_;
      ++i;
    }
  }
  SETSKETCH_DCHECK(sketch->nonzero_cells_ == sketch->RecountNonzeroCells())
      << "nonzero-cell count diverged after compact decode";
  return sketch;
}

int64_t TwoLevelHashSketch::RecountNonzeroCells() const {
  int64_t nonzero = 0;
  for (const int64_t c : counters_) nonzero += static_cast<int>(c != 0);
  return nonzero;
}

bool operator==(const TwoLevelHashSketch& a, const TwoLevelHashSketch& b) {
  return *a.seed_ == *b.seed_ && a.counters_ == b.counters_;
}

}  // namespace setsketch
