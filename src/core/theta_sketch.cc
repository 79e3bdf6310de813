#include "core/theta_sketch.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "util/check.h"
#include "util/varint.h"

namespace setsketch {

namespace {

/// theta as a fraction of the full 64-bit hash range.
double ThetaFraction(uint64_t theta) {
  if (theta == ThetaKmvSketch::kThetaMax) return 1.0;
  return std::ldexp(static_cast<double>(theta), -64);
}

}  // namespace

ThetaKmvSketch::ThetaKmvSketch(const BackendOptions& options)
    : options_(options) {
  SETSKETCH_CHECK(options.size >= kMinBackendSize &&
                  options.size <= kMaxBackendSize);
}

void ThetaKmvSketch::Update(uint64_t element, int64_t delta) {
  if (delta == 0) return;
  const uint64_t hash = BackendHash64(element, options_.seed);
  if (!Sampled(hash)) return;
  auto [it, inserted] = counts_.try_emplace(hash, 0);
  it->second += delta;
  if (it->second == 0) {
    counts_.erase(it);
    return;
  }
  // Amortized trim: let the sample run to 2k before paying the selection.
  if (inserted && counts_.size() > 2 * static_cast<size_t>(options_.size)) {
    Shrink();
  }
}

void ThetaKmvSketch::Shrink() {
  const size_t k = options_.size;
  if (counts_.size() <= k) return;
  std::vector<uint64_t> hashes;
  hashes.reserve(counts_.size());
  for (const auto& [hash, count] : counts_) hashes.push_back(hash);
  // Keep the k smallest; the (k+1)-th smallest becomes the new theta.
  std::nth_element(hashes.begin(), hashes.begin() + static_cast<long>(k),
                   hashes.end());
  theta_ = hashes[k];
  for (auto it = counts_.begin(); it != counts_.end();) {
    it = Sampled(it->first) ? std::next(it) : counts_.erase(it);
  }
  SETSKETCH_DCHECK(counts_.size() <= k);
}

bool ThetaKmvSketch::Merge(const DistinctSketch& other) {
  if (other.backend() != backend() || !(other.options() == options_)) {
    return false;
  }
  const auto& rhs = static_cast<const ThetaKmvSketch&>(other);
  theta_ = std::min(theta_, rhs.theta_);
  // Drop own entries the lowered threshold no longer samples.
  for (auto it = counts_.begin(); it != counts_.end();) {
    it = Sampled(it->first) ? std::next(it) : counts_.erase(it);
  }
  for (const auto& [hash, count] : rhs.counts_) {
    if (!Sampled(hash)) continue;
    auto [it, inserted] = counts_.try_emplace(hash, 0);
    it->second += count;
    if (it->second == 0) counts_.erase(it);
  }
  if (counts_.size() > 2 * static_cast<size_t>(options_.size)) Shrink();
  return true;
}

double ThetaKmvSketch::EstimateDistinct() const {
  return static_cast<double>(counts_.size()) / ThetaFraction(theta_);
}

double ThetaKmvSketch::TargetRelativeError() const {
  // KMV's relative standard error is ~1/sqrt(k - 2); hold the backend to
  // three sigma so the shootout gate is robust to an unlucky seed.
  return 3.0 / std::sqrt(static_cast<double>(options_.size));
}

size_t ThetaKmvSketch::MemoryBytes() const {
  // Hash-map node: bucket pointer + (key, value, next) node, ~48 bytes on
  // the platforms we target; close enough for the space shootout.
  return sizeof(*this) + counts_.size() * 48;
}

void ThetaKmvSketch::SerializeTo(std::string* out) const {
  out->push_back(static_cast<char>(backend()));
  AppendVarint(out, options_.size);
  AppendVarint(out, options_.seed);
  AppendVarint(out, theta_);
  AppendVarint(out, counts_.size());
  // Canonical order: ascending hash, so equal sketches encode to equal
  // bytes in every process (summary caches and repair compare bytes).
  std::vector<std::pair<uint64_t, int64_t>> entries(counts_.begin(),
                                                    counts_.end());
  std::sort(entries.begin(), entries.end());
  uint64_t previous = 0;
  for (const auto& [hash, count] : entries) {
    AppendVarint(out, hash - previous);  // Delta-coded, strictly increasing.
    AppendVarint(out, ZigZagEncode(count));
    previous = hash;
  }
}

std::unique_ptr<ThetaKmvSketch> ThetaKmvSketch::DeserializePayload(
    const std::string& data, size_t* offset, const BackendOptions& options,
    std::string* error) {
  uint64_t theta = 0, num_entries = 0;
  if (!ReadVarint(data, offset, &theta) ||
      !ReadVarint(data, offset, &num_entries)) {
    *error = "truncated theta sketch header";
    return nullptr;
  }
  // Every entry costs at least two bytes, so the remaining payload bounds
  // the reservation below.
  if (theta == 0 || num_entries > 4 * static_cast<uint64_t>(options.size) ||
      num_entries > (data.size() - *offset) / 2) {
    *error = "theta sketch header out of bounds";
    return nullptr;
  }
  auto sketch = std::make_unique<ThetaKmvSketch>(options);
  sketch->theta_ = theta;
  sketch->counts_.reserve(num_entries);
  uint64_t previous = 0;
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint64_t delta_hash = 0, zigzag = 0;
    if (!ReadVarint(data, offset, &delta_hash) ||
        !ReadVarint(data, offset, &zigzag)) {
      *error = "truncated theta sketch entry";
      return nullptr;
    }
    const uint64_t hash = previous + delta_hash;
    const int64_t count = ZigZagDecode(zigzag);
    // Delta coding makes "strictly increasing" equal "delta > 0" except
    // for the first entry (hash 0 is a legal smallest hash).
    if ((i > 0 && delta_hash == 0) || count == 0 || !sketch->Sampled(hash)) {
      *error = "malformed theta sketch entry";
      return nullptr;
    }
    sketch->counts_.emplace(hash, count);
    previous = hash;
  }
  return sketch;
}

std::unique_ptr<DistinctSketch> ThetaKmvSketch::Clone() const {
  return std::make_unique<ThetaKmvSketch>(*this);
}

bool ThetaKmvSketch::Equals(const DistinctSketch& other) const {
  if (other.backend() != backend() || !(other.options() == options_)) {
    return false;
  }
  const auto& rhs = static_cast<const ThetaKmvSketch&>(other);
  return theta_ == rhs.theta_ && counts_ == rhs.counts_;
}

// ---------------------------------------------------------------------------
// Expression algebra: literal set operations over the common-theta sample.

namespace {

struct ThetaSample {
  uint64_t theta = ThetaKmvSketch::kThetaMax;
  std::unordered_set<uint64_t> hashes;  ///< Sampled hashes, all < theta.
};

bool SampledUnder(uint64_t hash, uint64_t theta) {
  return theta == ThetaKmvSketch::kThetaMax || hash < theta;
}

bool EvaluateSample(
    const Expression& expr,
    const std::function<const DistinctSketch*(const std::string&)>& leaf,
    ThetaSample* out, std::string* error) {
  if (expr.kind() == Expression::Kind::kStream) {
    const DistinctSketch* sketch = leaf(expr.name());
    // EstimateWithBackend validated presence and homogeneity.
    SETSKETCH_CHECK(sketch != nullptr &&
                    sketch->backend() == SketchBackendId::kThetaKmv);
    const auto& theta_sketch = static_cast<const ThetaKmvSketch&>(*sketch);
    out->theta = theta_sketch.theta();
    out->hashes.clear();
    out->hashes.reserve(theta_sketch.SampleSize());
    theta_sketch.VisitSample(
        [out](uint64_t hash) { out->hashes.insert(hash); });
    return true;
  }
  ThetaSample left, right;
  if (!EvaluateSample(*expr.left(), leaf, &left, error) ||
      !EvaluateSample(*expr.right(), leaf, &right, error)) {
    return false;
  }
  out->theta = std::min(left.theta, right.theta);
  out->hashes.clear();
  switch (expr.kind()) {
    case Expression::Kind::kUnion:
      for (uint64_t hash : left.hashes) {
        if (SampledUnder(hash, out->theta)) out->hashes.insert(hash);
      }
      for (uint64_t hash : right.hashes) {
        if (SampledUnder(hash, out->theta)) out->hashes.insert(hash);
      }
      return true;
    case Expression::Kind::kIntersect:
      for (uint64_t hash : left.hashes) {
        if (SampledUnder(hash, out->theta) && right.hashes.contains(hash)) {
          out->hashes.insert(hash);
        }
      }
      return true;
    case Expression::Kind::kDifference:
      for (uint64_t hash : left.hashes) {
        if (SampledUnder(hash, out->theta) && !right.hashes.contains(hash)) {
          out->hashes.insert(hash);
        }
      }
      return true;
    case Expression::Kind::kStream:
      break;  // Handled above.
  }
  *error = "unsupported expression node";
  return false;
}

}  // namespace

bool ThetaKmvSketch::EstimateExpression(
    const Expression& expr,
    const std::function<const DistinctSketch*(const std::string&)>& leaf,
    double* out, std::string* error) const {
  ThetaSample sample;
  if (!EvaluateSample(expr, leaf, &sample, error)) return false;
  *out = static_cast<double>(sample.hashes.size()) /
         ThetaFraction(sample.theta);
  return true;
}

}  // namespace setsketch
