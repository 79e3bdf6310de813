// Threshold-theta KMV sketch with net-frequency counters (backend id 1).
//
// The KMV framework (Dasgupta et al. 2016, "theta sketches") keeps the k
// smallest hash values of the stream's elements; every hash below the
// threshold theta is in the sample, and |sample| / (theta / 2^64) is an
// unbiased distinct-count estimate. This engine variant extends the
// classic sketch two ways, both required for the continuous-update-stream
// model this repo reproduces:
//
//   * deletion awareness — each sampled hash carries the element's *net*
//     frequency (the counting-KMV idea): a delete decrements and a zero
//     net count drops the hash from the sample. Unlike the sampling
//     synopses the paper attacks, deletes of sampled elements are handled
//     exactly; theta never rises, so the estimator stays unbiased under
//     storms of deletions (bench/bench_backends.cc pins this), though
//     transients that forced theta down leave a smaller sample when they
//     go (the sample-size column of bench/bench_deletions.cc).
//     Sketch *state* is insert-history dependent — theta is monotone in
//     inserts seen — so unlike the strictly linear backends, two theta
//     sketches of the same net multiset may differ while estimating
//     identically.
//   * mergeability — union of two sketches is min(theta) + counter
//     addition over the surviving sample, the same
//     concatenated-streams/stored-coins contract TwoLevelHashSketch::Merge
//     has; all sites must share BackendOptions (hash seed + k).
//
// Expression algebra: because all sketches sample the *same* hash
// permutation, the sample sets compose under every connective — union,
// intersection, and difference are literal set operations on the sampled
// hashes below the common theta, recursively, so arbitrary set
// expressions evaluate exactly over the sample (the theta-sketch
// framework's headline property). This is the most general expression
// support of any backend, including the default.

#ifndef SETSKETCH_CORE_THETA_SKETCH_H_
#define SETSKETCH_CORE_THETA_SKETCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/sketch_backend.h"

namespace setsketch {

/// Deletion-aware threshold-theta KMV sketch. options().size is the
/// target sample size k; resident state is bounded by ~2k entries.
class ThetaKmvSketch final : public DistinctSketch {
 public:
  explicit ThetaKmvSketch(const BackendOptions& options);

  SketchBackendId backend() const override {
    return SketchBackendId::kThetaKmv;
  }
  const BackendOptions& options() const override { return options_; }

  void Update(uint64_t element, int64_t delta) override;
  bool Merge(const DistinctSketch& other) override;
  double EstimateDistinct() const override;
  double TargetRelativeError() const override;
  bool EstimateExpression(
      const Expression& expr,
      const std::function<const DistinctSketch*(const std::string&)>& leaf,
      double* out, std::string* error) const override;
  bool Empty() const override { return counts_.empty(); }
  size_t MemoryBytes() const override;
  void SerializeTo(std::string* out) const override;
  std::unique_ptr<DistinctSketch> Clone() const override;
  bool Equals(const DistinctSketch& other) const override;

  /// Exclusive sampling threshold; kThetaMax means "everything sampled"
  /// (the sketch is still exact).
  static constexpr uint64_t kThetaMax = ~0ULL;
  uint64_t theta() const { return theta_; }
  size_t SampleSize() const { return counts_.size(); }

  /// Visits every sampled hash (order unspecified); the expression
  /// algebra builds its sample sets through this.
  template <typename Fn>
  void VisitSample(Fn&& fn) const {
    for (const auto& [hash, count] : counts_) fn(hash);
  }

  /// Decodes the backend-specific payload (after the registry consumed the
  /// tagged header). Returns nullptr with *error on malformed input.
  static std::unique_ptr<ThetaKmvSketch> DeserializePayload(
      const std::string& data, size_t* offset, const BackendOptions& options,
      std::string* error);

 private:
  bool Sampled(uint64_t hash) const {
    return theta_ == kThetaMax || hash < theta_;
  }
  /// Restores |sample| <= k by lowering theta to the (k+1)-th smallest
  /// sampled hash (amortized: only runs once the map exceeds 2k).
  void Shrink();

  BackendOptions options_;
  uint64_t theta_ = kThetaMax;
  /// Sampled hash -> net frequency (never zero; zero nets are erased).
  std::unordered_map<uint64_t, int64_t> counts_;
};

}  // namespace setsketch

#endif  // SETSKETCH_CORE_THETA_SKETCH_H_
