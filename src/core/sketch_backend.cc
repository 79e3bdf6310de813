#include "core/sketch_backend.h"

#include "core/set_sketch.h"
#include "core/theta_sketch.h"
#include "util/varint.h"

namespace setsketch {

const char* SketchBackendName(SketchBackendId id) {
  switch (id) {
    case SketchBackendId::kTwoLevelHash:
      return "two_level_hash";
    case SketchBackendId::kThetaKmv:
      return "theta_kmv";
    case SketchBackendId::kSetSketch:
      return "set_sketch";
  }
  return "unknown";
}

bool ParseSketchBackendName(std::string_view name, SketchBackendId* id) {
  for (uint8_t raw = 0; raw <= kMaxSketchBackendId; ++raw) {
    const auto candidate = static_cast<SketchBackendId>(raw);
    if (name == SketchBackendName(candidate)) {
      *id = candidate;
      return true;
    }
  }
  return false;
}

bool KnownSketchBackend(uint8_t id) { return id <= kMaxSketchBackendId; }

std::unique_ptr<DistinctSketch> CreateDistinctSketch(
    SketchBackendId id, const BackendOptions& options) {
  switch (id) {
    case SketchBackendId::kTwoLevelHash:
      return nullptr;  // Bank-native; not a DistinctSketch.
    case SketchBackendId::kThetaKmv:
      return std::make_unique<ThetaKmvSketch>(options);
    case SketchBackendId::kSetSketch:
      return std::make_unique<SetSketchBackend>(options);
  }
  return nullptr;
}

std::unique_ptr<DistinctSketch> DeserializeDistinctSketch(
    const std::string& data, size_t* offset, const BackendOptions* expected,
    std::string* error) {
  if (*offset >= data.size()) {
    *error = "truncated sketch backend tag";
    return nullptr;
  }
  const uint8_t tag = static_cast<uint8_t>(data[*offset]);
  ++*offset;
  if (!KnownSketchBackend(tag) ||
      tag == static_cast<uint8_t>(SketchBackendId::kTwoLevelHash)) {
    *error = "unknown sketch backend tag";
    return nullptr;
  }
  uint64_t size = 0;
  BackendOptions options;
  if (!ReadVarint(data, offset, &size) ||
      !ReadVarint(data, offset, &options.seed)) {
    *error = "truncated sketch backend options";
    return nullptr;
  }
  if (size < kMinBackendSize || size > kMaxBackendSize) {
    *error = "sketch backend size out of bounds";
    return nullptr;
  }
  options.size = static_cast<uint32_t>(size);
  if (expected != nullptr && !(options == *expected)) {
    *error = "uses a foreign backend configuration (size/seed)";
    return nullptr;
  }
  switch (static_cast<SketchBackendId>(tag)) {
    case SketchBackendId::kThetaKmv:
      return ThetaKmvSketch::DeserializePayload(data, offset, options, error);
    case SketchBackendId::kSetSketch:
      return SetSketchBackend::DeserializePayload(data, offset, options,
                                                  error);
    case SketchBackendId::kTwoLevelHash:
      break;  // Rejected above.
  }
  *error = "unknown sketch backend tag";
  return nullptr;
}

BackendEstimate EstimateWithBackend(
    const Expression& expr,
    const std::function<const DistinctSketch*(const std::string&)>& leaf) {
  BackendEstimate result;
  const DistinctSketch* representative = nullptr;
  for (const std::string& name : expr.StreamNames()) {
    const DistinctSketch* sketch = leaf(name);
    if (sketch == nullptr) {
      result.error = "stream '" + name + "' has no backend sketch";
      return result;
    }
    if (representative == nullptr) {
      representative = sketch;
    } else if (sketch->backend() != representative->backend() ||
               !(sketch->options() == representative->options())) {
      result.error = "mixed sketch backends in one expression ('" + name +
                     "' is " + SketchBackendName(sketch->backend()) + ")";
      return result;
    }
  }
  if (representative == nullptr) {
    result.error = "expression references no streams";
    return result;
  }
  result.backend = representative->backend();
  if (!representative->EstimateExpression(expr, leaf, &result.estimate,
                                          &result.error)) {
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace setsketch
