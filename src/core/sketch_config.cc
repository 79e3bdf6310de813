#include "core/sketch_config.h"

#include <limits>

#include "util/varint.h"

namespace setsketch {

bool SketchConfig::Validate(std::string* error) const {
  const auto refuse = [error](const std::string& why) {
    if (error != nullptr) *error = "invalid sketch configuration: " + why;
    return false;
  };
  const auto outside = [](uint64_t lo, uint64_t hi) {
    return " outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
           "]";
  };
  if (!params.Valid()) {
    return refuse("invalid sketch parameters (levels " +
                  std::to_string(params.levels) + ", s " +
                  std::to_string(params.num_second_level) + ", t " +
                  std::to_string(params.independence) + ")");
  }
  if (copies < 1 || copies > kMaxCopies) {
    return refuse("copies " + std::to_string(copies) +
                  outside(1, kMaxCopies));
  }
  if (!KnownSketchBackend(static_cast<uint8_t>(default_backend))) {
    return refuse("unknown default backend " +
                  std::to_string(static_cast<int>(default_backend)));
  }
  if (backend_size < kMinBackendSize || backend_size > kMaxBackendSize) {
    return refuse("backend size " + std::to_string(backend_size) +
                  outside(kMinBackendSize, kMaxBackendSize));
  }
  return true;
}

uint64_t SketchConfig::CounterBytesPerStream() const {
  return static_cast<uint64_t>(copies) *
         static_cast<uint64_t>(params.levels) * 2 *
         static_cast<uint64_t>(params.num_second_level) * sizeof(int64_t);
}

SketchConfig ConstructibleConfig(const SketchConfig& config) {
  return config.Validate(nullptr) ? config : SketchConfig{};
}

void EncodeSketchConfig(const SketchConfig& config, std::string* out) {
  const SketchParams& p = config.params;
  for (const uint64_t field :
       {static_cast<uint64_t>(p.levels),
        static_cast<uint64_t>(p.num_second_level),
        static_cast<uint64_t>(p.first_level_kind),
        static_cast<uint64_t>(p.independence),
        static_cast<uint64_t>(config.copies), config.seed,
        static_cast<uint64_t>(config.default_backend),
        static_cast<uint64_t>(config.backend_size)}) {
    AppendVarint(out, field);
  }
}

bool DecodeSketchConfig(std::string_view data, size_t* offset,
                        SketchConfig* out, std::string* error) {
  // Each field's narrowest type, bounded before narrowing so no varint
  // wraps into range.
  constexpr uint64_t kInt = std::numeric_limits<int>::max();
  constexpr uint64_t kLimits[8] = {kInt, kInt, 0xff,
                                   kInt, kInt, ~uint64_t{0},
                                   0xff, std::numeric_limits<uint32_t>::max()};
  uint64_t f[8];
  for (size_t i = 0; i < 8; ++i) {
    if (!ReadVarint(data, offset, &f[i]) || f[i] > kLimits[i]) {
      *error = "malformed sketch configuration field " + std::to_string(i);
      return false;
    }
  }
  out->params.levels = static_cast<int>(f[0]);
  out->params.num_second_level = static_cast<int>(f[1]);
  out->params.first_level_kind = static_cast<FirstLevelKind>(f[2]);
  out->params.independence = static_cast<int>(f[3]);
  out->copies = static_cast<int>(f[4]);
  out->seed = f[5];
  out->default_backend = static_cast<SketchBackendId>(f[6]);
  out->backend_size = static_cast<uint32_t>(f[7]);
  return out->Validate(error);
}

}  // namespace setsketch
