// The synopsis shape. Sketches combine only when every site drew the
// same stored coins (Section 3.2; Section 4's Gibbons–Tirthapura model):
// here (params, copies, master seed, default backend, backend size).
// SketchConfig declares that shape once, bounds it once (Validate),
// compares it once (operator==) and encodes it once: the cluster hello
// and the engine-snapshot header (engine snapshots, server checkpoints,
// sketchtool bank files) embed the same codec.

#ifndef SETSKETCH_CORE_SKETCH_CONFIG_H_
#define SETSKETCH_CORE_SKETCH_CONFIG_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/sketch_backend.h"
#include "core/sketch_seed.h"

namespace setsketch {

struct SketchConfig {
  /// Sketch shape shared by all streams.
  SketchParams params;
  /// Independent sketch copies r per stream (accuracy knob).
  int copies = 128;
  /// Master seed; fixes all hash functions ("stored coins").
  uint64_t seed = 42;
  /// Sketch backend for newly registered streams (DESIGN.md §3.8). The
  /// default keeps the paper's 2-level hash sketch bit-identical.
  SketchBackendId default_backend = SketchBackendId::kTwoLevelHash;
  /// Size knob for alternative-backend streams (theta sample size k /
  /// SetSketch registers K). Ignored by the default backend.
  uint32_t backend_size = 4096;

  /// The one compatibility predicate: synopses built under equal configs
  /// combine; anything else is foreign coins and is refused.
  friend bool operator==(const SketchConfig& a,
                         const SketchConfig& b) = default;

  /// True iff every field is in bounds: SketchParams::Valid, copies in
  /// [1, kMaxCopies], a known default backend, and backend size in
  /// [kMinBackendSize, kMaxBackendSize]. On false, *error (when
  /// non-null) reads "invalid sketch configuration: " and the first
  /// field out of bounds.
  bool Validate(std::string* error) const;

  /// Bytes of sketch counters one default-backend stream holds: r copies
  /// of levels x 2s int64 counters.
  uint64_t CounterBytesPerStream() const;
};

/// `config` when it validates, else the default SketchConfig: the shape
/// an owner whose Start refuses invalid configs (SketchServer,
/// ClusterRouter) builds its bank from, so constructing the owner never
/// aborts on a shape Start is about to refuse.
SketchConfig ConstructibleConfig(const SketchConfig& config);

/// Appends `config` as eight varints: levels, second-level count,
/// first-level kind, independence, copies, seed, default backend id,
/// backend size.
void EncodeSketchConfig(const SketchConfig& config, std::string* out);

/// Decodes EncodeSketchConfig bytes at data[*offset], advancing *offset.
/// False with *error on truncation or on any config Validate refuses, so
/// no decoder builds a family from an unchecked header.
bool DecodeSketchConfig(std::string_view data, size_t* offset,
                        SketchConfig* out, std::string* error);

}  // namespace setsketch

#endif  // SETSKETCH_CORE_SKETCH_CONFIG_H_
