#include "distributed/summary_codec.h"

#include <cstring>

namespace setsketch {

namespace {

void AppendCopies(const std::vector<TwoLevelHashSketch>& sketches,
                  std::string* out) {
  out->push_back(static_cast<char>(SketchBackendId::kTwoLevelHash));
  const uint32_t copies = static_cast<uint32_t>(sketches.size());
  out->append(reinterpret_cast<const char*>(&copies), sizeof(copies));
  for (const TwoLevelHashSketch& sketch : sketches) {
    sketch.SerializeCompactTo(out);
  }
}

}  // namespace

void EncodeStreamSummary(const StreamSummary& summary, std::string* out) {
  if (summary.backend != 0) {
    summary.backend_sketch->SerializeTo(out);
    return;
  }
  AppendCopies(summary.sketches, out);
}

void EncodeStreamSummary(const SketchBank& bank, const std::string& name,
                         std::string* out) {
  if (const DistinctSketch* sketch = bank.BackendSketch(name)) {
    sketch->SerializeTo(out);
    return;
  }
  AppendCopies(bank.Sketches(name), out);
}

bool DecodeStreamSummary(const std::string& data, size_t* offset,
                         StreamSummary* out, std::string* error) {
  *out = StreamSummary{};
  if (*offset >= data.size()) {
    *error = "truncated summary";
    return false;
  }
  const uint8_t backend = static_cast<uint8_t>(data[*offset]);
  if (backend != 0) {
    std::unique_ptr<DistinctSketch> sketch =
        DeserializeDistinctSketch(data, offset, error);
    if (sketch == nullptr) return false;
    out->backend = backend;
    out->backend_sketch = std::move(sketch);
    return true;
  }
  ++*offset;
  uint32_t copies = 0;
  if (data.size() - *offset < sizeof(copies)) {
    *error = "truncated copy count";
    return false;
  }
  std::memcpy(&copies, data.data() + *offset, sizeof(copies));
  *offset += sizeof(copies);
  // Every copy costs at least one byte: refuse absurd counts before
  // reserving for them.
  if (copies > data.size() - *offset) {
    *error = "copy count exceeds payload";
    return false;
  }
  out->sketches.reserve(copies);
  for (uint32_t i = 0; i < copies; ++i) {
    std::unique_ptr<TwoLevelHashSketch> sketch =
        TwoLevelHashSketch::Deserialize(data, offset);
    if (!sketch) {
      *error = "malformed sketch copy " + std::to_string(i);
      return false;
    }
    out->sketches.push_back(std::move(*sketch));
  }
  return true;
}

}  // namespace setsketch
