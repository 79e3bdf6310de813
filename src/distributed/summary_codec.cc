#include "distributed/summary_codec.h"

#include <cstring>

#include "util/check.h"

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
                         const SketchBank* receiver, uint64_t* counter_budget,
                         StreamSummary* out, std::string* error) {
  SETSKETCH_CHECK(counter_budget == nullptr || receiver != nullptr);
  *out = StreamSummary{};
  if (*offset >= data.size()) {
    *error = "truncated summary";
    return false;
  }
  const uint8_t backend = static_cast<uint8_t>(data[*offset]);
  if (backend != 0) {
    std::unique_ptr<DistinctSketch> sketch = DeserializeDistinctSketch(
        data, offset,
        receiver != nullptr ? &receiver->backend_options() : nullptr, error);
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
  if (receiver != nullptr &&
      copies != static_cast<uint32_t>(receiver->num_copies())) {
    *error = "carries " + std::to_string(copies) +
             " sketch copies, expected " +
             std::to_string(receiver->num_copies());
    return false;
  }
  // Every copy costs at least one byte: refuse absurd counts before
  // reserving for them.
  if (copies > data.size() - *offset) {
    *error = "copy count exceeds payload";
    return false;
  }
  if (counter_budget != nullptr) {
    const SketchParams& params = receiver->family().params();
    const uint64_t counter_bytes =
        uint64_t{copies} * static_cast<uint64_t>(params.levels) * 2 *
        static_cast<uint64_t>(params.num_second_level) * sizeof(int64_t);
    if (counter_bytes > *counter_budget) {
      *error = "needs " + std::to_string(counter_bytes >> 20) +
               " MiB of sketch counters, over the " +
               std::to_string(*counter_budget >> 20) +
               " MiB this decode has left";
      return false;
    }
    *counter_budget -= counter_bytes;
  }
  out->sketches.reserve(copies);
  for (uint32_t i = 0; i < copies; ++i) {
    std::string why;
    std::unique_ptr<TwoLevelHashSketch> sketch =
        TwoLevelHashSketch::Deserialize(
            data, offset,
            receiver != nullptr ? receiver->family().seed(static_cast<int>(i))
                                : nullptr,
            &why);
    if (!sketch) {
      *error = "copy " + std::to_string(i) + " " + why;
      return false;
    }
    out->sketches.push_back(std::move(*sketch));
  }
  return true;
}

}  // namespace setsketch
