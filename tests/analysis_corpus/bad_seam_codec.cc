// Bad: a snapshot writer laying out a stream's copies and a backend
// synopsis by hand — a second encoding of the unit the summary codec owns.
// analyze-as: src/query/bad_seam_codec.cc
// expect: seam-codec

#include "core/sketch_bank.h"

namespace setsketch {

void AppendStream(const SketchBank& bank, const std::string& name,
                  std::string* out) {
  if (const DistinctSketch* sketch = bank.BackendSketch(name)) {
    sketch->SerializeTo(out);
    return;
  }
  for (const TwoLevelHashSketch& copy : bank.Sketches(name)) {
    copy.SerializeCompactTo(out);
  }
}

bool ReadCopy(const std::string& data, size_t* offset) {
  return TwoLevelHashSketch::Deserialize(data, offset) != nullptr;
}

}  // namespace setsketch
