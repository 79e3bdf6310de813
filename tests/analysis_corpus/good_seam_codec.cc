// Good: the stream's synopsis goes through the one summary codec, which
// picks the layout from the stream's backend.
// analyze-as: src/query/good_seam_codec.cc
// expect-clean

#include "distributed/summary_codec.h"

namespace setsketch {

void AppendStream(const SketchBank& bank, const std::string& name,
                  std::string* out) {
  EncodeStreamSummary(bank, name, out);
}

bool ReadStream(const std::string& data, size_t* offset,
                StreamSummary* summary, std::string* error) {
  return DecodeStreamSummary(data, offset, summary, error);
}

}  // namespace setsketch
