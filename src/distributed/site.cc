#include "distributed/site.h"

#include "distributed/summary_codec.h"
#include "util/varint.h"

namespace setsketch {

Site::Site(std::string site_name, const SketchParams& params, int copies,
           uint64_t master_seed)
    : name_(std::move(site_name)),
      bank_(SketchFamily(params, copies, master_seed)) {}

void Site::ObserveStream(const std::string& stream_name) {
  if (bank_.AddStream(stream_name)) streams_.push_back(stream_name);
}

bool Site::Ingest(const std::string& stream_name, uint64_t element,
                  int64_t delta) {
  if (!bank_.Apply(stream_name, element, delta)) return false;
  ++updates_processed_;
  return true;
}

std::string Site::EncodeSummary() const {
  // Layout: site name (varint length + bytes), varint stream count, then
  // per stream its name (same form) and its synopsis
  // (distributed/summary_codec.h). The site name lets the coordinator
  // treat retransmissions as replacements (idempotent periodic
  // collection) instead of double-counting.
  std::string out;
  AppendVarintString(&out, name_);
  AppendVarint(&out, streams_.size());
  for (const std::string& stream : streams_) {
    AppendVarintString(&out, stream);
    EncodeStreamSummary(bank_, stream, &out);
  }
  return out;
}

}  // namespace setsketch
