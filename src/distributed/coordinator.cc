#include "distributed/coordinator.h"

#include "distributed/summary_codec.h"

namespace setsketch {

Coordinator::Coordinator(const SketchParams& params, int copies,
                         uint64_t master_seed)
    : params_(params), copies_(copies), master_seed_(master_seed) {
  const SketchFamily family(params, copies, master_seed);
  expected_seeds_.reserve(static_cast<size_t>(copies));
  for (int i = 0; i < copies; ++i) expected_seeds_.push_back(family.seed(i));
}

Coordinator::IngestResult Coordinator::AddSiteSummary(
    const std::string& bytes) {
  IngestResult result;
  size_t offset = 0;
  uint32_t site_name_length = 0;
  if (!SummaryReadU32(bytes, &offset, &site_name_length) ||
      bytes.size() - offset < site_name_length) {
    result.error = "truncated site name";
    return result;
  }
  result.site = bytes.substr(offset, site_name_length);
  offset += site_name_length;
  uint32_t num_streams = 0;
  if (!SummaryReadU32(bytes, &offset, &num_streams)) {
    result.error = "truncated summary header";
    return result;
  }
  // Decode into a staging area first so a malformed summary merges nothing.
  std::vector<std::pair<std::string, std::vector<TwoLevelHashSketch>>>
      staged;
  for (uint32_t s = 0; s < num_streams; ++s) {
    uint32_t name_len = 0;
    if (!SummaryReadU32(bytes, &offset, &name_len) ||
        bytes.size() - offset < name_len) {
      result.error = "truncated stream name";
      return result;
    }
    std::string name = bytes.substr(offset, name_len);
    offset += name_len;
    // The shared codec verifies the agreed coins (same seed identity per
    // copy as our expectation) while it decodes.
    std::vector<TwoLevelHashSketch> sketches;
    std::string decode_error;
    if (!DecodeSketchVector(bytes, &offset, copies_, &expected_seeds_,
                            &sketches, &decode_error)) {
      result.error = "stream '" + name + "' " + decode_error;
      return result;
    }
    staged.emplace_back(std::move(name), std::move(sketches));
  }
  if (offset != bytes.size()) {
    result.error = "trailing bytes after summary";
    return result;
  }

  // Install as this site's latest summary (replacing any earlier one) and
  // invalidate the cached global view.
  auto& site_streams = site_summaries_[result.site];
  result.replaced = !site_streams.empty();
  site_streams.clear();
  for (auto& [name, sketches] : staged) {
    site_streams.emplace(std::move(name), std::move(sketches));
    ++result.streams_merged;
  }
  merged_valid_ = false;
  result.ok = true;
  return result;
}

void Coordinator::EnsureMerged() const {
  if (merged_valid_) return;
  merged_.clear();
  // Linearity: same-stream sketches from different sites add.
  for (const auto& [site, streams] : site_summaries_) {
    for (const auto& [name, sketches] : streams) {
      auto it = merged_.find(name);
      if (it == merged_.end()) {
        merged_.emplace(name, sketches);
      } else {
        for (size_t i = 0; i < sketches.size(); ++i) {
          it->second[i].Merge(sketches[i]);
        }
      }
    }
  }
  merged_valid_ = true;
}

std::vector<std::string> Coordinator::SiteNames() const {
  std::vector<std::string> names;
  names.reserve(site_summaries_.size());
  for (const auto& [site, streams] : site_summaries_) {
    names.push_back(site);
  }
  return names;
}

std::vector<std::string> Coordinator::StreamNames() const {
  EnsureMerged();
  std::vector<std::string> names;
  names.reserve(merged_.size());
  for (const auto& [name, sketches] : merged_) names.push_back(name);
  return names;
}

const std::vector<TwoLevelHashSketch>* Coordinator::Sketches(
    const std::string& stream_name) const {
  EnsureMerged();
  auto it = merged_.find(stream_name);
  return it == merged_.end() ? nullptr : &it->second;
}

}  // namespace setsketch
