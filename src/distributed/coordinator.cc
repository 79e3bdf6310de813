#include "distributed/coordinator.h"

#include <unordered_set>

#include "distributed/summary_codec.h"
#include "util/varint.h"

namespace setsketch {

Coordinator::Coordinator(const SketchParams& params, int copies,
                         uint64_t master_seed)
    : coins_(SketchFamily(params, copies, master_seed)) {}

Coordinator::IngestResult Coordinator::AddSiteSummary(
    const std::string& bytes) {
  IngestResult result;
  const auto fail = [&result](std::string message) {
    result.error = std::move(message);
    return result;
  };
  size_t offset = 0;
  if (!ReadVarintString(bytes, &offset, kMaxSiteIdBytes, &result.site)) {
    return fail("truncated or oversized site name");
  }
  if (result.site.empty()) return fail("empty site name");
  uint64_t num_streams = 0;
  if (!ReadVarint(bytes, &offset, &num_streams)) {
    return fail("truncated summary header");
  }
  if (num_streams > bytes.size() - offset) {
    return fail("stream count exceeds summary");
  }
  // Decode into a staging area first so a malformed summary merges nothing.
  std::vector<std::pair<std::string, std::vector<TwoLevelHashSketch>>>
      staged;
  std::unordered_set<std::string> seen;
  for (uint64_t s = 0; s < num_streams; ++s) {
    std::string name;
    if (!ReadVarintString(bytes, &offset, kMaxStreamNameBytes, &name)) {
      return fail("truncated or oversized stream name " + std::to_string(s));
    }
    if (name.empty()) return fail("empty stream name");
    if (!seen.insert(name).second) {
      return fail("duplicate stream '" + name + "' in summary");
    }
    StreamSummary summary;
    std::string why;
    // The agreed coins: the copy count and every copy's seed identity.
    if (!DecodeStreamSummary(bytes, &offset, &coins_,
                             /*counter_budget=*/nullptr, &summary, &why)) {
      return fail("stream '" + name + "' " + why);
    }
    if (summary.backend != 0) {
      return fail("stream '" + name + "' is a " +
                  SketchBackendName(
                      static_cast<SketchBackendId>(summary.backend)) +
                  " synopsis; site summaries carry 2-level hash copies");
    }
    staged.emplace_back(std::move(name), std::move(summary.sketches));
  }
  if (offset != bytes.size()) return fail("trailing bytes after summary");

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
