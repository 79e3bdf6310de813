#include "cluster/hash_ring.h"

#include <algorithm>

#include "hash/prng.h"

namespace setsketch {

HashRing::HashRing(uint64_t seed, int virtual_nodes)
    : seed_(seed), virtual_nodes_(virtual_nodes < 1 ? 1 : virtual_nodes) {}

uint64_t HashRing::HashBytes(std::string_view bytes, uint64_t salt) const {
  // FNV-1a-style fold of the bytes into the (seed, salt) state, then a
  // SplitMix64 finalize pass: the fold separates strings, the finalizer
  // spreads them uniformly around the 64-bit ring.
  uint64_t h = seed_ ^ (salt * 0x9e3779b97f4a7c15ULL);
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return SplitMix64(h).Next();
}

void HashRing::AddNode(const std::string& name) {
  if (std::find(nodes_.begin(), nodes_.end(), name) != nodes_.end()) return;
  nodes_.push_back(name);
  Rebuild();
}

bool HashRing::RemoveNode(const std::string& name) {
  const auto it = std::find(nodes_.begin(), nodes_.end(), name);
  if (it == nodes_.end()) return false;
  nodes_.erase(it);
  Rebuild();
  return true;
}

void HashRing::Rebuild() {
  points_.clear();
  points_.reserve(nodes_.size() * static_cast<size_t>(virtual_nodes_));
  for (size_t n = 0; n < nodes_.size(); ++n) {
    for (int v = 0; v < virtual_nodes_; ++v) {
      points_.emplace_back(
          HashBytes(nodes_[n], static_cast<uint64_t>(v) + 1), n);
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::vector<std::string> HashRing::Targets(std::string_view key,
                                           size_t count) const {
  std::vector<std::string> targets;
  if (points_.empty() || count == 0) return targets;
  const size_t want = std::min(count, nodes_.size());
  targets.reserve(want);
  const uint64_t point = HashBytes(key, /*salt=*/0);
  auto it = std::lower_bound(
      points_.begin(), points_.end(),
      std::make_pair(point, size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<bool> taken(nodes_.size(), false);
  for (size_t walked = 0; walked < points_.size() && targets.size() < want;
       ++walked) {
    if (it == points_.end()) it = points_.begin();  // Wrap around.
    const size_t node = it->second;
    if (!taken[node]) {
      taken[node] = true;
      targets.push_back(nodes_[node]);
    }
    ++it;
  }
  return targets;
}

std::string HashRing::Owner(std::string_view key) const {
  std::vector<std::string> targets = Targets(key, 1);
  return targets.empty() ? std::string() : std::move(targets.front());
}

}  // namespace setsketch
