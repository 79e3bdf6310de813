// Consistent-hash placement for the cluster router.
//
// Stream names are placed on a ring of virtual nodes: each shard
// contributes `virtual_nodes` points derived from (seed, shard name,
// vnode index), and a stream maps to the first `count` DISTINCT shards at
// or clockwise after its own hash point. The two properties the cluster
// relies on:
//
//   * Determinism: placement is a pure function of (seed, member set,
//     virtual_nodes), so every router replica — and every test — computes
//     the same owners with no coordination.
//   * Minimal movement: removing a shard only reassigns the keys that
//     shard owned (they slide to their next clockwise neighbor); adding a
//     shard steals roughly 1/(n+1) of the keyspace and moves nothing
//     else. A modulo placement, by contrast, would reshuffle almost
//     every key on any membership change.

#ifndef SETSKETCH_CLUSTER_HASH_RING_H_
#define SETSKETCH_CLUSTER_HASH_RING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace setsketch {

/// Seeded consistent-hash ring over named nodes. Not thread-safe;
/// membership changes and lookups are the owner's job to serialize (the
/// router holds its placement mutex across ADD_SHARD/DRAIN_SHARD ring
/// mutations and every lookup).
class HashRing {
 public:
  /// `virtual_nodes` points per node (>= 1) smooth the load split; the
  /// seed makes the whole ring deterministic and lets tests re-roll
  /// layouts.
  explicit HashRing(uint64_t seed, int virtual_nodes = 64);

  /// Adds a node (no-op if already present).
  void AddNode(const std::string& name);

  /// Removes a node; returns false if it was not a member.
  bool RemoveNode(const std::string& name);

  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<std::string>& nodes() const { return nodes_; }

  /// The first min(count, num_nodes()) distinct nodes at or clockwise
  /// after `key`'s ring point — owner first, then failover replicas.
  /// Empty when the ring has no nodes.
  std::vector<std::string> Targets(std::string_view key,
                                   size_t count) const;

  /// Targets(key, 1) convenience; empty string when the ring is empty.
  std::string Owner(std::string_view key) const;

 private:
  /// Seeded byte-string hash (FNV-style fold + SplitMix64 finalize).
  uint64_t HashBytes(std::string_view bytes, uint64_t salt) const;

  void Rebuild();

  uint64_t seed_;
  int virtual_nodes_;
  std::vector<std::string> nodes_;  // Insertion order (stable indices).
  /// Ring points sorted by hash; .second indexes nodes_. Ties (vanishing
  /// probability) break by node index so layouts stay deterministic.
  std::vector<std::pair<uint64_t, size_t>> points_;
};

}  // namespace setsketch

#endif  // SETSKETCH_CLUSTER_HASH_RING_H_
