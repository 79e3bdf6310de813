// Tests for the cluster placement layer (cluster/hash_ring.h): seed
// determinism, load balance across virtual nodes, minimal key movement
// on membership changes.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cluster/hash_ring.h"

namespace setsketch {
namespace {

std::vector<std::string> NodeNames(int count) {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    names.push_back("shard-" + std::to_string(i));
  }
  return names;
}

std::vector<std::string> Keys(int count) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    keys.push_back("stream_" + std::to_string(i * 2654435761ULL));
  }
  return keys;
}

HashRing MakeRing(uint64_t seed, int nodes, int virtual_nodes = 64) {
  HashRing ring(seed, virtual_nodes);
  for (const std::string& name : NodeNames(nodes)) ring.AddNode(name);
  return ring;
}

TEST(HashRingTest, EmptyRingHasNoTargets) {
  HashRing ring(7);
  EXPECT_TRUE(ring.Targets("A", 2).empty());
  EXPECT_EQ(ring.Owner("A"), "");
}

TEST(HashRingTest, SingleNodeOwnsEverything) {
  HashRing ring(7);
  ring.AddNode("only");
  for (const std::string& key : Keys(50)) {
    EXPECT_EQ(ring.Owner(key), "only");
    // Asking for more replicas than nodes returns each node once.
    EXPECT_EQ(ring.Targets(key, 3),
              std::vector<std::string>({"only"}));
  }
}

TEST(HashRingTest, TargetsAreDistinctAndOwnerFirst) {
  const HashRing ring = MakeRing(7, 5);
  for (const std::string& key : Keys(200)) {
    const std::vector<std::string> targets = ring.Targets(key, 3);
    ASSERT_EQ(targets.size(), 3u);
    EXPECT_EQ(targets[0], ring.Owner(key));
    EXPECT_NE(targets[0], targets[1]);
    EXPECT_NE(targets[0], targets[2]);
    EXPECT_NE(targets[1], targets[2]);
  }
}

TEST(HashRingTest, SameSeedSameLayoutAcrossInstances) {
  // Placement must be a pure function of (seed, members, virtual_nodes):
  // independently constructed rings agree on every key, which is what
  // lets any router replica compute placement without coordination.
  const HashRing a = MakeRing(42, 4);
  const HashRing b = MakeRing(42, 4);
  for (const std::string& key : Keys(300)) {
    EXPECT_EQ(a.Targets(key, 2), b.Targets(key, 2)) << key;
  }
}

TEST(HashRingTest, DifferentSeedsProduceDifferentLayouts) {
  const HashRing a = MakeRing(1, 4);
  const HashRing b = MakeRing(2, 4);
  int moved = 0;
  const std::vector<std::string> keys = Keys(300);
  for (const std::string& key : keys) {
    if (a.Owner(key) != b.Owner(key)) ++moved;
  }
  // With 4 nodes, ~3/4 of keys should land elsewhere under a fresh seed.
  EXPECT_GT(moved, static_cast<int>(keys.size()) / 2);
}

TEST(HashRingTest, LoadIsRoughlyBalanced) {
  const int kNodes = 5;
  const int kKeys = 5000;
  const HashRing ring = MakeRing(7, kNodes, /*virtual_nodes=*/128);
  std::map<std::string, int> load;
  for (const std::string& key : Keys(kKeys)) ++load[ring.Owner(key)];
  ASSERT_EQ(load.size(), static_cast<size_t>(kNodes));
  const double expected = static_cast<double>(kKeys) / kNodes;
  for (const auto& [node, count] : load) {
    // 128 virtual nodes keep every shard within 2x of the fair share.
    EXPECT_GT(count, expected * 0.5) << node;
    EXPECT_LT(count, expected * 2.0) << node;
  }
}

TEST(HashRingTest, RemovingNodeMovesOnlyItsKeys) {
  // The consistent-hashing contract: keys not owned by the removed node
  // must not move at all.
  HashRing ring = MakeRing(7, 5);
  const std::vector<std::string> keys = Keys(1000);
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) before[key] = ring.Owner(key);

  ASSERT_TRUE(ring.RemoveNode("shard-2"));
  for (const std::string& key : keys) {
    if (before[key] == "shard-2") {
      EXPECT_NE(ring.Owner(key), "shard-2") << key;
    } else {
      EXPECT_EQ(ring.Owner(key), before[key]) << key;
    }
  }
}

TEST(HashRingTest, AddingNodeStealsRoughlyFairShareAndNothingElse) {
  HashRing ring = MakeRing(7, 5, /*virtual_nodes=*/128);
  const std::vector<std::string> keys = Keys(2000);
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) before[key] = ring.Owner(key);

  ring.AddNode("shard-new");
  int moved = 0;
  for (const std::string& key : keys) {
    const std::string owner = ring.Owner(key);
    if (owner == before[key]) continue;
    // Every moved key must have moved TO the new node.
    EXPECT_EQ(owner, "shard-new") << key;
    ++moved;
  }
  // The new node should steal about 1/6 of the keyspace; allow 2.5x.
  const double fair = static_cast<double>(keys.size()) / 6.0;
  EXPECT_GT(moved, static_cast<int>(fair * 0.4));
  EXPECT_LT(moved, static_cast<int>(fair * 2.5));
}

TEST(HashRingTest, RemoveUnknownNodeIsRejected) {
  HashRing ring = MakeRing(7, 3);
  EXPECT_FALSE(ring.RemoveNode("no-such-shard"));
  EXPECT_EQ(ring.num_nodes(), 3u);
  // Double-add is a no-op, not a duplicate membership.
  ring.AddNode("shard-0");
  EXPECT_EQ(ring.num_nodes(), 3u);
}

}  // namespace
}  // namespace setsketch
