// The service shell both TCP services share (server/service_host.h): the
// STATS text each one renders from its one stats list, key for key and
// in order, and the router's thread-per-connection readers, which must
// be joined when their connection ends rather than when the router stops.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster_router.h"
#include "server/sketch_client.h"
#include "server/sketch_server.h"

namespace setsketch {
namespace {

SketchServer::Options ShardOptions() {
  SketchServer::Options options;
  options.params.levels = 8;
  options.params.num_second_level = 4;
  options.copies = 4;
  options.shards = 1;
  return options;
}

ClusterRouter::Options OneShardRouter(const SketchServer& shard) {
  ClusterRouter::Options options;
  options.params = shard.options().params;
  options.copies = shard.options().copies;
  options.seed = shard.options().seed;
  options.replicas = 0;
  options.shards.push_back(ClusterShard{"s0", "127.0.0.1", shard.port()});
  return options;
}

std::string StatsText(int port) {
  std::string error;
  const std::unique_ptr<SketchClient> client =
      SketchClient::Connect("127.0.0.1", port, &error);
  EXPECT_NE(client, nullptr) << error;
  std::string text;
  if (client != nullptr) {
    EXPECT_TRUE(client->Stats(&text).ok);
  }
  return text;
}

/// The first word of every line: the STATS keys in order.
std::vector<std::string> LineKeys(const std::string& text) {
  std::vector<std::string> keys;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    keys.push_back(line.substr(0, line.find(' ')));
  }
  return keys;
}

/// The key of every " key=value" pair of a router per-shard line.
std::vector<std::string> PairKeys(const std::string& line) {
  std::vector<std::string> keys;
  std::istringstream words(line);
  std::string word;
  while (words >> word) {
    const size_t eq = word.find('=');
    if (eq != std::string::npos) keys.push_back(word.substr(0, eq));
  }
  return keys;
}

TEST(GoldenStatsTest, ServerKeysInOrder) {
  SketchServer server(ShardOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const std::vector<std::string> expected = {
      "connections_accepted",
      "connections_active",
      "frames_received",
      "protocol_errors",
      "batches_accepted",
      "batches_rejected",
      "updates_enqueued",
      "updates_applied",
      "summaries_accepted",
      "summaries_rejected",
      "queries_answered",
      "duplicates_dropped",
      "wal_records",
      "wal_bytes",
      "wal_generation",
      "snapshots_written",
      "recoveries",
      "recovered_batches",
      "recovered_updates",
      "streams",
      "shards",
      "queue_capacity",
      "plan_cache_hits",
      "plan_cache_misses",
      "plan_cache_invalidations",
      "plan_cache_merge_builds",
      "plan_cache_backend_queries",
      "plan_cache_entries",
      "plan_cache_memo_bytes",
      "backend_default",
      "backend_streams",
      "dedup_sites",
      "dedup_window_bits",
      "summary_pulls",
      "repair_pulls",
      "repair_installs",
      "uptime_ms",
      "ingest_io_threads",
      "ingest_bytes_read",
      "ingest_read_calls",
      "ingest_max_frames_per_read",
      "ingest_arena_hwm_bytes",
      "ingest_frames_per_read",
  };
  const std::string text = StatsText(server.port());
  EXPECT_EQ(LineKeys(text), expected) << text;
  // The text values the list renders by type.
  EXPECT_NE(text.find("\nbackend_default two_level_hash\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\ningest_frames_per_read 0.00\n"), std::string::npos)
      << text;
  server.Stop();
}

TEST(GoldenStatsTest, RouterKeysInOrder) {
  SketchServer shard(ShardOptions());
  std::string error;
  ASSERT_TRUE(shard.Start(&error)) << error;
  ClusterRouter router(OneShardRouter(shard));
  ASSERT_TRUE(router.Start(&error)) << error;
  ASSERT_EQ(router.ProbeAll(), 1u);
  const std::vector<std::string> expected = {
      "shards",
      "healthy_shards",
      "refused_shards",
      "stale_shards",
      "removed_shards",
      "replicas",
      "placement",
      "read_policy",
      "connections_accepted",
      "connections_active",
      "frames_received",
      "protocol_errors",
      "pushes_forwarded",
      "push_bounces",
      "subbatches_forwarded",
      "updates_forwarded",
      "forward_failures",
      "failovers",
      "queries_answered",
      "degraded_answers",
      "summary_pulls",
      "summary_streams_full",
      "summary_streams_unchanged",
      "probes",
      "repairs",
      "readmissions",
      "uptime_ms",
      "shard",
  };
  const std::string text = StatsText(router.port());
  EXPECT_EQ(LineKeys(text), expected) << text;
  EXPECT_NE(text.find("\nplacement ring\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nread_policy strict\n"), std::string::npos) << text;
  // The healthy shard's line carries its own ingest_* lines as pairs.
  const std::string shard_line = text.substr(text.rfind("shard s0 "));
  const std::vector<std::string> shard_keys = {
      "host",
      "port",
      "healthy",
      "refused",
      "stale",
      "removed",
      "failures",
      "ingest_io_threads",
      "ingest_bytes_read",
      "ingest_read_calls",
      "ingest_max_frames_per_read",
      "ingest_arena_hwm_bytes",
      "ingest_frames_per_read",
  };
  EXPECT_EQ(PairKeys(shard_line), shard_keys) << shard_line;
  router.Stop();
  shard.Stop();
}

/// Mappings in this process's address space: each unjoined exited thread
/// keeps its stack (and guard page) mapped.
size_t MappedRegions() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  std::string line;
  while (std::getline(maps, line)) ++lines;
  return lines;
}

TEST(RouterConnectionTest, ClosedConnectionsReleaseTheirThreads) {
  SketchServer shard(ShardOptions());
  std::string error;
  ASSERT_TRUE(shard.Start(&error)) << error;
  ClusterRouter router(OneShardRouter(shard));
  ASSERT_TRUE(router.Start(&error)) << error;

  const auto cycle = [&] {
    const std::unique_ptr<SketchClient> client =
        SketchClient::Connect("127.0.0.1", router.port(), &error);
    ASSERT_NE(client, nullptr) << error;
    ASSERT_TRUE(client->Ping().ok);
  };
  // Warm up: the first connections map allocator arenas and the like.
  for (int i = 0; i < 8; ++i) cycle();
  const size_t before = MappedRegions();
  for (int i = 0; i < 256; ++i) cycle();
  const size_t after = MappedRegions();
  // A leaked thread stack is about two mappings per connection (512 for
  // 256 cycles); a joined one returns them, up to the few readers still
  // finishing when the count is taken.
  EXPECT_LE(after, before + 32) << "before " << before << ", after " << after;
  EXPECT_EQ(router.stats().connections_accepted, 264u);
  router.Stop();
  shard.Stop();
}

}  // namespace
}  // namespace setsketch
