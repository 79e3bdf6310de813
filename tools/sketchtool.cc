// sketchtool: command-line front end for building, inspecting, merging,
// querying and *serving* 2-level hash sketch banks.
//
//   sketchtool build    --updates u.txt --out bank.bin
//                       [--streams A,B,C] [--copies 128] [--seed 42]
//                       [--levels 32] [--second-level 32]
//                       [--kwise t]           (t-wise poly first level)
//   sketchtool info     --bank bank.bin
//   sketchtool merge    --inputs a.bin,b.bin[,...] --out merged.bin
//   sketchtool estimate --bank bank.bin --expr "(A - B) & C"
//                       [--strict]            (single-level witnesses)
//
// TCP serving (see src/server/):
//
//   sketchtool serve    [--port 0] [--bind 127.0.0.1] [--copies 128]
//                       [--seed 42] [--levels 32] [--second-level 32]
//                       [--shards 2] [--queue-capacity 64]
//                       [--wal-dir DIR] [--wal-shards 2] [--no-wal-fsync]
//                       [--snapshot-bytes N] [--io-timeout-ms 30000]
//                       [--idle-timeout-ms 0] [--io-threads 1]
//                       [--read-chunk-bytes 262144] [--pin-shards]
//                       [--backend-sketch two_level_hash|theta_kmv|
//                        set_sketch] [--backend-size 4096]
//                       (--backend-sketch picks the synopsis registered
//                        for streams first seen WITHOUT an explicit
//                        client tag; --backend-size sizes the
//                        alternative backends. Both are part of the
//                        server's config fingerprint: peers with a
//                        different backend config are refused at hello,
//                        exactly like mismatched stored coins.)
//                       (--io-threads epoll loops multiplex all
//                        connections and decode frames zero-copy;
//                        --pin-shards pins shard workers and io threads
//                        to cpus)
//                       (prints "listening on <addr>:<port>", runs until
//                        `sketchtool shutdown`; with --wal-dir, accepted
//                        batches are crash-safe and a restart pointing at
//                        the same directory recovers them)
//   sketchtool push     --port P --updates u.txt [--host 127.0.0.1]
//                       [--streams A,B,C] [--batch 4096]
//                       [--batch-bytes 0] [--site ID]
//                       [--seq-start 1] [--io-timeout-ms 30000]
//                       [--connect-timeout-ms 5000]
//                       [--backend-sketch two_level_hash|theta_kmv|
//                        set_sketch]
//                       (--backend-sketch tags every stream in the push
//                        so unseen streams are registered under that
//                        synopsis; the server refuses the push if a
//                        stream already lives under a different one)
//                       (--batch-bytes slices frames by encoded payload
//                        size instead of update count — wider frames
//                        feed the server's batched ingest path)
//                       (--site makes the push idempotent: a retried or
//                        re-run push with the same site and seq-start is
//                        deduplicated, never double-counted)
//   sketchtool route    --shards H:P[,H:P...] [--port 0] [--bind ...]
//                       [--replicas 1]
//                       [--virtual-nodes 64] [--placement-seed 7]
//                       [--copies 128] [--seed 42] [--levels 32]
//                       [--second-level 32] [--probe-interval-ms 0]
//                       [--io-timeout-ms 30000] [--idle-timeout-ms 0]
//                       [--shard-io-timeout-ms 10000]
//                       [--connect-timeout-ms 2000]
//                       [--read-policy strict|available]
//                       [--probe-backoff-initial-ms 100]
//                       [--probe-backoff-cap-ms 5000]
//                       [--flap-threshold 1] [--no-auto-repair]
//                       [--max-dynamic-shards 16]
//                       [--backend-sketch two_level_hash|theta_kmv|
//                        set_sketch] [--backend-size 4096]
//                       (federating router: clients push/query it like a
//                        single server; streams are placed on shards by a
//                        seeded consistent-hash ring, writes fan out to
//                        owner + replicas, queries pull per-stream
//                        summaries and merge through the shared
//                        estimator kernel; a crashed-and-restarted shard
//                        is repaired from healthy replicas and re-admitted
//                        live — no router restart)
//   sketchtool route add-shard   --router H:P --shard H:P [--name NAME]
//                       (online membership: vets the joining server,
//                        migrates only the ring segment it takes over,
//                        then flips placement — dual-writes cover the
//                        transfer window)
//   sketchtool route drain-shard --router H:P --name NAME
//                       (migrates the named shard's segment to its ring
//                        successors, then removes it from placement)
//   sketchtool query    --port P --expr "(A - B) & C" [--host ...]
//   sketchtool explain  --port P --expr "(A - B) & C" [--host ...]
//                       (the planner's report: canonical plan, shared
//                        sub-expressions, plan-cache/epoch state)
//   sketchtool stats    --port P [--host ...]
//   sketchtool shutdown --port P [--host ...]
//
// Update files are plain text: "stream element delta" per line, '#'
// comments allowed. Banks built with the same seed and parameters can be
// merged across machines (the stored-coins model).

#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster_commands.h"
#include "core/sketch_backend.h"
#include "server/server_commands.h"
#include "tools/commands.h"
#include "util/flags.h"

namespace {

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      if (start < text.size()) parts.push_back(text.substr(start));
      break;
    }
    if (comma > start) parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

int Usage() {
  std::cerr << "usage: sketchtool "
               "<build|info|merge|estimate|serve|route|push|query|explain|"
               "stats|shutdown> [flags]\n"
               "  build    --updates FILE --out FILE [--streams A,B,..]\n"
               "           [--copies N] [--seed N] [--levels N]\n"
               "           [--second-level N] [--kwise T]\n"
               "  info     --bank FILE\n"
               "  merge    --inputs A,B[,..] --out FILE\n"
               "  estimate --bank FILE --expr EXPRESSION [--strict]\n"
               "  serve    [--port N] [--bind ADDR] [--copies N] [--seed N]\n"
               "           [--levels N] [--second-level N] [--shards N]\n"
               "           [--queue-capacity N] [--wal-dir DIR]\n"
               "           [--wal-shards N] [--no-wal-fsync]\n"
               "           [--snapshot-bytes N] [--io-timeout-ms N]\n"
               "           [--idle-timeout-ms N] [--io-threads N]\n"
               "           [--read-chunk-bytes N] [--pin-shards]\n"
               "           [--backend-sketch NAME] [--backend-size N]\n"
               "  route    --shards H:P[,H:P..] [--port N] [--bind ADDR]\n"
               "           [--replicas N]\n"
               "           [--virtual-nodes N] [--placement-seed N]\n"
               "           [--copies N] [--seed N] [--levels N]\n"
               "           [--second-level N] [--probe-interval-ms N]\n"
               "           [--io-timeout-ms N] [--idle-timeout-ms N]\n"
               "           [--shard-io-timeout-ms N]\n"
               "           [--connect-timeout-ms N]\n"
               "           [--read-policy strict|available]\n"
               "           [--probe-backoff-initial-ms N]\n"
               "           [--probe-backoff-cap-ms N]\n"
               "           [--flap-threshold N] [--no-auto-repair]\n"
               "           [--max-dynamic-shards N]\n"
               "           [--backend-sketch NAME] [--backend-size N]\n"
               "  route add-shard   --router H:P --shard H:P [--name S]\n"
               "  route drain-shard --router H:P --name S\n"
               "  push     --port N --updates FILE [--host ADDR]\n"
               "           [--streams A,B,..] [--batch N]\n"
               "           [--batch-bytes N] [--site ID]\n"
               "           [--seq-start N] [--io-timeout-ms N]\n"
               "           [--connect-timeout-ms N]\n"
               "           [--backend-sketch NAME]\n"
               "  query    --port N --expr EXPRESSION [--host ADDR]\n"
               "  explain  --port N --expr EXPRESSION [--host ADDR]\n"
               "  stats    --port N [--host ADDR]\n"
               "  shutdown --port N [--host ADDR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace setsketch;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags = Flags::Parse(argc - 1, argv + 1);

  CommandResult result;
  if (command == "build") {
    BuildSpec spec;
    spec.updates_path = flags.GetString("updates", "");
    spec.output_path = flags.GetString("out", "");
    if (spec.updates_path.empty() || spec.output_path.empty()) {
      return Usage();
    }
    spec.stream_names = SplitCommaList(flags.GetString("streams", ""));
    spec.copies = static_cast<int>(flags.GetInt("copies", 128));
    spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    spec.params.levels = static_cast<int>(flags.GetInt("levels", 32));
    spec.params.num_second_level =
        static_cast<int>(flags.GetInt("second-level", 32));
    if (flags.Has("kwise")) {
      spec.params.first_level_kind = FirstLevelKind::kKWisePoly;
      spec.params.independence =
          static_cast<int>(flags.GetInt("kwise", 8));
    }
    result = RunBuild(spec);
  } else if (command == "info") {
    const std::string bank = flags.GetString("bank", "");
    if (bank.empty()) return Usage();
    result = RunInfo(bank);
  } else if (command == "merge") {
    const std::vector<std::string> inputs =
        SplitCommaList(flags.GetString("inputs", ""));
    const std::string out = flags.GetString("out", "");
    if (inputs.empty() || out.empty()) return Usage();
    result = RunMerge(inputs, out);
  } else if (command == "estimate") {
    const std::string bank = flags.GetString("bank", "");
    const std::string expr = flags.GetString("expr", "");
    if (bank.empty() || expr.empty()) return Usage();
    result = RunEstimate(bank, expr, !flags.GetBool("strict", false));
  } else if (command == "serve") {
    SketchServer::Options options;
    options.port = static_cast<int>(flags.GetInt("port", 0));
    options.bind_address = flags.GetString("bind", "127.0.0.1");
    options.copies = static_cast<int>(flags.GetInt("copies", 128));
    options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    options.params.levels = static_cast<int>(flags.GetInt("levels", 32));
    options.params.num_second_level =
        static_cast<int>(flags.GetInt("second-level", 32));
    options.shards = static_cast<int>(flags.GetInt("shards", 2));
    options.queue_capacity =
        static_cast<size_t>(flags.GetInt("queue-capacity", 64));
    options.witness.pool_all_levels = true;
    options.wal_dir = flags.GetString("wal-dir", "");
    options.wal_shards = static_cast<int>(flags.GetInt("wal-shards", 2));
    options.wal_fsync = !flags.GetBool("no-wal-fsync", false);
    options.snapshot_every_bytes =
        static_cast<uint64_t>(flags.GetInt("snapshot-bytes", 0));
    options.io_timeout_ms =
        static_cast<int>(flags.GetInt("io-timeout-ms", 30000));
    options.idle_timeout_ms =
        static_cast<int>(flags.GetInt("idle-timeout-ms", 0));
    options.io_threads = static_cast<int>(flags.GetInt("io-threads", 1));
    options.read_chunk_bytes =
        static_cast<size_t>(flags.GetInt("read-chunk-bytes", 256 << 10));
    options.pin_shards = flags.GetBool("pin-shards", false);
    const std::string backend_sketch =
        flags.GetString("backend-sketch", "two_level_hash");
    if (!ParseSketchBackendName(backend_sketch,
                                &options.default_backend)) {
      std::cerr << "sketchtool serve: unknown --backend-sketch '"
                << backend_sketch
                << "' (expected two_level_hash, theta_kmv or set_sketch)\n";
      return Usage();
    }
    options.backend_size =
        static_cast<uint32_t>(flags.GetInt("backend-size", 4096));
    result = RunServe(options, &std::cout);
  } else if (command == "route" && argc >= 3 &&
             (std::string(argv[2]) == "add-shard" ||
              std::string(argv[2]) == "drain-shard")) {
    // Admin subcommands dial a RUNNING router; re-parse flags past the
    // positional action word (the top-level parse would flag it as an
    // unrecognized positional).
    const std::string action = argv[2];
    const Flags admin = Flags::Parse(argc - 2, argv + 2);
    RouteAdminSpec spec;
    spec.action = action;
    std::vector<ClusterShard> router_addr;
    std::string parse_error;
    if (!ParseShardList(admin.GetString("router", ""), &router_addr,
                        &parse_error) ||
        router_addr.size() != 1) {
      std::cerr << "sketchtool route " << action
                << ": --router HOST:PORT is required\n";
      return Usage();
    }
    spec.router_host = router_addr[0].host;
    spec.router_port = router_addr[0].port;
    if (action == "add-shard") {
      std::vector<ClusterShard> joining;
      if (!ParseShardList(admin.GetString("shard", ""), &joining,
                          &parse_error) ||
          joining.size() != 1) {
        std::cerr << "sketchtool route add-shard: --shard HOST:PORT "
                     "(the joining server) is required\n";
        return Usage();
      }
      spec.shard = joining[0];
    } else {
      spec.shard.name = admin.GetString("name", "");
    }
    const std::string name = admin.GetString("name", "");
    if (!name.empty()) spec.shard.name = name;
    if (spec.shard.name.empty()) {
      std::cerr << "sketchtool route drain-shard: --name SHARD is "
                   "required\n";
      return Usage();
    }
    spec.io_timeout_ms =
        static_cast<int>(admin.GetInt("io-timeout-ms", 30000));
    spec.connect_timeout_ms =
        static_cast<int>(admin.GetInt("connect-timeout-ms", 5000));
    result = RunRouteAdmin(spec);
  } else if (command == "route") {
    ClusterRouter::Options options;
    std::string parse_error;
    if (!ParseShardList(flags.GetString("shards", ""), &options.shards,
                        &parse_error)) {
      std::cerr << "sketchtool route: " << parse_error << "\n";
      return Usage();
    }
    options.port = static_cast<int>(flags.GetInt("port", 0));
    options.bind_address = flags.GetString("bind", "127.0.0.1");
    options.replicas = static_cast<int>(flags.GetInt("replicas", 1));
    options.virtual_nodes =
        static_cast<int>(flags.GetInt("virtual-nodes", 64));
    options.placement_seed =
        static_cast<uint64_t>(flags.GetInt("placement-seed", 7));
    options.copies = static_cast<int>(flags.GetInt("copies", 128));
    options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    options.params.levels = static_cast<int>(flags.GetInt("levels", 32));
    options.params.num_second_level =
        static_cast<int>(flags.GetInt("second-level", 32));
    options.witness.pool_all_levels = true;
    options.probe_interval_ms =
        static_cast<int>(flags.GetInt("probe-interval-ms", 0));
    options.io_timeout_ms =
        static_cast<int>(flags.GetInt("io-timeout-ms", 30000));
    options.idle_timeout_ms =
        static_cast<int>(flags.GetInt("idle-timeout-ms", 0));
    options.shard_io_timeout_ms =
        static_cast<int>(flags.GetInt("shard-io-timeout-ms", 10000));
    options.shard_connect_timeout_ms =
        static_cast<int>(flags.GetInt("connect-timeout-ms", 2000));
    const std::string read_policy =
        flags.GetString("read-policy", "strict");
    if (read_policy == "strict") {
      options.read_policy = ClusterRouter::ReadPolicy::kStrict;
    } else if (read_policy == "available") {
      options.read_policy = ClusterRouter::ReadPolicy::kAvailable;
    } else {
      std::cerr << "sketchtool route: unknown --read-policy '"
                << read_policy << "' (expected strict or available)\n";
      return Usage();
    }
    options.probe_backoff_initial_ms =
        static_cast<int>(flags.GetInt("probe-backoff-initial-ms", 100));
    options.probe_backoff_cap_ms =
        static_cast<int>(flags.GetInt("probe-backoff-cap-ms", 5000));
    options.probe_flap_threshold =
        static_cast<int>(flags.GetInt("flap-threshold", 1));
    options.auto_repair = !flags.GetBool("no-auto-repair", false);
    options.max_dynamic_shards =
        static_cast<int>(flags.GetInt("max-dynamic-shards", 16));
    const std::string backend_sketch =
        flags.GetString("backend-sketch", "two_level_hash");
    if (!ParseSketchBackendName(backend_sketch,
                                &options.default_backend)) {
      std::cerr << "sketchtool route: unknown --backend-sketch '"
                << backend_sketch
                << "' (expected two_level_hash, theta_kmv or set_sketch)\n";
      return Usage();
    }
    options.backend_size =
        static_cast<uint32_t>(flags.GetInt("backend-size", 4096));
    result = RunRoute(options, &std::cout);
  } else if (command == "push") {
    PushSpec spec;
    spec.host = flags.GetString("host", "127.0.0.1");
    spec.port = static_cast<int>(flags.GetInt("port", 0));
    spec.updates_path = flags.GetString("updates", "");
    if (spec.port == 0 || spec.updates_path.empty()) return Usage();
    spec.stream_names = SplitCommaList(flags.GetString("streams", ""));
    spec.batch_size = static_cast<size_t>(flags.GetInt("batch", 4096));
    spec.batch_bytes =
        static_cast<size_t>(flags.GetInt("batch-bytes", 0));
    spec.site_id = flags.GetString("site", "");
    spec.first_sequence =
        static_cast<uint64_t>(flags.GetInt("seq-start", 1));
    spec.io_timeout_ms =
        static_cast<int>(flags.GetInt("io-timeout-ms", 30000));
    spec.connect_timeout_ms =
        static_cast<int>(flags.GetInt("connect-timeout-ms", 5000));
    const std::string backend_sketch =
        flags.GetString("backend-sketch", "two_level_hash");
    if (!ParseSketchBackendName(backend_sketch, &spec.backend)) {
      std::cerr << "sketchtool push: unknown --backend-sketch '"
                << backend_sketch
                << "' (expected two_level_hash, theta_kmv or set_sketch)\n";
      return Usage();
    }
    result = RunServerPush(spec);
  } else if (command == "query") {
    const std::string host = flags.GetString("host", "127.0.0.1");
    const int port = static_cast<int>(flags.GetInt("port", 0));
    const std::string expr = flags.GetString("expr", "");
    if (port == 0 || expr.empty()) return Usage();
    result = RunServerQuery(host, port, expr);
  } else if (command == "explain") {
    const std::string host = flags.GetString("host", "127.0.0.1");
    const int port = static_cast<int>(flags.GetInt("port", 0));
    const std::string expr = flags.GetString("expr", "");
    if (port == 0 || expr.empty()) return Usage();
    result = RunServerExplain(host, port, expr);
  } else if (command == "stats") {
    const std::string host = flags.GetString("host", "127.0.0.1");
    const int port = static_cast<int>(flags.GetInt("port", 0));
    if (port == 0) return Usage();
    result = RunServerStats(host, port);
  } else if (command == "shutdown") {
    const std::string host = flags.GetString("host", "127.0.0.1");
    const int port = static_cast<int>(flags.GetInt("port", 0));
    if (port == 0) return Usage();
    result = RunServerShutdown(host, port);
  } else {
    return Usage();
  }

  if (!result.ok) {
    std::cerr << "sketchtool " << command << ": " << result.error << "\n";
    return 1;
  }
  std::cout << result.output;
  return 0;
}
