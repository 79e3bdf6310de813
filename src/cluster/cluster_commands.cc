#include "cluster/cluster_commands.h"

#include <memory>
#include <sstream>

#include "server/sketch_client.h"

namespace setsketch {

namespace {

CommandResult Fail(const std::string& message) {
  CommandResult result;
  result.error = message;
  return result;
}

}  // namespace

bool ParseShardList(const std::string& text,
                    std::vector<ClusterShard>* shards, std::string* error) {
  shards->clear();
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == item.size()) {
      *error = "malformed shard '" + item + "' (expected host:port)";
      return false;
    }
    ClusterShard shard;
    shard.host = item.substr(0, colon);
    try {
      shard.port = std::stoi(item.substr(colon + 1));
    } catch (...) {
      *error = "malformed shard port in '" + item + "'";
      return false;
    }
    if (shard.port <= 0 || shard.port > 65535) {
      *error = "shard port out of range in '" + item + "'";
      return false;
    }
    shard.name = item;
    shards->push_back(std::move(shard));
  }
  if (shards->empty()) {
    *error = "no shards given (--shards host:port[,host:port...])";
    return false;
  }
  return true;
}

CommandResult RunRouteAdmin(const RouteAdminSpec& spec) {
  const bool add = spec.action == "add-shard";
  const bool drain = spec.action == "drain-shard";
  if (!add && !drain) {
    return Fail("unknown admin action '" + spec.action +
                "' (expected add-shard or drain-shard)");
  }
  if (spec.router_port <= 0) return Fail("--router-port is required");
  if (spec.shard.name.empty()) return Fail("shard name is required");
  if (add && (spec.shard.host.empty() || spec.shard.port <= 0)) {
    return Fail("add-shard needs the joining server's host:port");
  }

  SketchClient::Options client_options;
  client_options.host = spec.router_host;
  client_options.port = spec.router_port;
  client_options.io_timeout_ms = spec.io_timeout_ms;
  client_options.connect_timeout_ms = spec.connect_timeout_ms;
  std::string error;
  std::unique_ptr<SketchClient> client =
      SketchClient::Connect(client_options, &error);
  if (client == nullptr) {
    return Fail("cannot reach router at " + spec.router_host + ":" +
                std::to_string(spec.router_port) + ": " + error);
  }

  ShardAdminRequest request;
  request.name = spec.shard.name;
  request.host = spec.shard.host;
  request.port = spec.shard.port;
  const SketchClient::Status status =
      add ? client->AddShard(request) : client->DrainShard(request);
  if (!status.ok) return Fail(status.error);

  CommandResult result;
  result.ok = true;
  std::ostringstream out;
  out << (add ? "added" : "drained") << " shard '" << spec.shard.name
      << "' (" << status.accepted << " streams migrated)\n";
  result.output = out.str();
  return result;
}

CommandResult RunRoute(const ClusterRouter::Options& options,
                       std::ostream* announce) {
  std::string error;
  if (!options.Validate(&error)) return Fail(error);
  if (options.shards.empty()) return Fail("no shards given");
  if (options.replicas >= static_cast<int>(options.shards.size())) {
    return Fail("--replicas must be < the number of shards");
  }
  ClusterRouter router(options);
  if (!router.Start(&error)) return Fail("cannot start router: " + error);
  const size_t healthy = router.ProbeAll();
  if (announce != nullptr) {
    *announce << "routing on " << options.bind_address << ":"
              << router.port() << " (" << options.shards.size()
              << " shards, " << healthy << " healthy, replicas="
              << options.replicas << ")\n"
              << std::flush;
  }
  router.Wait();

  const ClusterRouter::StatsSnapshot stats = router.stats();
  CommandResult result;
  result.ok = true;
  std::ostringstream out;
  out << "routed " << stats.pushes_forwarded << " batches ("
      << stats.updates_forwarded << " forwarded updates, "
      << stats.push_bounces << " bounces, " << stats.forward_failures
      << " forward failures), " << stats.queries_answered << " queries ("
      << stats.failovers << " failovers, " << stats.degraded_answers
      << " degraded) across " << stats.shards << " shards ("
      << stats.repairs << " repairs, " << stats.readmissions
      << " readmissions)\n";
  result.output = out.str();
  return result;
}

}  // namespace setsketch
