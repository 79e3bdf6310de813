#include "server/server_commands.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "server/sketch_client.h"
#include "stream/stream_io.h"
#include "util/stats.h"
#include "util/varint.h"
#include "util/table_printer.h"

namespace setsketch {

namespace {

CommandResult Fail(const std::string& message) {
  CommandResult result;
  result.error = message;
  return result;
}

std::unique_ptr<SketchClient> Dial(const std::string& host, int port,
                                   CommandResult* failure) {
  std::string error;
  std::unique_ptr<SketchClient> client =
      SketchClient::Connect(host, port, &error);
  if (client == nullptr) {
    *failure = Fail("cannot connect to " + host + ":" +
                    std::to_string(port) + " (" + error + ")");
  }
  return client;
}

}  // namespace

CommandResult RunServe(const SketchServer::Options& options,
                       std::ostream* announce) {
  std::string error;
  if (!options.Validate(&error)) return Fail(error);
  SketchServer server(options);
  if (!server.Start(&error)) return Fail("cannot start server: " + error);
  if (announce != nullptr) {
    *announce << "listening on " << options.bind_address << ":"
              << server.port() << "\n"
              << std::flush;
  }
  server.Wait();

  const SketchServer::StatsSnapshot stats = server.stats();
  CommandResult result;
  result.ok = true;
  std::ostringstream out;
  out << "served " << stats.connections_accepted << " connections, "
      << stats.batches_accepted << " batches (" << stats.updates_applied
      << " updates, " << stats.batches_rejected << " backpressure bounces, "
      << stats.duplicates_dropped << " duplicates dropped), "
      << stats.summaries_accepted << " summaries, " << stats.queries_answered
      << " queries over " << stats.streams << " streams";
  if (!options.wal_dir.empty()) {
    out << "; wal " << stats.wal_records << " records / " << stats.wal_bytes
        << " bytes, " << stats.snapshots_written << " checkpoints, "
        << stats.recovered_batches << " batches recovered";
  }
  out << "\n";
  result.output = out.str();
  return result;
}

CommandResult RunServerPush(const PushSpec& spec) {
  std::ifstream in(spec.updates_path);
  if (!in) return Fail("cannot open updates file: " + spec.updates_path);
  const ParsedUpdates parsed = ReadUpdates(in);
  if (!parsed.ok()) {
    return Fail("malformed updates (" +
                std::to_string(parsed.errors.size()) +
                " bad lines; first: " + parsed.errors.front() + ")");
  }
  if (parsed.updates.empty()) return Fail("no updates in input");

  StreamId max_stream = 0;
  for (const Update& u : parsed.updates) {
    max_stream = std::max(max_stream, u.stream);
  }
  std::vector<std::string> names = spec.stream_names;
  if (!names.empty() && names.size() <= max_stream) {
    return Fail("updates reference stream id " +
                std::to_string(max_stream) + " but only " +
                std::to_string(names.size()) + " names were given");
  }
  for (StreamId i = static_cast<StreamId>(names.size()); i <= max_stream;
       ++i) {
    std::string name = "S";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }

  SketchClient::Options client_options;
  client_options.host = spec.host;
  client_options.port = spec.port;
  client_options.site_id = spec.site_id;
  client_options.first_sequence = spec.first_sequence;
  client_options.io_timeout_ms = spec.io_timeout_ms;
  client_options.connect_timeout_ms = spec.connect_timeout_ms;
  std::string dial_error;
  std::unique_ptr<SketchClient> client =
      SketchClient::Connect(client_options, &dial_error);
  if (client == nullptr) {
    return Fail("cannot connect to " + spec.host + ":" +
                std::to_string(spec.port) + " (" + dial_error + ")");
  }

  const size_t batch_size = spec.batch_size == 0 ? 4096 : spec.batch_size;
  uint64_t pushed = 0;
  size_t batches = 0;
  size_t begin = 0;
  while (begin < parsed.updates.size()) {
    size_t end;
    if (spec.batch_bytes > 0) {
      // Slice by encoded triple size so each frame lands near the byte
      // budget regardless of varint widths (header + names are a fixed
      // prefix the budget simply absorbs).
      end = begin;
      size_t bytes = 0;
      while (end < parsed.updates.size()) {
        const Update& u = parsed.updates[end];
        bytes += VarintLen(u.stream) + VarintLen(u.element) +
                 VarintLen(ZigZagEncode(u.delta));
        if (bytes > spec.batch_bytes && end > begin) break;
        ++end;
      }
    } else {
      end = std::min(parsed.updates.size(), begin + batch_size);
    }
    UpdateBatch batch;
    batch.stream_names = names;
    if (spec.backend != SketchBackendId::kTwoLevelHash) {
      batch.stream_backends.assign(names.size(),
                                   static_cast<uint8_t>(spec.backend));
    }
    batch.updates.assign(parsed.updates.begin() + begin,
                         parsed.updates.begin() + end);
    const SketchClient::Status status =
        client->PushUpdatesWithRetry(batch, /*max_attempts=*/1000,
                                     /*backoff_ms=*/1);
    if (!status.ok) {
      return Fail("push failed after " + std::to_string(pushed) +
                  " updates: " + status.error);
    }
    pushed += status.accepted;
    ++batches;
    begin = end;
  }

  const SketchClient::Counters& counters = client->counters();
  CommandResult result;
  result.ok = true;
  std::ostringstream out;
  out << "pushed " << pushed << " updates in " << batches << " batches ("
      << counters.retries << " backpressure retries, "
      << counters.reconnects << " reconnects, " << counters.timeouts
      << " timeouts, " << counters.duplicate_acks
      << " duplicate acks) across " << names.size() << " streams\n";
  result.output = out.str();
  return result;
}

CommandResult RunServerQuery(const std::string& host, int port,
                             const std::string& expression_text) {
  CommandResult failure;
  std::unique_ptr<SketchClient> client = Dial(host, port, &failure);
  if (client == nullptr) return failure;
  const QueryResultInfo answer = client->Query(expression_text);
  if (!answer.ok) return Fail("query failed: " + answer.error);
  CommandResult result;
  result.ok = true;
  std::ostringstream out;
  out << "|" << answer.expression << "| ~= "
      << FormatDouble(answer.estimate, 1) << "  (~95% interval ["
      << FormatDouble(answer.lo, 1) << ", " << FormatDouble(answer.hi, 1)
      << "])\n";
  result.output = out.str();
  return result;
}

CommandResult RunServerStats(const std::string& host, int port) {
  CommandResult failure;
  std::unique_ptr<SketchClient> client = Dial(host, port, &failure);
  if (client == nullptr) return failure;
  std::string text;
  const SketchClient::Status status = client->Stats(&text);
  if (!status.ok) return Fail("stats failed: " + status.error);
  CommandResult result;
  result.ok = true;
  result.output = text;
  return result;
}

CommandResult RunServerExplain(const std::string& host, int port,
                               const std::string& expression_text) {
  CommandResult failure;
  std::unique_ptr<SketchClient> client = Dial(host, port, &failure);
  if (client == nullptr) return failure;
  std::string report;
  const SketchClient::Status status =
      client->Explain(expression_text, &report);
  if (!status.ok) return Fail("explain failed: " + status.error);
  CommandResult result;
  result.ok = true;
  result.output = report;
  return result;
}

CommandResult RunServerShutdown(const std::string& host, int port) {
  CommandResult failure;
  std::unique_ptr<SketchClient> client = Dial(host, port, &failure);
  if (client == nullptr) return failure;
  const SketchClient::Status status = client->Shutdown();
  if (!status.ok) return Fail("shutdown failed: " + status.error);
  CommandResult result;
  result.ok = true;
  result.output = "server is draining and will exit\n";
  return result;
}

}  // namespace setsketch
