// Durability cost on the ingest hot path: loopback server ingest of a
// churned two-stream workload with the WAL off, on without fsync (pure
// logging cost), and on with fsync (the full crash-safe ACK path). All
// three modes push identical batches through PushUpdatesWithRetry with an
// idempotency site id, so the comparison isolates the WAL, not protocol
// differences. Each mode is timed from the first push until a barrier
// QUERY returns: the query drains every shard queue, so the time covers
// every update applied and visible, not only ACKed.
//
// Emits a JSON perf trajectory (BENCH_fault_tolerance.json, or the path
// in SETSKETCH_BENCH_JSON) validated by tools/validate_bench_json.py.
// Honors SETSKETCH_BENCH_SCALE (0 < scale <= 1, default 0.25).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "server/sketch_client.h"
#include "server/sketch_server.h"
#include "stream/stream_generator.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

using namespace setsketch;

namespace {

struct Mode {
  std::string name;   // JSON row: "LoopbackIngest/<name>".
  bool wal = false;
  bool fsync = false;
};

struct ModeResult {
  std::string name;
  double seconds = 0.0;
  double ns_per_update = 0.0;
  uint64_t wal_bytes = 0;
};

std::string FormatJsonDouble(double value) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed << value;
  return out.str();
}

}  // namespace

int main() {
  const double scale = EnvDouble("SETSKETCH_BENCH_SCALE", 0.25);
  const int64_t requested = static_cast<int64_t>(300000 * scale);
  const int64_t total_updates = std::max<int64_t>(20000, requested);

  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.25));
  const PartitionedDataset data = gen.Generate(total_updates / 8, 99);
  std::vector<Update> updates = data.ToInsertUpdates(4);
  ChurnOptions churn;
  churn.seed = 7;
  updates = InjectChurn(updates, churn);
  const std::vector<std::string> names = {"A", "B"};
  constexpr size_t kBatchSize = 4096;

  std::cout << "fault-tolerance bench: " << updates.size()
            << " updates, 2 streams, batch " << kBatchSize
            << " (scale=" << scale << ")\n\n";

  const std::vector<Mode> modes = {
      {"wal_off", false, false},
      {"wal_nofsync", true, false},
      {"wal_fsync", true, true},
  };
  std::vector<ModeResult> results;
  TablePrinter table(
      {"mode", "secs", "updates/s", "ns/update", "wal bytes", "checkpoints"});
  for (const Mode& mode : modes) {
    const std::filesystem::path wal_dir =
        std::filesystem::temp_directory_path() /
        ("setsketch_bench_wal_" + mode.name);
    std::filesystem::remove_all(wal_dir);

    SketchServer::Options options;
    options.params.levels = 24;
    options.params.num_second_level = 16;
    options.copies = 128;
    options.seed = 20030609;
    options.shards = 2;
    options.queue_capacity = 16;
    options.witness.pool_all_levels = true;
    if (mode.wal) {
      options.wal_dir = wal_dir.string();
      options.wal_fsync = mode.fsync;
    }
    SketchServer server(options);
    std::string error;
    if (!server.Start(&error)) {
      std::cerr << "server start failed: " << error << "\n";
      return 1;
    }
    SketchClient::Options client_options;
    client_options.port = server.port();
    client_options.site_id = "bench-site";
    auto client = SketchClient::Connect(client_options, &error);
    if (client == nullptr) {
      std::cerr << "connect failed: " << error << "\n";
      return 1;
    }

    Stopwatch watch;
    for (size_t begin = 0; begin < updates.size(); begin += kBatchSize) {
      UpdateBatch batch;
      batch.stream_names = names;
      const size_t end = std::min(updates.size(), begin + kBatchSize);
      batch.updates.assign(updates.begin() + begin, updates.begin() + end);
      const SketchClient::Status status =
          client->PushUpdatesWithRetry(batch, 10000, 1);
      if (!status.ok) {
        std::cerr << "push failed: " << status.error << "\n";
        return 1;
      }
    }
    // A barrier QUERY drains every shard queue, so the clock stops when
    // the last update is applied and visible, not at its ACK.
    const QueryResultInfo barrier = client->Query("A | B");
    const double seconds = watch.Seconds();
    if (!barrier.ok) {
      std::cerr << "barrier query failed: " << barrier.error << "\n";
      return 1;
    }
    client->Shutdown();
    server.Wait();
    const SketchServer::StatsSnapshot stats = server.stats();
    std::filesystem::remove_all(wal_dir);

    ModeResult result;
    result.name = "LoopbackIngest/" + mode.name;
    result.seconds = seconds;
    result.ns_per_update =
        seconds * 1e9 / static_cast<double>(updates.size());
    result.wal_bytes = stats.wal_bytes;
    results.push_back(result);
    table.AddRow(std::vector<std::string>{
        mode.name, FormatDouble(seconds, 2),
        FormatDouble(static_cast<double>(updates.size()) / seconds, 0),
        FormatDouble(result.ns_per_update, 1),
        std::to_string(stats.wal_bytes),
        std::to_string(stats.snapshots_written)});
  }
  table.Print(std::cout);

  const char* env = std::getenv("SETSKETCH_BENCH_JSON");
  const std::string path =
      (env != nullptr && *env != '\0') ? env : "BENCH_fault_tolerance.json";
  std::ofstream out(path);
  out << "{\n  \"bench\": \"fault_tolerance\",\n";
  out << "  \"scale\": " << FormatJsonDouble(scale) << ",\n";
  out << "  \"updates\": " << updates.size() << ",\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& result = results[i];
    out << "    {\"name\": \"" << result.name << "\", \"ns_per_op\": "
        << FormatJsonDouble(result.ns_per_update) << ", \"seconds\": "
        << FormatJsonDouble(result.seconds) << ", \"wal_bytes\": "
        << result.wal_bytes << "}" << (i + 1 < results.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  if (!out) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << path << "\n";
  return 0;
}
