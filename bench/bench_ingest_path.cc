// Served ingest against its physical ceiling: loopback ingest of a
// churned two-stream workload into the full-size bank (copies/levels/s
// match bench_fault_tolerance, so rows are comparable across
// trajectories).
//
// Every served row is timed from the first send until the server's shard
// workers have APPLIED every update (STATS updates_applied equals the
// number sent), so a row measures what a querier can see, not admission:
// the last ACK only proves the batches were queued. The ACK time is
// reported beside it (ack_seconds) to show the gap.
//
// Rows: the WAL off, on without fsync and on with fsync at 4096-update
// client batches; a client batch-width sweep with the WAL off; and the
// ceiling, inprocess_apply — the same updates through
// SketchBank::ApplyBatch on one thread, same (levels, s, copies), in
// 4096-update batches, no server.
//
// Exit status enforces the floor: the best wal-off served row's applied
// throughput must reach SETSKETCH_INGEST_FLOOR (default 0.5; 0 disables
// the check) times the in-process rate. The server applies with two
// shard workers, so the ratio can exceed 1 on a machine with spare cores.
//
// Emits a JSON perf trajectory (BENCH_ingest_path.json, or the path in
// SETSKETCH_BENCH_JSON) validated by tools/validate_bench_json.py.
// Honors SETSKETCH_BENCH_SCALE (0 < scale <= 1, default 0.25).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sketch_bank.h"
#include "server/sketch_client.h"
#include "server/sketch_server.h"
#include "stream/stream_generator.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

using namespace setsketch;

namespace {

constexpr int kLevels = 24;
constexpr int kSecondLevel = 16;
constexpr int kCopies = 128;
constexpr uint64_t kSeed = 20030609;

struct Mode {
  std::string name;  // JSON row: "IngestPath/<name>".
  bool wal = false;
  bool fsync = false;
  size_t batch_size = 4096;
};

struct ModeResult {
  std::string name;
  double seconds = 0.0;      // Until every update was applied.
  double ack_seconds = 0.0;  // Until the last ACK (served rows only).
  double ns_per_update = 0.0;
  uint64_t bytes_read = 0;
  uint64_t read_calls = 0;
  uint64_t max_frames_per_read = 0;
  double frames_per_read = 0.0;
};

std::string FormatJsonDouble(double value) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed << value;
  return out.str();
}

/// Pushes `updates` through a loopback server in `mode` and times the
/// run until the shard workers applied all of it. False on any failure.
bool RunServed(const Mode& mode, const std::vector<Update>& updates,
               const std::vector<std::string>& names, ModeResult* result) {
  const std::filesystem::path wal_dir =
      std::filesystem::temp_directory_path() /
      ("setsketch_bench_ingest_" + mode.name);
  std::filesystem::remove_all(wal_dir);

  SketchServer::Options options;
  options.params.levels = kLevels;
  options.params.num_second_level = kSecondLevel;
  options.copies = kCopies;
  options.seed = kSeed;
  options.shards = 2;
  // Sized so admission never bounces: the clock measures apply, not the
  // client's retry backoff.
  options.queue_capacity = 8192;
  options.witness.pool_all_levels = true;
  if (mode.wal) {
    options.wal_dir = wal_dir.string();
    options.wal_fsync = mode.fsync;
  }
  SketchServer server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "server start failed: " << error << "\n";
    return false;
  }
  SketchClient::Options client_options;
  client_options.port = server.port();
  client_options.site_id = "bench-site";
  auto client = SketchClient::Connect(client_options, &error);
  if (client == nullptr) {
    std::cerr << "connect failed: " << error << "\n";
    return false;
  }

  Stopwatch watch;
  for (size_t begin = 0; begin < updates.size(); begin += mode.batch_size) {
    UpdateBatch batch;
    batch.stream_names = names;
    const size_t end = std::min(updates.size(), begin + mode.batch_size);
    batch.updates.assign(updates.begin() + begin, updates.begin() + end);
    const SketchClient::Status status =
        client->PushUpdatesWithRetry(batch, 10000, 1);
    if (!status.ok) {
      std::cerr << "push failed: " << status.error << "\n";
      return false;
    }
  }
  result->ack_seconds = watch.Seconds();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (server.stats().updates_applied < updates.size()) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::cerr << mode.name << ": updates never fully applied\n";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  result->seconds = watch.Seconds();
  client->Shutdown();
  server.Wait();
  std::filesystem::remove_all(wal_dir);
  const SketchServer::StatsSnapshot stats = server.stats();
  if (stats.updates_applied != updates.size()) {
    std::cerr << mode.name << ": applied " << stats.updates_applied
              << " of " << updates.size() << " updates\n";
    return false;
  }
  result->name = "IngestPath/" + mode.name;
  result->ns_per_update =
      result->seconds * 1e9 / static_cast<double>(updates.size());
  result->bytes_read = stats.ingest_bytes_read;
  result->read_calls = stats.ingest_read_calls;
  result->max_frames_per_read = stats.ingest_max_frames_per_read;
  result->frames_per_read =
      stats.ingest_read_calls == 0
          ? 0.0
          : static_cast<double>(stats.frames_received) /
                static_cast<double>(stats.ingest_read_calls);
  return true;
}

/// The ceiling: the same updates through SketchBank::ApplyBatch on the
/// calling thread, in `batch_size` slices, same sketch configuration.
ModeResult RunInProcess(const std::vector<Update>& updates,
                        const std::vector<std::string>& names,
                        size_t batch_size) {
  SketchParams params;
  params.levels = kLevels;
  params.num_second_level = kSecondLevel;
  SketchBank bank(SketchFamily(params, kCopies, kSeed));
  for (const std::string& name : names) bank.AddStream(name);
  std::vector<Update> slice;
  Stopwatch watch;
  for (size_t begin = 0; begin < updates.size(); begin += batch_size) {
    const size_t end = std::min(updates.size(), begin + batch_size);
    slice.assign(updates.begin() + begin, updates.begin() + end);
    bank.ApplyBatch(names, slice);
  }
  ModeResult result;
  result.name = "IngestPath/inprocess_apply";
  result.seconds = watch.Seconds();
  result.ns_per_update =
      result.seconds * 1e9 / static_cast<double>(updates.size());
  return result;
}

}  // namespace

int main() {
  const double scale = EnvDouble("SETSKETCH_BENCH_SCALE", 0.25);
  const double floor = EnvDouble("SETSKETCH_INGEST_FLOOR", 0.5);
  const int64_t requested = static_cast<int64_t>(1200000 * scale);
  const int64_t total_updates = std::max<int64_t>(200000, requested);

  VennPartitionGenerator gen(2, BinaryIntersectionProbs(0.25));
  const PartitionedDataset data = gen.Generate(total_updates / 8, 99);
  std::vector<Update> updates = data.ToInsertUpdates(4);
  ChurnOptions churn;
  churn.seed = 7;
  updates = InjectChurn(updates, churn);
  const std::vector<std::string> names = {"A", "B"};

  std::cout << "ingest-path bench: " << updates.size()
            << " updates, 2 streams (scale=" << scale << ", floor=" << floor
            << "x in-process apply)\n\n";

  const std::vector<Mode> modes = {
      {"wal_off", false, false, 4096},
      {"wal_nofsync", true, false, 4096},
      {"wal_fsync", true, true, 4096},
      {"batch_16384", false, false, 16384},
      {"batch_65536", false, false, 65536},
  };
  std::vector<ModeResult> results;
  double best_wal_off_ns = 0.0;
  for (const Mode& mode : modes) {
    ModeResult result;
    if (!RunServed(mode, updates, names, &result)) return 1;
    if (!mode.wal && (best_wal_off_ns == 0.0 ||
                      result.ns_per_update < best_wal_off_ns)) {
      best_wal_off_ns = result.ns_per_update;
    }
    results.push_back(result);
  }
  results.push_back(RunInProcess(updates, names, 4096));
  const double inprocess_ns = results.back().ns_per_update;

  TablePrinter table({"mode", "secs", "ack secs", "applied/s", "ns/update",
                      "frames/read", "bytes read"});
  for (const ModeResult& result : results) {
    table.AddRow(std::vector<std::string>{
        result.name.substr(result.name.find('/') + 1),
        FormatDouble(result.seconds, 3), FormatDouble(result.ack_seconds, 3),
        FormatDouble(static_cast<double>(updates.size()) / result.seconds, 0),
        FormatDouble(result.ns_per_update, 1),
        FormatDouble(result.frames_per_read, 2),
        std::to_string(result.bytes_read)});
  }
  table.Print(std::cout);

  // Throughput ratio = inverse ns ratio.
  const double applied_vs_inprocess =
      best_wal_off_ns > 0.0 ? inprocess_ns / best_wal_off_ns : 0.0;
  std::cout << "\nserved applied throughput / in-process ApplyBatch "
               "(best wal-off row): "
            << FormatDouble(applied_vs_inprocess, 2) << "x\n";

  const char* env = std::getenv("SETSKETCH_BENCH_JSON");
  const std::string path =
      (env != nullptr && *env != '\0') ? env : "BENCH_ingest_path.json";
  std::ofstream out(path);
  out << "{\n  \"bench\": \"ingest_path\",\n";
  out << "  \"scale\": " << FormatJsonDouble(scale) << ",\n";
  out << "  \"updates\": " << updates.size() << ",\n";
  out << "  \"applied_vs_inprocess\": "
      << FormatJsonDouble(applied_vs_inprocess) << ",\n";
  out << "  \"floor\": " << FormatJsonDouble(floor) << ",\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& result = results[i];
    out << "    {\"name\": \"" << result.name << "\", \"ns_per_op\": "
        << FormatJsonDouble(result.ns_per_update) << ", \"seconds\": "
        << FormatJsonDouble(result.seconds) << ", \"ack_seconds\": "
        << FormatJsonDouble(result.ack_seconds) << ", \"bytes_read\": "
        << result.bytes_read << ", \"read_calls\": " << result.read_calls
        << ", \"max_frames_per_read\": " << result.max_frames_per_read
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";

  if (floor > 0.0 && applied_vs_inprocess < floor) {
    std::cerr << "FAIL: served applied throughput is "
              << FormatDouble(applied_vs_inprocess, 2)
              << "x the in-process ApplyBatch rate, below the "
              << FormatDouble(floor, 2) << "x floor\n";
    return 1;
  }
  return 0;
}
