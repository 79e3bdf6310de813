// perfbench: runs one workload of the end-to-end benchmark in this
// process and prints its metrics as the last line of stdout (JSON).
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--scratch DIR] [--spans FILE]
//   perfbench --describe     # workload + metric table (JSON)
//
// perfbench/run.py builds this binary and wraps it; see README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "perfbench.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
  double bound;  ///< End-to-end only: tolerated worsening vs the parent.
};

// End-to-end metrics, with the bound by which each may worsen (a share of
// the parent's median) before a change counts as a regression. The timing
// bounds are wide because the reference box is a shared virtual machine
// whose speed drifts by +-10% between consecutive runs (README.md).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s", "lower", 0.25},
    {"applied_ups", "1/s", "higher", 0.25},
    {"visible_lag_ms", "ms", "lower", 0.25},
    {"push_p50_us", "us", "lower", 0.25},
    {"hot_query_p50_us", "us", "lower", 0.25},
    {"fresh_query_p50_us", "us", "lower", 0.25},
    {"peak_rss_mb", "MB", "lower", 0.15},
};

const MetricSpec kPerLayer[] = {
    // Tails of the untraced run: reported, not gated (README.md).
    {"tail.push_p99_us", "us", "lower", 0},
    {"tail.hot_query_p99_us", "us", "lower", 0},
    {"tail.fresh_query_p99_us", "us", "lower", 0},
    {"core.apply_ns_per_update", "ns", "lower", 0},
    {"core.counter_bytes", "bytes", "lower", 0},
    {"server.encode_ns_per_update", "ns", "lower", 0},
    {"server.decode_ns_per_update", "ns", "lower", 0},
    {"server.wire_bytes_per_update", "bytes", "lower", 0},
    {"server.ping_us_p50", "us", "lower", 0},
    {"server.ping_after_merge_us_p50", "us", "lower", 0},
    {"server.answer_us_p50", "us", "lower", 0},
    {"server.fresh_answer_us_p50", "us", "lower", 0},
    {"server.backlog_peak_updates", "count", "lower", 0},
    {"server.retry_ratio", "ratio", "lower", 0},
    {"server.client_retries", "count", "lower", 0},
    {"server.apply_efficiency", "ratio", "higher", 0},
    {"wal.append_us_p50", "us", "lower", 0},
    {"wal.append_us_p99", "us", "lower", 0},
    {"wal.fsync_append_us_p50", "us", "lower", 0},
    {"wal.replay_s", "s", "lower", 0},
    {"wal.bytes_per_update", "bytes", "lower", 0},
    {"expr.parse_canon_us", "us", "lower", 0},
    {"query.hot_us_p50", "us", "lower", 0},
    {"query.requery_us_p50", "us", "lower", 0},
    {"query.hit_ratio", "ratio", "higher", 0},
    {"query.merge_builds_per_query", "ratio", "lower", 0},
    {"distributed.summary_bytes", "bytes", "lower", 0},
    {"distributed.encode_us", "us", "lower", 0},
    {"distributed.decode_us", "us", "lower", 0},
    {"cluster.pull_full_us_p50", "us", "lower", 0},
    {"cluster.pull_unchanged_us_p50", "us", "lower", 0},
    {"cluster.answer_us_p50", "us", "lower", 0},
    {"cluster.unchanged_ratio", "ratio", "higher", 0},
    {"cluster.pulls_per_query", "ratio", "lower", 0},
    {"reconcile.push_layers_us", "us", "lower", 0},
    {"reconcile.push_ratio", "ratio", "higher", 0},
    {"reconcile.hot_query_layers_us", "us", "lower", 0},
    {"reconcile.hot_query_ratio", "ratio", "higher", 0},
    {"reconcile.claims_hold", "bool", "higher", 0},
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

void Describe() {
  std::ostringstream out;
  out << "{\"workloads\": [";
  const char* sep = "";
  for (const WorkloadConfig& config : Workloads()) {
    std::ostringstream why;
    why << config.why << "; threads " << config.threads;
    out << sep << "{\"name\": " << Quote(config.name)
        << ", \"why\": " << Quote(why.str()) << "}";
    sep = ", ";
  }
  out << "], \"end_to_end\": [";
  sep = "";
  for (const MetricSpec& spec : kEndToEnd) {
    out << sep << "{\"name\": " << Quote(spec.name)
        << ", \"unit\": " << Quote(spec.unit)
        << ", \"better\": " << Quote(spec.better)
        << ", \"bound\": " << Number(spec.bound) << "}";
    sep = ", ";
  }
  out << "], \"per_layer\": [";
  sep = "";
  for (const MetricSpec& spec : kPerLayer) {
    out << sep << "{\"name\": " << Quote(spec.name)
        << ", \"unit\": " << Quote(spec.unit)
        << ", \"better\": " << Quote(spec.better) << "}";
    sep = ", ";
  }
  // Tracing overhead, computed by run.py from the untraced and traced
  // runs: the median over end-to-end metrics, then each one.
  out << sep << "{\"name\": \"trace.overhead_pct\", \"unit\": \"%\", "
      << "\"better\": \"lower\"}";
  for (const MetricSpec& spec : kEndToEnd) {
    out << ", {\"name\": "
        << Quote(std::string("trace.overhead_pct.") + spec.name)
        << ", \"unit\": \"%\", \"better\": \"lower\"}";
  }
  out << "]}";
  std::cout << out.str() << std::endl;
}

int Usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--scratch DIR] [--spans FILE] | --describe\n";
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string scratch = ".bench_build/scratch";
  std::string spans;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      Describe();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--scratch") {
      scratch = value;
    } else if (flag == "--spans") {
      spans = value;
    } else {
      return Usage();
    }
  }
  const WorkloadConfig* config = FindWorkload(workload);
  if (config == nullptr || seconds <= 0) return Usage();

  std::filesystem::create_directories(scratch);
  Tracer tracer(trace);
  RunResult result = RunWorkload(*config, seed, seconds, scratch, &tracer);
  if (trace && !spans.empty() && !tracer.Write(spans)) {
    result.Fail("could not write spans to " + spans);
  }
  for (const std::string& problem : result.problems) {
    std::cerr << "perfbench: " << problem << "\n";
  }

  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, metric] : result.metrics) {
    out << sep << Quote(name) << ": {\"value\": " << Number(metric.value)
        << ", \"unit\": " << Quote(metric.unit) << "}";
    sep = ", ";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
