// Shared types of the end-to-end benchmark (see README.md in this
// directory). The benchmark drives the public APIs of src/server,
// src/cluster, src/query and src/core in-process and times them from the
// outside; it never reaches into library internals.

#ifndef SETSKETCH_PERFBENCH_PERFBENCH_H_
#define SETSKETCH_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/set_difference_estimator.h"
#include "core/sketch_seed.h"
#include "server/protocol.h"
#include "stream/update.h"
#include "util/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Sketch shape, estimator tuning and master seed shared by every
/// workload (the repo's bench configuration: levels = 24, s = 16, pooled
/// witness levels, seed 20030609).
setsketch::SketchParams BenchParams();
setsketch::WitnessOptions BenchWitness();
inline constexpr uint64_t kMasterSeed = 20030609;

/// Streams S0..S5. Trickle pushes touch only the "fresh" streams S0..S2;
/// S3..S5 never change after setup, so queries over them stay hot.
inline constexpr int kNumStreams = 6;
inline constexpr int kFreshStreams = 3;
std::vector<std::string> StreamNames();

/// One workload: the system's configuration plus the shape of each phase.
struct WorkloadConfig {
  std::string name;
  std::string why;
  int copies = 128;
  int shards = 2;         ///< Shard workers per server.
  bool wal = false;       ///< WAL in the checkout (no fsync, README.md).
  /// Batches in flight per shard before RETRY_LATER; 0 = server default.
  size_t queue_capacity = 0;
  int preload_elements = 0;  ///< Venn universe of the preload.
  // Bulk rounds: closed-loop sites pushing net-zero cycles, each cycle
  // closed by a barrier QUERY.
  int bulk_sites = 1;
  int bulk_batch = 4096;     ///< Also the batch size of the preload.
  int cycle_elements = 0;    ///< Venn universe of one net-zero cycle.
  double bulk_share = 0.5;   ///< Share of --seconds spent in bulk rounds.
  // Query blocks, alternating with the bulk rounds: kBlockTriples
  // (trickle push, fresh query, ping) triples, then kBlockTriples hot
  // queries, issued back to back by one client.
  /// Threads the workload runs and their CPUs (recorded in
  /// BENCHMARK.json).
  std::string threads;
};

/// Set-ups per run (setup_s is their median), updates per trickle push,
/// and triples (and hot queries) per query block.
inline constexpr int kSetupReps = 9;
inline constexpr int kTrickleBatch = 64;
inline constexpr int kBlockTriples = 64;
/// Trickle batches generated per run, pushed in order and again from the
/// start once used up. Repeating a legal stream after itself stays legal
/// (every count only grows by the first pass's non-negative counts).
/// A multiple of 3, so trickle k always touches stream k mod 3.
inline constexpr size_t kTricklePool = 3072;

const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(const std::string& name);

/// Set expressions (the paper's general expressions, each over >= 3
/// streams with union, intersection and difference).
extern const char* const kFreshExprs[3];  ///< Each reads S0, S1 and S2.
extern const char* const kHotExprs[3];    ///< Over S3..S5 only.
extern const char* const kBarrierExpr;    ///< Reads all six streams.

/// Everything a run feeds the system, built from --seed before set-up.
struct Inputs {
  std::vector<setsketch::UpdateBatch> preload;     ///< Set-up state.
  /// One net-zero cycle per bulk site (site i owns streams i mod sites).
  std::vector<std::vector<setsketch::UpdateBatch>> cycle;
  std::vector<setsketch::UpdateBatch> trickle;     ///< kTricklePool.
  uint64_t preload_updates = 0;
  uint64_t cycle_updates = 0;  ///< Summed over sites.
};
Inputs MakeInputs(const WorkloadConfig& config, uint64_t seed,
                  size_t trickle_batches);
/// The trickle of the k-th triple.
inline const setsketch::UpdateBatch& Trickle(const Inputs& inputs,
                                             size_t k) {
  return inputs.trickle[k % inputs.trickle.size()];
}

/// Sample set with order statistics (setsketch::Quantile: linear
/// interpolation).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Quantile(double q) const { return setsketch::Quantile(values_, q); }
  double Median() const { return Quantile(0.5); }
  double Mean() const { return setsketch::Mean(values_); }

 private:
  std::vector<double> values_;
};

/// In-memory span log. Spans of one request share `id`; `parent` links
/// a span to the span that caused it. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint64_t NextId() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ++next_id_;
  }
  void Record(const char* name, uint64_t id, uint64_t parent,
              Clock::time_point start, Clock::time_point end);
  /// Writes one JSON object per line; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::mutex mutex_;
  uint64_t next_id_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) under `name`.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0)
      : tracer_(tracer),
        name_(name),
        id_(tracer->enabled() ? tracer->NextId() : 0),
        parent_(parent),
        start_(Clock::now()) {}
  ~ScopedSpan() {
    if (tracer_->enabled()) {
      tracer_->Record(name_, id_, parent_, start_, Clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_;
  uint64_t parent_;
  Clock::time_point start_;
};

/// One metric as printed: value + unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Outcome of one workload run.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  ///< Gate failures, for stderr.
  MetricMap metrics;
  void Fail(const std::string& problem) {
    correct = false;
    if (problems.size() < 20) problems.push_back(problem);
  }
};

/// Runs `config` for about `seconds` of measurement and reports the
/// end-to-end metrics. With a tracer enabled it also records spans,
/// samples per-layer counters and replays the inputs through each layer
/// (layers.cc), adding the per-layer metrics.
RunResult RunWorkload(const WorkloadConfig& config, uint64_t seed,
                      double seconds, const std::string& scratch_dir,
                      Tracer* tracer);

}  // namespace perfbench

#endif  // SETSKETCH_PERFBENCH_PERFBENCH_H_
