// The system under test as the benchmark sees it: one SketchServer, plus
// the in-process reference that every served answer is checked against.

#ifndef SETSKETCH_PERFBENCH_SYSTEM_H_
#define SETSKETCH_PERFBENCH_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/sketch_bank.h"
#include "perfbench.h"
#include "query/plan_cache.h"
#include "server/sketch_client.h"
#include "server/sketch_server.h"

namespace perfbench {

/// CPU placement (README.md, "Design rules"): the server pins its shard
/// workers to CPUs 0..shards-1 and its io thread to CPU `shards`; this
/// puts the calling thread, and the threads it starts (the sites), on
/// that io CPU too.
void RunOnIoCpu(const WorkloadConfig& config);

class System {
 public:
  /// Starts the server, recovering `wal_dir` when the workload logs.
  bool Start(const WorkloadConfig& config, const std::string& wal_dir,
             std::string* error);
  /// Graceful drain + join of everything Start spawned.
  void Stop() { server->Stop(); }
  int port() const { return server->port(); }

  std::unique_ptr<setsketch::SketchServer> server;
};

/// SketchBank + PlanCache fed the same generated updates in-process.
class Reference {
 public:
  explicit Reference(int copies);
  void Apply(const setsketch::UpdateBatch& batch);
  setsketch::QueryResultInfo Answer(const std::string& expression);

 private:
  setsketch::SketchBank bank_;
  setsketch::PlanCache cache_;
};

/// The part of a served answer the gate compares. Answers kept for the
/// checks after a run are stored in this form, so that how many a run
/// collects barely moves its peak RSS.
struct Served {
  bool ok = false;
  double estimate = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};
Served Keep(const setsketch::QueryResultInfo& info);

/// True iff both answers succeeded with bit-identical (estimate, lo, hi).
bool SameAnswer(const Served& served,
                const setsketch::QueryResultInfo& reference);

/// A client connection to `port`, stamping pushes with `site_id`.
std::unique_ptr<setsketch::SketchClient> Dial(int port,
                                              const std::string& site_id,
                                              std::string* error);

/// Writes `batches` as a WAL tail through Wal::Open/Wal::Append, stamped
/// with (site "tail", sequence 1..n), exactly as the server logs them.
bool WriteWalTail(const std::string& dir,
                  const std::vector<setsketch::UpdateBatch>& batches,
                  std::string* error);

/// Per-layer replay of the run's own inputs through each layer's public
/// entry point (layers.cc). `server` is the live, set-up server;
/// `applied_ups` the run's end-to-end applied throughput. Adds the updates
/// the replay pushes into the server to `*pushed`. Returns the first
/// replay error, empty when every layer call succeeded.
std::string ReplayLayers(const WorkloadConfig& config, const Inputs& inputs,
                         setsketch::SketchServer* server,
                         const std::string& scratch_dir,
                         double applied_ups, Tracer* tracer,
                         MetricMap* metrics, uint64_t* pushed);

}  // namespace perfbench

#endif  // SETSKETCH_PERFBENCH_SYSTEM_H_
