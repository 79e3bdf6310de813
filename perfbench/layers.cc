// Per-layer replay for the traced run: the run's own inputs go through
// each layer's public entry point in isolation, so every end-to-end
// number can be split into the layers it crosses (README.md, "Per-layer
// metrics").

#include <filesystem>
#include <iostream>

#include "cluster/cluster_router.h"
#include "expr/canonical.h"
#include "expr/parser.h"
#include "server/wal.h"
#include "system.h"

namespace perfbench {

using setsketch::ClusterRouter;
using setsketch::ClusterShard;
using setsketch::PlanCache;
using setsketch::SketchBank;
using setsketch::SketchClient;
using setsketch::SketchFamily;
using setsketch::SummaryPullRequest;
using setsketch::SummaryResult;
using setsketch::UpdateBatch;

namespace {

/// The reconciliation each workload claims (README.md), and the tolerance
/// its ratio of layer sum to end-to-end median must lie within.
const std::pair<const char*, const char*> kReconcileClaims[] = {
    {"durable_r8", "reconcile.push_ratio"},
    {"query_mixed", "reconcile.hot_query_ratio"},
};
constexpr double kReconcileLow = 0.7;
constexpr double kReconcileHigh = 1.3;

/// Samples one call `count` times (microseconds per call), each call in
/// its own span under `parent`.
template <typename Fn>
Samples TimeCalls(Tracer* tracer, const char* name, uint64_t parent,
                  size_t count, Fn&& fn) {
  Samples samples;
  for (size_t i = 0; i < count; ++i) {
    ScopedSpan span(tracer, name, parent);
    const Clock::time_point start = Clock::now();
    fn(i);
    samples.Add(MicrosBetween(start, Clock::now()));
  }
  return samples;
}

SketchBank MakeBank(int copies) {
  SketchBank bank(SketchFamily(BenchParams(), copies, kMasterSeed));
  for (const std::string& name : StreamNames()) bank.AddStream(name);
  return bank;
}

/// Single-threaded SketchBank::ApplyBatch over the bulk batches at
/// `copies`, in nanoseconds per update (at least ~0.25 s of work).
double ApplyNsPerUpdate(int copies, const std::vector<UpdateBatch>& batches) {
  SketchBank bank = MakeBank(copies);
  uint64_t updates = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; updates == 0 || SecondsSince(start) < 0.25; ++i) {
    const UpdateBatch& batch = batches[i % batches.size()];
    bank.ApplyBatch(batch.stream_names, batch.updates);
    updates += batch.updates.size();
  }
  return SecondsSince(start) * 1e9 / static_cast<double>(updates);
}

SummaryPullRequest FullPull(const std::vector<std::string>& streams) {
  SummaryPullRequest request;
  for (const std::string& name : streams) request.streams.push_back({name});
  return request;
}

}  // namespace

std::string ReplayLayers(const WorkloadConfig& config, const Inputs& inputs,
                         setsketch::SketchServer* server,
                         const std::string& scratch_dir,
                         double applied_ups, Tracer* tracer,
                         MetricMap* metrics, uint64_t* pushed) {
  MetricMap& m = *metrics;
  const ScopedSpan root(tracer, "replay");
  const uint64_t parent = root.id();
  const std::vector<UpdateBatch>& bulk = inputs.cycle.front();
  std::string error;

  // core: the apply kernel, and the ceiling served ingest is held to.
  {
    const ScopedSpan span(tracer, "core.apply", parent);
    m["core.apply_ns_per_update"] = {ApplyNsPerUpdate(config.copies, bulk),
                                     "ns"};
    const int per_worker = config.copies / config.shards;
    const double worker_ups = 1e9 / ApplyNsPerUpdate(per_worker, bulk);
    const double ceiling = worker_ups * config.shards;
    m["server.apply_efficiency"] = {applied_ups / ceiling, "ratio"};
    SketchBank bank = MakeBank(config.copies);
    for (const UpdateBatch& batch : inputs.preload) {
      bank.ApplyBatch(batch.stream_names, batch.updates);
    }
    m["core.counter_bytes"] = {static_cast<double>(bank.CounterBytes()),
                               "bytes"};
  }

  // server: wire codec, loopback round trip, in-process Answer.
  {
    std::vector<std::string> frames;
    uint64_t updates = 0;
    uint64_t bytes = 0;
    const Samples encode = TimeCalls(
        tracer, "server.encode", parent, bulk.size(), [&](size_t i) {
          frames.push_back(setsketch::EncodeFrame(
              setsketch::Opcode::kPushUpdates,
              setsketch::EncodePushUpdates(bulk[i], "site-0", i + 1)));
        });
    for (size_t i = 0; i < bulk.size(); ++i) {
      updates += bulk[i].updates.size();
      bytes += frames[i].size();
    }
    setsketch::UpdateBatchView view;
    const Samples decode = TimeCalls(
        tracer, "server.decode", parent, frames.size(), [&](size_t i) {
          setsketch::FrameView frame;
          size_t frame_bytes = 0;
          setsketch::WireError code = setsketch::WireError::kNone;
          std::string message;
          if (setsketch::ScanFrame(frames[i], &frame, &frame_bytes, &code,
                                   &message) !=
                  setsketch::FrameScanStatus::kFrame ||
              !setsketch::DecodePushUpdates(frame.payload, &view, &message)) {
            error = "decode: " + message;
          }
        });
    const double n = static_cast<double>(frames.size());
    const double per_update = static_cast<double>(updates);
    m["server.encode_ns_per_update"] = {encode.Mean() * n * 1e3 / per_update,
                                        "ns"};
    m["server.decode_ns_per_update"] = {decode.Mean() * n * 1e3 / per_update,
                                        "ns"};
    m["server.wire_bytes_per_update"] = {static_cast<double>(bytes) /
                                             per_update,
                                         "bytes"};
    auto client = Dial(server->port(), "", &error);
    auto pusher = Dial(server->port(), "replay", &error);
    if (client == nullptr || pusher == nullptr) return error;
    m["server.ping_us_p50"] = {
        TimeCalls(tracer, "server.ping", parent, 2000,
                  [&](size_t) { client->Ping(); })
            .Median(),
        "us"};
    // In the workload every fresh query follows a trickle push, so its
    // in-process Answer is timed in that sequence; the trickles are pushed
    // again, in order, so every stream stays legal. Hot queries run back
    // to back, as in the workload's query blocks.
    Samples fresh_answer;
    const size_t rounds = std::min<size_t>(inputs.trickle.size(), 500);
    for (size_t k = 0; k < rounds; ++k) {
      if (!pusher->PushUpdatesWithRetry(inputs.trickle[k], 1000, 1).ok) {
        error = "replay push failed";
        break;
      }
      *pushed += inputs.trickle[k].updates.size();
      fresh_answer.Append(
          TimeCalls(tracer, "server.answer", parent, 1,
                    [&](size_t) { server->Answer(kFreshExprs[k % 3]); }));
    }
    m["server.fresh_answer_us_p50"] = {fresh_answer.Median(), "us"};
    m["server.answer_us_p50"] = {
        TimeCalls(tracer, "server.answer", parent, 2000,
                  [&](size_t i) { server->Answer(kHotExprs[i % 3]); })
            .Median(),
        "us"};
  }

  // wal: appends of the run's payloads, as the workloads run them (no
  // fsync) and with the fsync the workloads leave out; replay of the tail.
  {
    const std::string dir = scratch_dir + "/replay-wal";
    std::vector<std::string> payloads;
    for (size_t i = 0; i < bulk.size(); ++i) {
      payloads.push_back(
          setsketch::EncodePushUpdates(bulk[i], "site-0", i + 1));
    }
    // At most 2000 appends and ~64 MB of log.
    const size_t count = std::min<size_t>(
        2000, std::max<size_t>(200, (64u << 20) / payloads[0].size()));
    for (const bool fsync : {false, true}) {
      std::filesystem::remove_all(dir);
      setsketch::Wal::Options options;
      options.dir = dir;
      options.fsync = fsync;
      auto wal = setsketch::Wal::Open(options, 0, &error);
      if (wal == nullptr) break;
      uint64_t updates = 0;
      const Samples append = TimeCalls(
          tracer, "wal.append", parent, count, [&](size_t i) {
            const size_t k = i % payloads.size();
            updates += bulk[k].updates.size();
            wal->Append("site-0", i + 1, payloads[k], &error);
          });
      if (fsync) {
        m["wal.fsync_append_us_p50"] = {append.Median(), "us"};
        continue;
      }
      m["wal.append_us_p50"] = {append.Median(), "us"};
      m["wal.append_us_p99"] = {append.Quantile(0.99), "us"};
      m["wal.bytes_per_update"] = {static_cast<double>(wal->bytes_appended()) /
                                       static_cast<double>(updates),
                                   "bytes"};
    }
    std::filesystem::remove_all(dir);
    if (WriteWalTail(dir, inputs.preload, &error)) {
      setsketch::WalReplayStats stats;
      const ScopedSpan span(tracer, "wal.replay", parent);
      const Clock::time_point start = Clock::now();
      if (setsketch::Wal::Replay(
              dir, 0, [](const setsketch::WalRecord&) {}, &stats, &error)) {
        m["wal.replay_s"] = {SecondsSince(start), "s"};
      }
    }
    std::filesystem::remove_all(dir);
  }

  // expr + query: parse/canonicalize, and the plan cache on its own.
  {
    const Samples parse = TimeCalls(
        tracer, "expr.parse_canon", parent, 600, [&](size_t i) {
          const char* text =
              i % 2 ? kFreshExprs[i / 2 % 3] : kHotExprs[i / 2 % 3];
          const setsketch::ParseResult parsed =
              setsketch::ParseExpression(text);
          if (parsed.ok()) setsketch::Canonicalize(*parsed.expression);
        });
    m["expr.parse_canon_us"] = {parse.Mean(), "us"};
    SketchBank bank = MakeBank(config.copies);
    for (const UpdateBatch& batch : inputs.preload) {
      bank.ApplyBatch(batch.stream_names, batch.updates);
    }
    PlanCache cache(PlanCache::Options{BenchWitness()});
    for (const char* text : kHotExprs) cache.Query(text, bank);
    for (const char* text : kFreshExprs) cache.Query(text, bank);
    m["query.hot_us_p50"] = {
        TimeCalls(tracer, "query.hot", parent, 2000,
                  [&](size_t i) { cache.Query(kHotExprs[i % 3], bank); })
            .Median(),
        "us"};
    Samples requery;
    for (size_t k = 0; k < std::min<size_t>(inputs.trickle.size(), 500); ++k) {
      bank.ApplyBatch(inputs.trickle[k].stream_names,
                      inputs.trickle[k].updates);
      requery.Append(TimeCalls(tracer, "query.requery", parent, 1,
                               [&](size_t) {
                                 cache.Query(kFreshExprs[k % 3], bank);
                               }));
    }
    m["query.requery_us_p50"] = {requery.Median(), "us"};
  }

  // distributed: the summary codec on a full pull of a fresh expression's
  // streams.
  const std::vector<std::string> pulled = {"S0", "S1", "S2", "S3"};
  {
    const SummaryResult full =
        server->PullSummaries(FullPull(pulled));
    std::string encoded;
    const Samples encode =
        TimeCalls(tracer, "distributed.encode", parent, 200, [&](size_t) {
          encoded = setsketch::EncodeSummaryResult(full);
        });
    const Samples decode =
        TimeCalls(tracer, "distributed.decode", parent, 200, [&](size_t) {
          SummaryResult decoded;
          setsketch::DecodeSummaryResult(encoded, &decoded, &error);
        });
    m["distributed.summary_bytes"] = {static_cast<double>(encoded.size()),
                                      "bytes"};
    m["distributed.encode_us"] = {encode.Median(), "us"};
    m["distributed.decode_us"] = {decode.Median(), "us"};
  }

  // cluster: summary pulls against the server as a shard, and the Answer
  // of a one-shard router over it.
  {
    auto client = Dial(server->port(), "", &error);
    if (client != nullptr) {
      SummaryResult result;
      m["cluster.pull_full_us_p50"] = {
          TimeCalls(tracer, "cluster.pull_full", parent, 300,
                    [&](size_t) {
                      client->PullSummaries(FullPull(pulled), &result);
                    })
              .Median(),
          "us"};
      SummaryPullRequest cached;
      for (const auto& entry : result.streams) {
        cached.streams.push_back({entry.name, entry.bank_id, entry.epoch});
      }
      m["cluster.pull_unchanged_us_p50"] = {
          TimeCalls(tracer, "cluster.pull_unchanged", parent, 1000,
                    [&](size_t) { client->PullSummaries(cached, &result); })
              .Median(),
          "us"};
    }
    ClusterRouter::Options options;
    ClusterShard shard;
    shard.name = "s0";
    shard.port = server->port();
    options.shards.push_back(shard);
    options.replicas = 0;
    options.params = BenchParams();
    options.copies = config.copies;
    options.seed = kMasterSeed;
    options.witness = BenchWitness();
    ClusterRouter router(options);
    if (router.Start(&error) && router.ProbeAll() == 1) {
      m["cluster.answer_us_p50"] = {
          TimeCalls(tracer, "cluster.answer", parent, 500,
                    [&](size_t i) { router.Answer(kHotExprs[i % 3]); })
              .Median(),
          "us"};
      const ClusterRouter::StatsSnapshot stats = router.stats();
      const double full = static_cast<double>(stats.summary_streams_full);
      const double unchanged =
          static_cast<double>(stats.summary_streams_unchanged);
      m["cluster.unchanged_ratio"] = {
          full + unchanged > 0 ? unchanged / (full + unchanged) : 0.0,
          "ratio"};
      m["cluster.pulls_per_query"] = {
          stats.queries_answered > 0
              ? static_cast<double>(stats.summary_pulls) /
                    static_cast<double>(stats.queries_answered)
              : 0.0,
          "ratio"};
    }
    router.Stop();
  }

  // Reconciliation of the serial paths (README.md states the tolerance):
  // a push is one round trip + encode + decode, plus, when the workload
  // logs, one fsync'd append per site, since closed-loop sites saturating
  // the admission lock each wait for the others' appends as well.
  const double batch = static_cast<double>(
      config.wal ? config.bulk_batch : kTrickleBatch);
  const double push_layers =
      m["server.ping_us_p50"].value +
      (m["server.encode_ns_per_update"].value +
       m["server.decode_ns_per_update"].value) *
          batch / 1e3 +
      (config.wal ? config.bulk_sites * m["wal.append_us_p50"].value : 0.0);
  m["reconcile.push_layers_us"] = {push_layers, "us"};
  m["reconcile.push_ratio"] = {push_layers / m["push_p50_us"].value, "ratio"};
  // A hot query is one round trip + Answer.
  const double hot_layers =
      m["server.ping_us_p50"].value + m["server.answer_us_p50"].value;
  m["reconcile.hot_query_layers_us"] = {hot_layers, "us"};
  m["reconcile.hot_query_ratio"] = {hot_layers / m["hot_query_p50_us"].value,
                                    "ratio"};
  // The ratio each workload claims must lie within the tolerance.
  bool holds = true;
  for (const auto& [workload, ratio] : kReconcileClaims) {
    if (config.name != workload) continue;
    const double value = m[ratio].value;
    if (value < kReconcileLow || value > kReconcileHigh) {
      holds = false;
      std::cerr << "perfbench: " << ratio << " = " << value << " outside ["
                << kReconcileLow << ", " << kReconcileHigh << "]\n";
    }
  }
  m["reconcile.claims_hold"] = {holds ? 1.0 : 0.0, "bool"};
  return error;
}

}  // namespace perfbench
