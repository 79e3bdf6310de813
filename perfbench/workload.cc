// One workload run: set-up (repeated), then closed-loop bulk rounds
// alternating with closed-loop query blocks, each answer checked against
// the reference.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <thread>

#include "server/wal.h"
#include "system.h"

namespace perfbench {

using setsketch::PlanCache;
using setsketch::QueryResultInfo;
using setsketch::SketchBank;
using setsketch::SketchClient;
using setsketch::SketchFamily;
using setsketch::SketchServer;
using setsketch::UpdateBatch;

void RunOnIoCpu(const WorkloadConfig& config) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(config.shards % static_cast<int>(std::thread::hardware_concurrency()),
          &set);
  sched_setaffinity(0, sizeof(set), &set);
}

bool System::Start(const WorkloadConfig& config, const std::string& wal_dir,
                   std::string* error) {
  SketchServer::Options options;
  options.params = BenchParams();
  options.copies = config.copies;
  options.seed = kMasterSeed;
  options.witness = BenchWitness();
  options.shards = config.shards;
  if (config.queue_capacity > 0) options.queue_capacity = config.queue_capacity;
  options.pin_shards = true;  // See RunOnIoCpu.
  if (config.wal) {
    options.wal_dir = wal_dir;
    // Appends reach the page cache only: fsync on the shared virtual
    // disk made every WAL-bound median unsteady (README.md).
    options.wal_fsync = false;
  }
  server = std::make_unique<SketchServer>(options);
  return server->Start(error);
}

Reference::Reference(int copies)
    : bank_(SketchFamily(BenchParams(), copies, kMasterSeed)),
      cache_(PlanCache::Options{BenchWitness()}) {
  for (const std::string& name : StreamNames()) bank_.AddStream(name);
}

void Reference::Apply(const UpdateBatch& batch) {
  bank_.ApplyBatch(batch.stream_names, batch.updates);
}

QueryResultInfo Reference::Answer(const std::string& expression) {
  const PlanCache::Result planned = cache_.Query(expression, bank_);
  QueryResultInfo info;
  info.ok = planned.ok;
  info.estimate = planned.estimate;
  info.lo = planned.interval.lo;
  info.hi = planned.interval.hi;
  info.error = planned.error;
  return info;
}

Served Keep(const QueryResultInfo& info) {
  return Served{info.ok, info.estimate, info.lo, info.hi};
}

bool SameAnswer(const Served& served, const QueryResultInfo& reference) {
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  return served.ok && reference.ok &&
         bits(served.estimate) == bits(reference.estimate) &&
         bits(served.lo) == bits(reference.lo) &&
         bits(served.hi) == bits(reference.hi);
}

std::unique_ptr<SketchClient> Dial(int port, const std::string& site_id,
                                   std::string* error) {
  SketchClient::Options options;
  options.port = port;
  options.site_id = site_id;
  return SketchClient::Connect(options, error);
}

bool WriteWalTail(const std::string& dir,
                  const std::vector<UpdateBatch>& batches,
                  std::string* error) {
  setsketch::Wal::Options options;
  options.dir = dir;
  options.fsync = false;  // Untimed preparation; the replay reads it back.
  auto wal = setsketch::Wal::Open(options, 0, error);
  if (wal == nullptr) return false;
  for (size_t i = 0; i < batches.size(); ++i) {
    const std::string payload =
        setsketch::EncodePushUpdates(batches[i], "tail", i + 1);
    if (!wal->Append("tail", i + 1, payload, error)) return false;
  }
  return true;
}

namespace {

/// What one closed-loop site saw during a bulk round.
struct SiteLog {
  Samples push_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  Clock::time_point last_ack{};
};

void PushAll(SketchClient* client, const std::vector<UpdateBatch>& batches,
             Tracer* tracer, const std::function<void()>& sample,
             SiteLog* log) {
  for (size_t i = 0; i < batches.size(); ++i) {
    uint64_t retries = 0;
    const Clock::time_point start = Clock::now();
    SketchClient::Status status;
    {
      ScopedSpan span(tracer, "push");
      status = client->PushUpdatesWithRetry(batches[i], 1000, 1, &retries);
    }
    const Clock::time_point end = Clock::now();
    ++log->attempted;
    log->retries += retries;
    if (!status.ok) {
      ++log->failed;
      continue;
    }
    log->push_us.Add(MicrosBetween(start, end));
    log->last_ack = end;
    if (sample && i % 4 == 0) sample();
  }
}

/// Peak resident set (VmHWM) since the last ResetPeakRss, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Hands freed heap back to the kernel and restarts the peak-RSS count,
/// so the peak covers the live system only, not the set-ups before it.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace

RunResult RunWorkload(const WorkloadConfig& config, uint64_t seed,
                      double seconds, const std::string& scratch_dir,
                      Tracer* tracer) {
  RunResult result;
  cpu_set_t saved_affinity;
  CPU_ZERO(&saved_affinity);
  sched_getaffinity(0, sizeof(saved_affinity), &saved_affinity);
  RunOnIoCpu(config);
  const Inputs inputs = MakeInputs(config, seed, kTricklePool);
  const std::string wal_dir = scratch_dir + "/wal";

  // Reference answers for the set-up state: bulk cycles are net zero and
  // trickles never touch S3..S5, so hot answers stay these for the whole
  // run (barrier and fresh answers are checked after it).
  Reference reference(config.copies);
  for (const UpdateBatch& batch : inputs.preload) reference.Apply(batch);
  const QueryResultInfo barrier_ref = reference.Answer(kBarrierExpr);
  QueryResultInfo hot_ref[3];
  QueryResultInfo fresh_ref[3];
  for (int i = 0; i < 3; ++i) {
    hot_ref[i] = reference.Answer(kHotExprs[i]);
    fresh_ref[i] = reference.Answer(kFreshExprs[i]);
  }

  std::string error;
  const auto query = [&](SketchClient* client, const char* expression,
                         const char* span_name) {
    ScopedSpan span(tracer, span_name);
    ++result.attempted;
    QueryResultInfo info = client->Query(expression);
    if (!info.ok) {
      ++result.failed;
      result.Fail(std::string(span_name) + " '" + expression +
                  "' failed: " + info.error);
    }
    return info;
  };
  const auto check = [&](const QueryResultInfo& served,
                         const QueryResultInfo& expected,
                         const std::string& what) {
    if (served.ok && !SameAnswer(Keep(served), expected)) {
      result.Fail(what + ": served answer differs from the reference");
    }
  };

  // --- Set-up, repeated; the last set-up stays up for the run. ---------
  Samples setup_s;
  System system;
  std::unique_ptr<SketchClient> control;
  uint64_t preload_pushed = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) {
      control.reset();
      system.Stop();
      system = System();
      malloc_trim(0);
    }
    std::filesystem::remove_all(wal_dir);
    if (config.wal && !WriteWalTail(wal_dir, inputs.preload, &error)) {
      result.Fail("writing the WAL tail: " + error);
      return result;
    }
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, "setup");
      if (!system.Start(config, wal_dir, &error)) {
        result.Fail("start: " + error);
        return result;
      }
      preload_pushed = 0;
      if (!config.wal) {
        auto loader = Dial(system.port(), "preload", &error);
        if (loader == nullptr) {
          result.Fail("dial: " + error);
          return result;
        }
        SiteLog log;
        PushAll(loader.get(), inputs.preload, tracer, nullptr, &log);
        result.attempted += log.attempted;
        result.failed += log.failed;
        preload_pushed = inputs.preload_updates;
      }
      control = Dial(system.port(), "", &error);
      if (control == nullptr) {
        result.Fail("dial: " + error);
        return result;
      }
      // Barrier, then one cold answer per expression so the hot queries
      // of the run find their plans built.
      check(query(control.get(), kBarrierExpr, "barrier"), barrier_ref,
            "set-up barrier");
      for (int i = 0; i < 3; ++i) {
        check(query(control.get(), kHotExprs[i], "query"), hot_ref[i],
              "set-up hot query");
        check(query(control.get(), kFreshExprs[i], "query"), fresh_ref[i],
              "set-up fresh query");
      }
    }
    setup_s.Add(SecondsSince(start));
  }

  ResetPeakRss();
  // --- Timed phase: bulk rounds alternate with query blocks until
  // --seconds are spent, each kind holding its share of the time, so
  // every metric samples the whole run.
  std::vector<std::unique_ptr<SketchClient>> sites;
  for (int i = 0; i < config.bulk_sites; ++i) {
    sites.push_back(Dial(system.port(), "site-" + std::to_string(i), &error));
    if (sites.back() == nullptr) {
      result.Fail("dial: " + error);
      return result;
    }
  }
  auto generator = Dial(system.port(), "trickle", &error);
  if (generator == nullptr) {
    result.Fail("dial: " + error);
    return result;
  }
  uint64_t backlog_peak = 0;
  const auto sample_backlog = [&] {
    ScopedSpan span(tracer, "stats_sample");
    const SketchServer::StatsSnapshot stats = system.server->stats();
    backlog_peak = std::max(backlog_peak,
                            stats.updates_enqueued - stats.updates_applied);
  };
  Samples applied_ups;
  Samples lag_ms;
  Samples bulk_push_us;
  uint64_t client_retries = 0;
  uint64_t rounds = 0;
  size_t trickles_used = 0;  // In order, one per triple.
  // Barrier answers with the number of trickles pushed before each; the
  // cycles are net zero, so each must equal the set-up state plus those
  // trickles (checked after the timed phase).
  std::vector<std::pair<size_t, Served>> barriers;
  // Bulk round: closed-loop sites push one net-zero cycle each, then a
  // barrier QUERY (Answer drains every shard queue) makes it visible.
  const auto bulk_round = [&] {
    std::vector<SiteLog> logs(sites.size());
    const Clock::time_point round_start = Clock::now();
    std::vector<std::thread> others;
    for (size_t i = 1; i < sites.size(); ++i) {
      others.emplace_back(PushAll, sites[i].get(), std::cref(inputs.cycle[i]),
                          tracer, nullptr, &logs[i]);
    }
    PushAll(sites[0].get(), inputs.cycle[0], tracer,
            tracer->enabled() ? std::function<void()>(sample_backlog)
                              : std::function<void()>(),
            &logs[0]);
    for (std::thread& thread : others) thread.join();
    Clock::time_point last_ack = round_start;
    for (const SiteLog& log : logs) {
      last_ack = std::max(last_ack, log.last_ack);
      bulk_push_us.Append(log.push_us);
      result.attempted += log.attempted;
      result.failed += log.failed;
      client_retries += log.retries;
      if (log.failed > 0) result.Fail("bulk pushes failed");
    }
    barriers.emplace_back(
        trickles_used, Keep(query(control.get(), kBarrierExpr, "barrier")));
    const Clock::time_point visible = Clock::now();
    const double round_seconds =
        std::chrono::duration<double>(visible - round_start).count();
    applied_ups.Add(static_cast<double>(inputs.cycle_updates) / round_seconds);
    lag_ms.Add(MicrosBetween(last_ack, visible) / 1e3);
    ++rounds;
    // The cycle touched S3..S5, so the next answer of a hot expression is
    // not hot: it is made here, untimed.
    for (int i = 0; i < 3; ++i) {
      check(query(generator.get(), kHotExprs[i], "rewarm"), hot_ref[i],
            "re-warmed hot query");
    }
  };

  // Query block, from one closed-loop client, each operation timed from
  // issue to reply: kBlockTriples (trickle push, fresh query, ping) triples,
  // then as many hot queries back to back. The ping takes the first round
  // trip after the fresh query's re-merge, whose cost swings with the
  // host's memory traffic (README.md), so no push or hot query does.
  Samples trickle_push_us;
  Samples fresh_us;
  Samples ping_after_merge_us;
  Samples hot_us;
  std::vector<Served> fresh_answers;
  uint64_t trickle_pushed = 0;
  uint64_t hot_issued = 0;
  const auto query_block = [&] {
    for (int j = 0; j < kBlockTriples; ++j, ++trickles_used) {
      const size_t k = trickles_used;
      const UpdateBatch& trickle = Trickle(inputs, k);
      Clock::time_point issued = Clock::now();
      uint64_t retries = 0;
      SketchClient::Status status;
      {
        ScopedSpan span(tracer, "push");
        status = generator->PushUpdatesWithRetry(trickle, 1000, 1, &retries);
      }
      ++result.attempted;
      client_retries += retries;
      if (!status.ok) {
        ++result.failed;
        result.Fail("trickle push failed: " + status.error);
        fresh_answers.emplace_back();
        continue;
      }
      trickle_pushed += trickle.updates.size();
      trickle_push_us.Add(MicrosBetween(issued, Clock::now()));
      issued = Clock::now();
      fresh_answers.push_back(
          Keep(query(generator.get(), kFreshExprs[k % 3], "fresh_query")));
      fresh_us.Add(MicrosBetween(issued, Clock::now()));
      issued = Clock::now();
      {
        ScopedSpan span(tracer, "ping");
        ++result.attempted;
        if (!generator->Ping().ok) {
          ++result.failed;
          result.Fail("ping failed");
        }
      }
      ping_after_merge_us.Add(MicrosBetween(issued, Clock::now()));
    }
    for (int j = 0; j < kBlockTriples; ++j, ++hot_issued) {
      const Clock::time_point issued = Clock::now();
      check(query(generator.get(), kHotExprs[hot_issued % 3], "hot_query"),
            hot_ref[hot_issued % 3], "hot query");
      hot_us.Add(MicrosBetween(issued, Clock::now()));
    }
  };

  double bulk_spent = 0.0;
  double query_spent = 0.0;
  const Clock::time_point run_start = Clock::now();
  while (SecondsSince(run_start) < seconds || rounds == 0 ||
         trickles_used == 0) {
    const bool bulk_turn =
        query_spent > 0.0 &&
        bulk_spent <= config.bulk_share * (bulk_spent + query_spent);
    const Clock::time_point start = Clock::now();
    if (bulk_turn) {
      bulk_round();
      bulk_spent += SecondsSince(start);
    } else {
      query_block();
      query_spent += SecondsSince(start);
    }
  }

  // The checkers below spread over every CPU again.
  sched_setaffinity(0, sizeof(saved_affinity), &saved_affinity);

  // Peak RSS of the timed phase, before the checkers allocate their own
  // references.
  const double peak_rss_mb = PeakRssMb();

  // Fresh and barrier answers: with the timed phase over, one checker
  // thread per fresh expression, and one for the barriers, replays every
  // used trickle, in order, through its own reference (bulk cycles are net
  // zero) and checks the answers it owns.
  std::string mismatch[4];
  {
    std::vector<std::thread> checkers;
    checkers.emplace_back([&] {
      Reference mine(config.copies);
      for (const UpdateBatch& batch : inputs.preload) mine.Apply(batch);
      size_t applied = 0;
      for (const auto& [trickles, served] : barriers) {
        for (; applied < trickles; ++applied) {
          mine.Apply(Trickle(inputs, applied));
        }
        if (served.ok && !SameAnswer(served, mine.Answer(kBarrierExpr))) {
          mismatch[3] = "bulk-round barrier after " +
                        std::to_string(trickles) +
                        " trickles: served answer differs from the reference";
          return;
        }
      }
    });
    for (size_t e = 0; e < 3; ++e) {
      checkers.emplace_back([&, e] {
        Reference mine(config.copies);
        for (const UpdateBatch& batch : inputs.preload) mine.Apply(batch);
        for (size_t k = 0; k < trickles_used; ++k) {
          mine.Apply(Trickle(inputs, k));
          const Served& served = fresh_answers[k];
          if (k % 3 != e || !served.ok) continue;
          if (!SameAnswer(served, mine.Answer(kFreshExprs[e]))) {
            mismatch[e] = "fresh query " + std::to_string(k) +
                          ": served answer differs from the reference";
            return;
          }
        }
      });
    }
    for (std::thread& checker : checkers) checker.join();
  }
  RunOnIoCpu(config);
  for (const std::string& problem : mismatch) {
    if (!problem.empty()) result.Fail(problem);
  }

  // Push latency is never set by backpressure (README.md): durable_r8's
  // shard queue holds a whole round, so its sites are never bounced;
  // query_mixed's bulk pushes saturate admission, so its trickle pushes
  // are timed instead.
  const Samples& push_us = config.wal ? bulk_push_us : trickle_push_us;
  MetricMap& m = result.metrics;
  m["setup_s"] = {setup_s.Median(), "s"};
  m["applied_ups"] = {applied_ups.Median(), "1/s"};
  m["visible_lag_ms"] = {lag_ms.Median(), "ms"};
  m["push_p50_us"] = {push_us.Median(), "us"};
  m["tail.push_p99_us"] = {push_us.Quantile(0.99), "us"};
  m["hot_query_p50_us"] = {hot_us.Median(), "us"};
  m["tail.hot_query_p99_us"] = {hot_us.Quantile(0.99), "us"};
  m["fresh_query_p50_us"] = {fresh_us.Median(), "us"};
  m["tail.fresh_query_p99_us"] = {fresh_us.Quantile(0.99), "us"};
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};
  // Sample counts behind the percentiles (printed, not gated).
  m["n.push"] = {static_cast<double>(push_us.size()), "count"};
  m["n.query"] = {static_cast<double>(fresh_us.size()), "count"};
  m["n.rounds"] = {static_cast<double>(rounds), "count"};

  uint64_t replay_pushed = 0;
  if (tracer->enabled()) {
    const SketchServer::StatsSnapshot stats = system.server->stats();
    const uint64_t rejected = stats.batches_rejected;
    const uint64_t accepted = stats.batches_accepted;
    const uint64_t lookups = stats.plan_cache_hits + stats.plan_cache_misses +
                             stats.plan_cache_invalidations;
    const auto ratio = [](uint64_t a, uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    m["server.backlog_peak_updates"] = {static_cast<double>(backlog_peak),
                                        "count"};
    m["server.retry_ratio"] = {ratio(rejected, accepted + rejected), "ratio"};
    m["server.client_retries"] = {static_cast<double>(client_retries),
                                  "count"};
    m["query.hit_ratio"] = {ratio(stats.plan_cache_hits, lookups), "ratio"};
    m["query.merge_builds_per_query"] = {
        ratio(stats.plan_cache_merge_builds, lookups), "ratio"};
    m["server.ping_after_merge_us_p50"] = {ping_after_merge_us.Median(),
                                           "us"};
    const std::string replay_error =
        ReplayLayers(config, inputs, system.server.get(), scratch_dir,
                     applied_ups.Median(), tracer, &m, &replay_pushed);
    if (!replay_error.empty()) result.Fail("layer replay: " + replay_error);
  }

  // Every pushed update must have been applied exactly once.
  generator.reset();
  sites.clear();
  control.reset();
  system.Stop();
  const uint64_t sent = preload_pushed + rounds * inputs.cycle_updates +
                        trickle_pushed + replay_pushed;
  const uint64_t applied = system.server->stats().updates_applied;
  if (applied != sent) {
    result.Fail("updates_applied " + std::to_string(applied) + " != sent " +
                std::to_string(sent));
  }
  std::filesystem::remove_all(wal_dir);
  return result;
}

}  // namespace perfbench
