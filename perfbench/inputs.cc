// Workload table, generated inputs, and the small statistics and span
// helpers every workload shares.

#include <algorithm>
#include <fstream>

#include "perfbench.h"
#include "stream/stream_generator.h"

namespace perfbench {

using setsketch::ChurnOptions;
using setsketch::InjectChurn;
using setsketch::Update;
using setsketch::UpdateBatch;

setsketch::SketchParams BenchParams() {
  setsketch::SketchParams params;
  params.levels = 24;
  params.num_second_level = 16;
  return params;
}

setsketch::WitnessOptions BenchWitness() {
  setsketch::WitnessOptions witness;
  witness.pool_all_levels = true;
  return witness;
}

std::vector<std::string> StreamNames() {
  std::vector<std::string> names;
  for (int i = 0; i < kNumStreams; ++i) {
    names.push_back("S" + std::to_string(i));
  }
  return names;
}

const char* const kFreshExprs[3] = {
    "((S0 | S1) & S2) - S3",
    "(S1 - S2) | (S0 & S4)",
    "((S2 & S0) | S5) - S1",
};
const char* const kHotExprs[3] = {
    "((S3 | S4) & S5) - (S3 & S4)",
    "(S3 - S5) | (S4 & S5)",
    "((S4 & S3) | S5) - S4",
};
const char* const kBarrierExpr = "((S0 | S1) & (S2 | S3)) - (S4 & S5)";

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> workloads = [] {
    std::vector<WorkloadConfig> list;

    WorkloadConfig durable;
    durable.name = "durable_r8";
    durable.why =
        "per-batch cost: two sites push 256-update batches through the WAL "
        "(page cache, no fsync) at copies=8, 1024-batch queue; set-up "
        "recovers a WAL tail";
    durable.copies = 8;
    durable.shards = 1;
    durable.wal = true;
    durable.queue_capacity = 1024;
    durable.preload_elements = 20000;
    durable.bulk_sites = 2;
    durable.bulk_batch = 256;
    durable.cycle_elements = 6000;
    durable.bulk_share = 0.8;
    durable.threads = "1 worker on CPU 0; io + 2 sites on CPU 1";
    list.push_back(durable);

    WorkloadConfig mixed;
    mixed.name = "query_mixed";
    mixed.why =
        "plan cache and copies=128 apply: 4096-update bulk rounds "
        "alternate with blocks of 64 (trickle push, fresh query, ping) "
        "triples + 64 hot queries";
    mixed.copies = 128;
    mixed.shards = 2;
    mixed.preload_elements = 6000;
    mixed.bulk_sites = 1;
    mixed.bulk_batch = 4096;
    mixed.cycle_elements = 6000;
    mixed.bulk_share = 0.25;
    mixed.threads = "2 workers on CPUs 0-1; io + 1 client on CPU 2";
    list.push_back(mixed);

    return list;
  }();
  return workloads;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& config : Workloads()) {
    if (config.name == name) return &config;
  }
  return nullptr;
}

namespace {

/// SplitMix64: derives independent sub-seeds from the run seed.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Churned Venn-partition updates over the six streams: every element of
/// the `dataset_seed` dataset lands in a uniformly chosen non-empty
/// region, and its insertions are wrapped in insert/delete churn (drawn
/// from `churn_seed`) whose net effect is identity.
std::vector<Update> ChurnedVenn(int elements, uint64_t dataset_seed,
                                uint64_t churn_seed) {
  std::vector<double> probs(1u << kNumStreams,
                            1.0 / ((1u << kNumStreams) - 1));
  probs[0] = 0.0;
  const setsketch::VennPartitionGenerator generator(kNumStreams, probs);
  const auto dataset = generator.Generate(elements, Mix(dataset_seed));
  ChurnOptions churn;
  churn.seed = Mix(churn_seed);
  return InjectChurn(dataset.ToInsertUpdates(Mix(churn_seed ^ 1)), churn);
}

std::vector<UpdateBatch> Chunk(const std::vector<Update>& updates,
                               size_t batch_size) {
  std::vector<UpdateBatch> batches;
  const std::vector<std::string> names = StreamNames();
  for (size_t begin = 0; begin < updates.size(); begin += batch_size) {
    UpdateBatch batch;
    batch.stream_names = names;
    const size_t end = std::min(updates.size(), begin + batch_size);
    batch.updates.assign(updates.begin() + static_cast<ptrdiff_t>(begin),
                         updates.begin() + static_cast<ptrdiff_t>(end));
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace

Inputs MakeInputs(const WorkloadConfig& config, uint64_t seed,
                  size_t trickle_batches) {
  Inputs inputs;
  const uint64_t base = Mix(seed);
  const std::vector<Update> preload =
      ChurnedVenn(config.preload_elements, base ^ 0xA11CE, base ^ 0xA11CF);
  inputs.preload_updates = preload.size();
  inputs.preload = Chunk(preload, static_cast<size_t>(config.bulk_batch));

  // A net-zero cycle: churned insertions of a fresh dataset followed by
  // the reversed negation of a second, differently churned insertion of
  // the same dataset. Walking a legal stream backwards with negated
  // deltas stays legal, and the two halves cancel exactly, so the bank
  // returns to its set-up state after every cycle.
  std::vector<Update> cycle =
      ChurnedVenn(config.cycle_elements, base ^ 0xC1C1E, base ^ 0xC1C1F);
  const std::vector<Update> undo =
      ChurnedVenn(config.cycle_elements, base ^ 0xC1C1E, base ^ 0xBACC);
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    cycle.push_back(Update{it->stream, it->element, -it->delta});
  }
  inputs.cycle_updates = cycle.size();
  inputs.cycle.resize(static_cast<size_t>(config.bulk_sites));
  for (int site = 0; site < config.bulk_sites; ++site) {
    std::vector<Update> mine;
    for (const Update& u : cycle) {
      if (static_cast<int>(u.stream) % config.bulk_sites == site) {
        mine.push_back(u);
      }
    }
    inputs.cycle[static_cast<size_t>(site)] =
        Chunk(mine, static_cast<size_t>(config.bulk_batch));
  }

  // Trickle batches: churned insertions of new elements, round-robin over
  // the fresh streams (batch i touches stream i mod 3 only).
  const size_t per_stream = (trickle_batches + kFreshStreams - 1) /
                            kFreshStreams;
  std::vector<std::vector<UpdateBatch>> by_stream(kFreshStreams);
  for (int s = 0; s < kFreshStreams; ++s) {
    const size_t needed =
        per_stream * static_cast<size_t>(kTrickleBatch);
    uint64_t state = Mix(base ^ (0x7B1C + static_cast<uint64_t>(s)));
    std::vector<Update> churned;
    while (churned.size() < needed) {
      std::vector<Update> inserts;
      for (size_t i = 0; i < needed / 2 + 16; ++i) {
        state = Mix(state);
        inserts.push_back(setsketch::Insert(
            static_cast<setsketch::StreamId>(s), state >> 8));
      }
      ChurnOptions churn;
      churn.seed = Mix(state);
      const std::vector<Update> more = InjectChurn(inserts, churn);
      churned.insert(churned.end(), more.begin(), more.end());
    }
    churned.resize(needed);
    // Truncation may cut a delete from its insert; only a deletion whose
    // insertion was cut would be illegal, and deletes always follow their
    // inserts, so a prefix stays legal.
    by_stream[static_cast<size_t>(s)] =
        Chunk(churned, static_cast<size_t>(kTrickleBatch));
  }
  for (size_t i = 0; i < trickle_batches; ++i) {
    inputs.trickle.push_back(std::move(
        by_stream[i % kFreshStreams][i / kFreshStreams]));
  }
  return inputs;
}

void Tracer::Record(const char* name, uint64_t id, uint64_t parent,
                    Clock::time_point start, Clock::time_point end) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, id, parent, ns(start), ns(end)});
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
