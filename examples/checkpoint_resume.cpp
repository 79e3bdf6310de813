// Checkpoint / resume, query diagnostics, and confidence intervals.
//
// A long-running monitoring engine periodically snapshots its synopsis
// state (a few hundred KiB, thanks to the compact encoding), "crashes",
// and resumes from the snapshot in a fresh process image without touching
// the stream history. Also shows ExplainQuery (canonical plan, provable
// emptiness, witness geometry) and the ~95% intervals every answer
// carries.
//
//   $ ./checkpoint_resume

#include <cstdint>
#include <iostream>
#include <memory>

#include "hash/prng.h"
#include "query/stream_engine.h"
#include "util/table_printer.h"

using namespace setsketch;

namespace {

void IngestEpoch(StreamEngine& engine, uint64_t seed, int n) {
  Xoshiro256StarStar rng(seed);
  for (int i = 0; i < n; ++i) {
    const uint64_t user = rng.Next() >> 16;
    if (rng.NextDouble() < 0.8) engine.Ingest("mobile", user, 1);
    if (rng.NextDouble() < 0.5) engine.Ingest("desktop", user, 1);
    // 10% of mobile sessions end within the epoch.
    if (rng.NextDouble() < 0.1) engine.Ingest("mobile", user, -1);
  }
}

void PrintAnswers(const StreamEngine& engine, const std::string& label) {
  TablePrinter table({"query", "estimate", "~95% interval"});
  for (const StreamEngine::Answer& answer : engine.AnswerAll()) {
    table.AddRow(std::vector<std::string>{
        answer.expression, FormatDouble(answer.estimate, 0),
        "[" + FormatDouble(answer.interval.lo, 0) + ", " +
            FormatDouble(answer.interval.hi, 0) + "]"});
  }
  std::cout << label << ":\n";
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  StreamEngine::Options options;
  options.copies = 256;
  options.seed = 60601;
  options.witness.pool_all_levels = true;
  options.witness.mle_union = true;

  auto engine = std::make_unique<StreamEngine>(options);
  engine->RegisterQuery("mobile | desktop");
  engine->RegisterQuery("mobile & desktop");
  engine->RegisterQuery("mobile - desktop");
  // A malformed business rule someone registered by accident:
  engine->RegisterQuery("(mobile & desktop) - mobile");

  IngestEpoch(*engine, 1, 30000);
  PrintAnswers(*engine, "after epoch 1");

  // Diagnose the queries: the fourth is provably empty.
  for (int q = 0; q < engine->num_queries(); ++q) {
    const auto explanation = engine->ExplainQuery(q);
    if (explanation.provably_empty) {
      std::cout << "diagnostics: query " << q << " ("
                << explanation.expression
                << ") is provably empty — it answers 0 without any "
                   "witness sampling\n\n";
    }
  }

  // Checkpoint, then simulate a crash: destroy the engine entirely.
  const std::string snapshot = engine->SaveSnapshot();
  std::cout << "checkpoint: " << snapshot.size() / 1024
            << " KiB snapshot (compact counter encoding), "
            << engine->updates_processed() << " updates so far\n\n";
  engine.reset();

  // Resume in a "new process" and keep going — the stream history is
  // gone, only the synopsis state survives, which is the whole point.
  std::unique_ptr<StreamEngine> resumed =
      StreamEngine::LoadSnapshot(snapshot);
  if (!resumed) {
    std::cerr << "failed to restore snapshot\n";
    return 1;
  }
  IngestEpoch(*resumed, 2, 30000);
  PrintAnswers(*resumed, "after crash + resume + epoch 2");

  std::cout << "total updates across both lives: "
            << resumed->updates_processed() << "\n";
  return 0;
}
