#include "tools/commands.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "core/confidence.h"
#include "core/set_expression_estimator.h"
#include "core/set_union_estimator.h"
#include "distributed/summary_codec.h"
#include "expr/parser.h"
#include "query/plan_cache.h"
#include "stream/stream_io.h"
#include "tools/bank_io.h"
#include "util/table_printer.h"

namespace setsketch {

namespace {

CommandResult Fail(const std::string& message) {
  CommandResult result;
  result.error = message;
  return result;
}

std::unique_ptr<SketchBank> LoadBank(const std::string& path,
                                     std::string* error) {
  std::string bytes;
  if (!ReadFileBytes(path, &bytes, error)) return nullptr;
  return DecodeBank(bytes, error);
}

/// Empty when `streams` streams of `copies` copies shaped by `params` fit
/// a bank file (DecodeBank reads it back); otherwise why they do not.
std::string OverBankFileBudget(size_t streams, const SketchParams& params,
                               int copies) {
  const uint64_t stream_bytes =
      static_cast<uint64_t>(copies) * static_cast<uint64_t>(params.levels) *
      2 * static_cast<uint64_t>(params.num_second_level) * sizeof(int64_t);
  if (streams <= kMaxDecodedCounterBytes / stream_bytes) return {};
  return std::to_string(streams) + " streams of " +
         std::to_string(stream_bytes >> 10) +
         " KiB of sketch counters each exceed the " +
         std::to_string(kMaxDecodedCounterBytes >> 20) +
         " MiB a bank file holds";
}

std::string DescribeParams(const SketchBank& bank) {
  const SketchParams& p = bank.family().params();
  std::ostringstream out;
  out << "copies r = " << bank.num_copies() << ", levels = " << p.levels
      << ", second-level s = " << p.num_second_level
      << ", first-level = "
      << (p.first_level_kind == FirstLevelKind::kMix64
              ? std::string("mix64")
              : std::to_string(p.independence) + "-wise poly")
      << ", master seed = " << bank.family().master_seed();
  return out.str();
}

}  // namespace

CommandResult RunBuild(const BuildSpec& spec) {
  if (!spec.params.Valid()) return Fail("invalid sketch parameters");
  if (spec.copies < 1) return Fail("--copies must be >= 1");
  std::ifstream in(spec.updates_path);
  if (!in) return Fail("cannot open updates file: " + spec.updates_path);
  const ParsedUpdates parsed = ReadUpdates(in);
  if (!parsed.ok()) {
    return Fail("malformed updates (" +
                std::to_string(parsed.errors.size()) + " bad lines; first: " +
                parsed.errors.front() + ")");
  }
  if (parsed.updates.empty()) return Fail("no updates in input");

  // Name the streams: explicit names, else "S<id>".
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
    // Built via += : `"S" + std::to_string(i)` trips GCC 12's -Wrestrict
    // false positive (PR 105329) under -O2 -Werror.
    std::string name = "S";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }

  // Refused before anything is built: sketchtool writes only banks it
  // can read back.
  const std::string over =
      OverBankFileBudget(names.size(), spec.params, spec.copies);
  if (!over.empty()) return Fail(over);

  SketchBank bank(SketchFamily(spec.params, spec.copies, spec.seed));
  for (const std::string& name : names) bank.AddStream(name);
  for (const Update& u : parsed.updates) {
    bank.Apply(names[u.stream], u.element, u.delta);
  }

  std::string error;
  if (!WriteFileBytes(spec.output_path, EncodeBank(bank), &error)) {
    return Fail(error);
  }
  CommandResult result;
  result.ok = true;
  std::ostringstream out;
  out << "sketched " << parsed.updates.size() << " updates over "
      << names.size() << " streams into " << spec.output_path << "\n"
      << DescribeParams(bank) << "\n";
  result.output = out.str();
  return result;
}

CommandResult RunInfo(const std::string& bank_path) {
  std::string error;
  const std::unique_ptr<SketchBank> bank = LoadBank(bank_path, &error);
  if (!bank) return Fail(error);

  std::ostringstream out;
  out << bank_path << ": " << DescribeParams(*bank) << "\n"
      << "synopsis memory: " << bank->CounterBytes() / 1024 << " KiB\n";
  std::vector<std::string> names = bank->StreamNames();
  std::sort(names.begin(), names.end());
  TablePrinter table({"stream", "~distinct", "95% interval"});
  for (const std::string& name : names) {
    const UnionEstimate estimate =
        EstimateSetUnion(bank->Groups({name}), 0.5);
    const Interval interval = UnionInterval(estimate);
    // Built via += : `"[" + FormatDouble(...)` trips GCC 12's -Wrestrict
    // false positive (PR 105329) under -O2 -Werror.
    std::string interval_text = "[";
    interval_text += FormatDouble(interval.lo, 0);
    interval_text += ", ";
    interval_text += FormatDouble(interval.hi, 0);
    interval_text += "]";
    table.AddRow(std::vector<std::string>{
        name,
        estimate.ok ? FormatDouble(estimate.estimate, 0) : "(failed)",
        std::move(interval_text)});
  }
  std::ostringstream table_text;
  table.Print(table_text);
  out << table_text.str();

  CommandResult result;
  result.ok = true;
  result.output = out.str();
  return result;
}

CommandResult RunMerge(const std::vector<std::string>& input_paths,
                       const std::string& output_path) {
  if (input_paths.size() < 2) {
    return Fail("merge needs at least two input banks");
  }
  // Merging adds 2-level hash counters copy by copy; a bank holding an
  // alternative-backend stream is refused whole.
  std::string error;
  const auto load = [&error](const std::string& path) {
    std::unique_ptr<SketchBank> bank = LoadBank(path, &error);
    if (bank == nullptr) {
      error = path + ": " + error;
      return bank;
    }
    for (const std::string& name : bank->StreamNames()) {
      const SketchBackendId backend = bank->StreamBackend(name);
      if (backend != SketchBackendId::kTwoLevelHash) {
        error = path + ": stream '" + name + "' is a " +
                SketchBackendName(backend) +
                " synopsis; merge combines 2-level hash banks only";
        return std::unique_ptr<SketchBank>();
      }
    }
    return bank;
  };
  std::unique_ptr<SketchBank> merged = load(input_paths[0]);
  if (!merged) return Fail(error);

  for (size_t i = 1; i < input_paths.size(); ++i) {
    const std::unique_ptr<SketchBank> next = load(input_paths[i]);
    if (!next) return Fail(error);
    if (!(next->family().params() == merged->family().params()) ||
        next->num_copies() != merged->num_copies() ||
        next->family().master_seed() != merged->family().master_seed()) {
      return Fail(input_paths[i] +
                  ": configuration/master seed differs from " +
                  input_paths[0] + " (sketches are not combinable)");
    }
    for (const std::string& name : next->StreamNames()) {
      if (!merged->HasStream(name)) {
        merged->AddStream(name);
      }
      std::vector<TwoLevelHashSketch>* into =
          merged->MutableSketches(name);
      const std::vector<TwoLevelHashSketch>& from = next->Sketches(name);
      for (size_t c = 0; c < from.size(); ++c) {
        if (!(*into)[c].Merge(from[c])) {
          return Fail("internal error: merge rejected for stream " + name);
        }
      }
    }
  }
  const std::string over =
      OverBankFileBudget(merged->StreamNames().size(),
                         merged->family().params(), merged->num_copies());
  if (!over.empty()) return Fail(over);
  if (!WriteFileBytes(output_path, EncodeBank(*merged), &error)) {
    return Fail(error);
  }
  CommandResult result;
  result.ok = true;
  result.output = "merged " + std::to_string(input_paths.size()) +
                  " banks into " + output_path + " (" +
                  std::to_string(merged->StreamNames().size()) +
                  " streams)\n";
  return result;
}

CommandResult RunEstimate(const std::string& bank_path,
                          const std::string& expression_text,
                          bool pool_all_levels) {
  std::string error;
  const std::unique_ptr<SketchBank> bank = LoadBank(bank_path, &error);
  if (!bank) return Fail(error);
  const ParseResult parsed = ParseExpression(expression_text);
  if (!parsed.ok()) return Fail(parsed.error);
  for (const std::string& name : parsed.expression->StreamNames()) {
    if (!bank->HasStream(name)) {
      return Fail("bank has no stream named '" + name + "'");
    }
  }
  // One-shot queries still run the planner path (canonicalization +
  // kernel), so the CLI answers match the engine/server bit for bit.
  PlanCache::Options cache_options;
  cache_options.witness.pool_all_levels = pool_all_levels;
  PlanCache planner(cache_options);
  const PlanCache::Result planned = planner.Query(*parsed.expression, *bank);
  if (!planned.ok) {
    return Fail("estimation failed (no valid witness observations; "
                "increase --copies when building)");
  }
  const ExpressionEstimate& estimate = planned.detail;
  const Interval interval = WitnessInterval(estimate.expression);
  std::ostringstream out;
  out << "|" << parsed.expression->ToString()
      << "| ~= " << FormatDouble(estimate.expression.estimate, 0) << "\n"
      << "95% interval (witness stage): ["
      << FormatDouble(interval.lo, 0) << ", "
      << FormatDouble(interval.hi, 0) << "]\n"
      << "union estimate: "
      << FormatDouble(estimate.union_part.estimate, 0) << ", witnesses "
      << estimate.expression.witnesses << "/"
      << estimate.expression.valid_observations << " valid observations\n";
  CommandResult result;
  result.ok = true;
  result.output = out.str();
  return result;
}

}  // namespace setsketch
