#include "tools/bank_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "query/stream_engine.h"

namespace setsketch {

std::string EncodeBank(const SketchBank& bank) {
  // Stable stream order makes encodings reproducible.
  std::vector<std::string> names = bank.StreamNames();
  std::sort(names.begin(), names.end());
  return EncodeEngineSnapshot(bank, WitnessOptions{},
                              /*updates_processed=*/0, names,
                              /*query_texts=*/{});
}

std::unique_ptr<SketchBank> DecodeBank(const std::string& bytes,
                                       std::string* error) {
  std::string why;
  EngineSnapshotData data;
  if (!DecodeEngineSnapshot(bytes, kMaxDecodedCounterBytes, &data, &why)) {
    if (error != nullptr) *error = "not a sketch-bank file: " + why;
    return nullptr;
  }
  auto bank = std::make_unique<SketchBank>(data.config);
  for (auto& [name, summary] : data.streams) {
    if (!bank->InstallSummary(name, std::move(summary), &why)) {
      if (error != nullptr) *error = "stream '" + name + "' " + why;
      return nullptr;
    }
  }
  return bank;
}

bool WriteFileBytes(const std::string& path, const std::string& bytes,
                    std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) *error = "cannot open for writing: " + path;
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    if (error != nullptr) *error = "write failed: " + path;
    return false;
  }
  return true;
}

bool ReadFileBytes(const std::string& path, std::string* bytes,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open: " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *bytes = buffer.str();
  return true;
}

}  // namespace setsketch
