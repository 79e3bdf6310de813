#include "core/sketch_bank.h"

#include <atomic>

#include "util/check.h"


namespace setsketch {

namespace {

// Bank ids are handed out from one process-wide counter so no two
// SketchBank instances (live or not) ever share one.
uint64_t NextBankId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

SketchBank::SketchBank(SketchFamily family, uint32_t backend_size)
    : family_(std::move(family)), bank_id_(NextBankId()) {
  backend_options_.size = backend_size;
  backend_options_.seed = family_.master_seed();
}

bool SketchBank::AddStream(const std::string& name) {
  if (HasStream(name)) return false;
  std::vector<TwoLevelHashSketch> copies;
  copies.reserve(static_cast<size_t>(family_.size()));
  for (int i = 0; i < family_.size(); ++i) {
    copies.emplace_back(family_.seed(i));
  }
  streams_.emplace(name, std::move(copies));
  epochs_[name] = 1;
  return true;
}

bool SketchBank::AddStreamWithBackend(const std::string& name,
                                      SketchBackendId backend,
                                      const BackendOptions& options) {
  if (backend == SketchBackendId::kTwoLevelHash) return AddStream(name);
  if (HasStream(name)) return false;
  std::unique_ptr<DistinctSketch> sketch =
      CreateDistinctSketch(backend, options);
  if (sketch == nullptr) return false;
  backend_streams_.emplace(name, std::move(sketch));
  epochs_[name] = 1;
  return true;
}

SketchBackendId SketchBank::StreamBackend(const std::string& name) const {
  auto it = backend_streams_.find(name);
  if (it == backend_streams_.end()) return SketchBackendId::kTwoLevelHash;
  return it->second->backend();
}

const DistinctSketch* SketchBank::BackendSketch(
    const std::string& name) const {
  auto it = backend_streams_.find(name);
  return it == backend_streams_.end() ? nullptr : it->second.get();
}

DistinctSketch* SketchBank::MutableBackendSketch(const std::string& name) {
  auto it = backend_streams_.find(name);
  if (it == backend_streams_.end()) return nullptr;
  // Same conservative contract as MutableSketches: every hand-out may
  // write, so bump the epoch up front.
  ++epochs_[name];
  return it->second.get();
}

size_t SketchBank::BackendStreamCount(SketchBackendId backend) const {
  if (backend == SketchBackendId::kTwoLevelHash) return streams_.size();
  size_t count = 0;
  for (const auto& [name, sketch] : backend_streams_) {
    if (sketch->backend() == backend) ++count;
  }
  return count;
}

std::vector<std::string> SketchBank::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(streams_.size() + backend_streams_.size());
  for (const auto& [name, sketches] : streams_) names.push_back(name);
  for (const auto& [name, sketch] : backend_streams_) names.push_back(name);
  return names;
}

bool SketchBank::Apply(const std::string& name, uint64_t element,
                       int64_t delta) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    auto bit = backend_streams_.find(name);
    if (bit == backend_streams_.end()) return false;
    ++epochs_[name];
    bit->second->Update(element, delta);
    return true;
  }
  ++epochs_[name];
  for (TwoLevelHashSketch& sketch : it->second) {
    sketch.Update(element, delta);
  }
  return true;
}

bool SketchBank::ApplyBatch(const std::string& name,
                            std::span<const ElementDelta> items) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    auto bit = backend_streams_.find(name);
    if (bit == backend_streams_.end()) return false;
    ++epochs_[name];
    bit->second->UpdateBatch(items);
    return true;
  }
  ++epochs_[name];
  for (TwoLevelHashSketch& sketch : it->second) {
    sketch.UpdateBatch(items);
  }
  return true;
}

std::vector<StreamBatch> SketchBank::GroupUpdates(
    const std::vector<std::string>& names_by_id,
    const std::vector<Update>& updates, size_t* applied) {
  // Resolve stream columns once; per-update hash lookups would dominate.
  std::vector<std::vector<TwoLevelHashSketch>*> columns;
  std::vector<DistinctSketch*> backends;
  columns.reserve(names_by_id.size());
  backends.reserve(names_by_id.size());
  for (const std::string& name : names_by_id) {
    columns.push_back(MutableSketches(name));
    backends.push_back(columns.back() == nullptr ? MutableBackendSketch(name)
                                                 : nullptr);
  }
  std::vector<int> group_of(names_by_id.size(), -1);
  std::vector<StreamBatch> groups;
  size_t count = 0;
  for (const Update& u : updates) {
    if (u.stream >= columns.size() ||
        (columns[u.stream] == nullptr && backends[u.stream] == nullptr)) {
      continue;
    }
    int& g = group_of[u.stream];
    if (g < 0) {
      g = static_cast<int>(groups.size());
      groups.push_back(StreamBatch{columns[u.stream], backends[u.stream], {}});
    }
    groups[static_cast<size_t>(g)].items.push_back(
        ElementDelta{u.element, u.delta});
    ++count;
  }
  if (applied != nullptr) *applied += count;
  return groups;
}

size_t SketchBank::ApplyBatch(const std::vector<std::string>& names_by_id,
                              const std::vector<Update>& updates) {
  size_t applied = 0;
  for (const StreamBatch& group : GroupUpdates(names_by_id, updates,
                                               &applied)) {
    if (group.column == nullptr) {
      group.backend_sketch->UpdateBatch(group.items);
      continue;
    }
    for (TwoLevelHashSketch& sketch : *group.column) {
      sketch.UpdateBatch(group.items);
    }
  }
  return applied;
}

const std::vector<TwoLevelHashSketch>& SketchBank::Sketches(
    const std::string& name) const {
  auto it = streams_.find(name);
  SETSKETCH_CHECK(it != streams_.end())
      << "Sketches() for unregistered stream '" << name << "'";
  return it->second;
}

std::vector<SketchGroup> SketchBank::Groups(
    const std::vector<std::string>& names) const {
  std::vector<SketchGroup> groups;
  std::vector<const std::vector<TwoLevelHashSketch>*> columns;
  columns.reserve(names.size());
  for (const std::string& name : names) {
    auto it = streams_.find(name);
    if (it == streams_.end()) return {};
    columns.push_back(&it->second);
  }
  groups.resize(static_cast<size_t>(family_.size()));
  for (int i = 0; i < family_.size(); ++i) {
    SketchGroup& group = groups[static_cast<size_t>(i)];
    group.reserve(columns.size());
    for (const auto* column : columns) {
      group.push_back(&(*column)[static_cast<size_t>(i)]);
    }
  }
  return groups;
}

std::vector<TwoLevelHashSketch>* SketchBank::MutableSketches(
    const std::string& name) {
  auto it = streams_.find(name);
  if (it == streams_.end()) return nullptr;
  // The caller may write through this pointer; conservatively treat every
  // hand-out as a mutation so cached merges can never go stale.
  ++epochs_[name];
  return &it->second;
}

StreamSummary SketchBank::Summary(const std::string& name) const {
  StreamSummary summary;
  if (const DistinctSketch* sketch = BackendSketch(name)) {
    summary.backend = static_cast<uint8_t>(sketch->backend());
    summary.backend_sketch = sketch->Clone();
  } else {
    summary.sketches = Sketches(name);
  }
  return summary;
}

bool SketchBank::CanInstallSummary(const std::string& name,
                                   const StreamSummary& summary,
                                   std::string* error) const {
  if (HasStream(name) &&
      StreamBackend(name) != static_cast<SketchBackendId>(summary.backend)) {
    if (error != nullptr) *error = "already uses a different sketch backend";
    return false;
  }
  return true;
}

bool SketchBank::InstallSummary(const std::string& name,
                                StreamSummary summary, std::string* error) {
  if (!CanInstallSummary(name, summary, error)) return false;
  if (summary.backend != 0) {
    backend_streams_[name] = summary.backend_sketch->Clone();
  } else {
    streams_[name] = std::move(summary.sketches);
  }
  ++epochs_[name];
  return true;
}

uint64_t SketchBank::StreamEpoch(const std::string& name) const {
  auto it = epochs_.find(name);
  return it == epochs_.end() ? 0 : it->second;
}

size_t SketchBank::CounterBytes() const {
  size_t total = 0;
  for (const auto& [name, sketches] : streams_) {
    for (const TwoLevelHashSketch& sketch : sketches) {
      total += sketch.CounterBytes();
    }
  }
  for (const auto& [name, sketch] : backend_streams_) {
    total += sketch->MemoryBytes();
  }
  return total;
}

}  // namespace setsketch
