#include "server/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/check.h"
#include "util/crc32.h"
#include "util/varint.h"

namespace setsketch {

namespace {

constexpr char kSegmentMagic[4] = {'S', 'K', 'W', 'L'};
constexpr uint8_t kSegmentVersion = 2;
constexpr size_t kSegmentHeaderBytes = 5;
constexpr char kCheckpointMagic[4] = {'S', 'K', 'C', 'P'};
constexpr uint8_t kCheckpointVersion = 2;
// A WAL body holds one frame payload plus a bounded key; anything larger
// is corruption, not data.
constexpr uint32_t kMaxRecordBodyBytes = (64u << 20) + 1024;

namespace fs = std::filesystem;

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

std::string SegmentName(size_t shard, uint64_t generation) {
  return "wal-" + std::to_string(shard) + "-" + std::to_string(generation) +
         ".log";
}

/// Parses "wal-<shard>-<generation>.log"; false for other directory
/// entries (checkpoint, tmp files, strangers).
bool ParseSegmentName(const std::string& name, size_t* shard,
                      uint64_t* generation) {
  if (name.size() < 10 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  const size_t dash = name.find('-', 4);
  if (dash == std::string::npos || dash + 1 >= name.size() - 4) return false;
  const std::string shard_text = name.substr(4, dash - 4);
  const std::string gen_text = name.substr(dash + 1, name.size() - 4 - dash - 1);
  if (shard_text.empty() || gen_text.empty()) return false;
  for (const char c : shard_text + gen_text) {
    if (c < '0' || c > '9') return false;
  }
  *shard = static_cast<size_t>(std::stoull(shard_text));
  *generation = std::stoull(gen_text);
  return true;
}

bool WriteAll(int fd, std::string_view bytes, std::string* error) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = Errno("wal write");
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

bool FsyncDir(const std::string& dir, std::string* error) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    *error = Errno("open wal dir for fsync");
    return false;
  }
  const bool ok = fsync(fd) == 0;
  if (!ok) *error = Errno("fsync wal dir");
  close(fd);
  return ok;
}

std::string EncodeRecordBody(std::string_view site_id, uint64_t sequence,
                             std::string_view payload) {
  std::string body;
  body.reserve(site_id.size() + payload.size() + 16);
  AppendVarintString(&body, site_id);
  AppendVarint(&body, sequence);
  body.append(payload);
  return body;
}

bool DecodeRecordBody(const std::string& body, WalRecord* out) {
  size_t offset = 0;
  // The site-id bound mirrors the wire protocol's kMaxSiteIdBytes; WAL
  // bodies are written by us, so a longer one means corruption.
  if (!ReadVarintString(body, &offset, 256, &out->site_id)) return false;
  if (!ReadVarint(body, &offset, &out->sequence)) return false;
  out->payload.assign(body, offset, body.size() - offset);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// DedupWindow / DedupIndex

bool DedupWindow::Seen(uint64_t sequence) const {
  if (high_ == 0 || sequence > high_) return false;
  const uint64_t age = high_ - sequence;
  if (age >= 64) return true;  // Below the window: conservatively seen.
  return ((bits_ >> age) & 1u) != 0;
}

void DedupWindow::Record(uint64_t sequence) {
  if (high_ == 0 || sequence > high_) {
    const uint64_t shift = high_ == 0 ? 64 : sequence - high_;
    bits_ = shift >= 64 ? 0 : bits_ << shift;
    bits_ |= 1u;
    high_ = sequence;
    return;
  }
  const uint64_t age = high_ - sequence;
  if (age < 64) bits_ |= uint64_t{1} << age;
  // Below the window: Seen() already reports true; nothing to record.
}

void DedupWindow::Merge(uint64_t high, uint64_t bits) {
  if (high_ == 0) {
    high_ = high;
    bits_ = bits;
    return;
  }
  if (high == 0) return;
  // Align both bitmaps on the larger high-water mark (bit i tracks
  // high - i, so the older side's bits age by shifting LEFT); bits that
  // fall off the 64-entry window are covered by the below-window
  // conservatism.
  if (high > high_) {
    const uint64_t shift = high - high_;
    bits_ = (shift >= 64 ? 0 : bits_ << shift) | bits;
    high_ = high;
  } else {
    const uint64_t shift = high_ - high;
    bits_ |= shift >= 64 ? 0 : bits << shift;
  }
}

bool DedupWindow::Covers(const DedupWindow& want) const {
  if (want.high_ == 0) return true;
  if (high_ < want.high_) return false;
  for (uint64_t age = 0; age < 64 && age < want.high_; ++age) {
    if (((want.bits_ >> age) & 1u) != 0 && !Seen(want.high_ - age)) {
      return false;
    }
  }
  return true;
}

bool DedupIndex::Seen(std::string_view site_id, uint64_t sequence) const {
  const auto it = windows_.find(site_id);
  return it != windows_.end() && it->second.Seen(sequence);
}

void DedupIndex::Record(std::string_view site_id, uint64_t sequence) {
  auto it = windows_.find(site_id);
  if (it == windows_.end()) {
    it = windows_.emplace(std::string(site_id), DedupWindow{}).first;
  }
  it->second.Record(sequence);
}

uint64_t DedupIndex::OccupiedBits() const {
  uint64_t total = 0;
  for (const auto& [site, window] : windows_) {
    total += static_cast<uint64_t>(std::popcount(window.bits()));
  }
  return total;
}

void DedupIndex::EncodeTo(std::string* out) const {
  AppendVarint(out, windows_.size());
  for (const auto& [site, window] : windows_) {
    AppendVarintString(out, site);
    AppendVarint(out, window.high());
    AppendVarint(out, window.bits());
  }
}

void DedupIndex::ForEachWindow(
    const std::function<void(std::string_view site_id, uint64_t high,
                             uint64_t bits)>& fn) const {
  for (const auto& [site, window] : windows_) {
    fn(site, window.high(), window.bits());
  }
}

bool DedupIndex::Covers(const DedupIndex& want,
                        std::string* uncovered_site) const {
  for (const auto& [site, window] : want.windows_) {
    const auto it = windows_.find(site);
    if (!(it == windows_.end() ? DedupWindow{} : it->second).Covers(window)) {
      *uncovered_site = site;
      return false;
    }
  }
  return true;
}

void DedupIndex::MergeWindow(std::string_view site_id, uint64_t high,
                             uint64_t bits) {
  auto it = windows_.find(site_id);
  if (it == windows_.end()) {
    it = windows_.emplace(std::string(site_id), DedupWindow{}).first;
  }
  it->second.Merge(high, bits);
}

bool DedupIndex::DecodeFrom(const std::string& data, size_t* offset) {
  windows_.clear();
  uint64_t num_sites = 0;
  if (!ReadVarint(data, offset, &num_sites)) return false;
  if (num_sites > data.size() - *offset) return false;
  for (uint64_t i = 0; i < num_sites; ++i) {
    std::string site;
    uint64_t high = 0, bits = 0;
    if (!ReadVarintString(data, offset, 256, &site) ||
        !ReadVarint(data, offset, &high) ||
        !ReadVarint(data, offset, &bits)) {
      return false;
    }
    windows_[std::move(site)].Restore(high, bits);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Wal

struct Wal::Shard {
  Mutex mutex;
  int fd SETSKETCH_GUARDED_BY(mutex) = -1;
};

Wal::Wal(const Options& options, uint64_t generation)
    : options_(options), generation_(generation) {
  SETSKETCH_CHECK(options_.shards > 0) << "wal needs at least one shard";
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Wal::~Wal() { CloseShardFiles(); }

bool Wal::OpenShardFiles(std::string* error) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string path =
        (fs::path(options_.dir) / SegmentName(i, generation_)).string();
    const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) {
      *error = Errno("create wal segment " + path);
      return false;
    }
    std::string header(kSegmentMagic, sizeof(kSegmentMagic));
    header.push_back(static_cast<char>(kSegmentVersion));
    if (!WriteAll(fd, header, error)) {
      close(fd);
      return false;
    }
    if (options_.fsync && fsync(fd) != 0) {
      *error = Errno("fsync wal segment " + path);
      close(fd);
      return false;
    }
    shards_[i]->fd = fd;
  }
  // Make the new segment names themselves durable.
  if (options_.fsync) return FsyncDir(options_.dir, error);
  return true;
}

void Wal::CloseShardFiles() {
  for (const auto& shard : shards_) {
    if (shard->fd >= 0) {
      close(shard->fd);
      shard->fd = -1;
    }
  }
}

std::unique_ptr<Wal> Wal::Open(const Options& options,
                               uint64_t checkpoint_generation,
                               std::string* error) {
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    *error = "create wal dir " + options.dir + ": " + ec.message();
    return nullptr;
  }
  uint64_t max_generation = checkpoint_generation;
  for (const auto& entry : fs::directory_iterator(options.dir, ec)) {
    size_t shard = 0;
    uint64_t generation = 0;
    if (ParseSegmentName(entry.path().filename().string(), &shard,
                         &generation)) {
      max_generation = std::max(max_generation, generation);
    }
  }
  if (ec) {
    *error = "scan wal dir " + options.dir + ": " + ec.message();
    return nullptr;
  }
  // A strictly fresh generation: never append to segments a crashed
  // predecessor may have torn, never collide with compacted history.
  std::unique_ptr<Wal> wal(new Wal(options, max_generation + 1));
  if (!wal->OpenShardFiles(error)) return nullptr;
  return wal;
}

bool Wal::Append(const WalRecord& record, std::string* error) {
  return Append(record.site_id, record.sequence, record.payload, error);
}

bool Wal::Append(std::string_view site_id, uint64_t sequence,
                 std::string_view payload, std::string* error) {
  const std::string body = EncodeRecordBody(site_id, sequence, payload);
  SETSKETCH_CHECK(body.size() <= kMaxRecordBodyBytes)
      << "wal record body of " << body.size() << " bytes";
  std::string framed;
  framed.reserve(body.size() + 8);
  const uint32_t body_length = static_cast<uint32_t>(body.size());
  const uint32_t crc = Crc32c(body);
  framed.append(reinterpret_cast<const char*>(&body_length),
                sizeof(body_length));
  framed.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  framed.append(body);

  Shard* shard = nullptr;
  {
    MutexLock lock(&mutex_);
    shard = shards_[next_shard_ % shards_.size()].get();
    ++next_shard_;
  }
  {
    MutexLock lock(&shard->mutex);
    if (shard->fd < 0) {
      *error = "wal shard closed";
      return false;
    }
    if (!WriteAll(shard->fd, framed, error)) return false;
    if (options_.fsync && fsync(shard->fd) != 0) {
      *error = Errno("fsync wal segment");
      return false;
    }
  }
  MutexLock lock(&mutex_);
  ++records_appended_;
  bytes_appended_ += framed.size();
  return true;
}

// Out of the analysis: Rotate holds mutex_ plus EVERY shard mutex — a
// lock set of dynamic cardinality (one per configured shard) that the
// thread-safety analysis cannot express. The locks are real; only the
// proof is manual.
bool Wal::Rotate(uint64_t* previous_generation,
                 std::string* error) SETSKETCH_NO_THREAD_SAFETY_ANALYSIS {
  // Exclusive over all shards: appends in flight complete first.
  MutexLock lock(&mutex_);
  std::vector<std::unique_lock<Mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    shard_locks.emplace_back(shard->mutex);
  }
  const uint64_t old_generation = generation_;
  CloseShardFiles();
  generation_ = old_generation + 1;
  if (!OpenShardFiles(error)) {
    // Reopen the old generation's segments for appending so the server
    // can keep running (O_APPEND: the files already exist).
    generation_ = old_generation;
    for (size_t i = 0; i < shards_.size(); ++i) {
      const std::string path =
          (fs::path(options_.dir) / SegmentName(i, generation_)).string();
      shards_[i]->fd = open(path.c_str(), O_WRONLY | O_APPEND);
    }
    return false;
  }
  *previous_generation = old_generation;
  return true;
}

void Wal::Compact(uint64_t covered_generation) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    size_t shard = 0;
    uint64_t generation = 0;
    if (ParseSegmentName(entry.path().filename().string(), &shard,
                         &generation) &&
        generation <= covered_generation) {
      fs::remove(entry.path(), ec);
    }
  }
}

uint64_t Wal::generation() const {
  MutexLock lock(&mutex_);
  return generation_;
}

uint64_t Wal::records_appended() const {
  MutexLock lock(&mutex_);
  return records_appended_;
}

uint64_t Wal::bytes_appended() const {
  MutexLock lock(&mutex_);
  return bytes_appended_;
}

bool Wal::Replay(const std::string& dir, uint64_t checkpoint_generation,
                 const std::function<void(const WalRecord&)>& apply,
                 WalReplayStats* stats, std::string* error) {
  *stats = WalReplayStats{};
  std::error_code ec;
  if (!fs::exists(dir, ec)) return true;  // Nothing to replay.

  std::vector<std::pair<std::pair<uint64_t, size_t>, fs::path>> segments;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    size_t shard = 0;
    uint64_t generation = 0;
    if (ParseSegmentName(entry.path().filename().string(), &shard,
                         &generation) &&
        generation > checkpoint_generation) {
      segments.push_back({{generation, shard}, entry.path()});
    }
  }
  if (ec) {
    *error = "scan wal dir " + dir + ": " + ec.message();
    return false;
  }
  std::sort(segments.begin(), segments.end());

  for (const auto& [key, path] : segments) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      *error = "open wal segment " + path.string();
      return false;
    }
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    ++stats->segments_read;
    if (contents.size() < kSegmentHeaderBytes ||
        contents.compare(0, 4, kSegmentMagic, 4) != 0) {
      // Not even a valid header: a crash during segment creation. Treat
      // as an empty (torn) segment rather than an environmental error.
      ++stats->torn_segments;
      continue;
    }
    const uint8_t version = static_cast<uint8_t>(contents[4]);
    if (version != kSegmentVersion) {
      // A complete header of another layout holds acknowledged batches
      // this build cannot read: refuse rather than silently drop them.
      *error = "wal segment " + path.string() + ": unsupported version " +
               std::to_string(version);
      return false;
    }
    size_t offset = kSegmentHeaderBytes;
    for (;;) {
      if (contents.size() - offset < 8) {
        if (contents.size() != offset) ++stats->torn_segments;
        break;  // Clean end or torn length/CRC prefix.
      }
      uint32_t body_length = 0, crc = 0;
      std::memcpy(&body_length, contents.data() + offset, 4);
      std::memcpy(&crc, contents.data() + offset + 4, 4);
      if (body_length > kMaxRecordBodyBytes ||
          contents.size() - offset - 8 < body_length) {
        ++stats->torn_segments;  // Torn body: stop at the last valid record.
        break;
      }
      const std::string_view body(contents.data() + offset + 8, body_length);
      if (Crc32c(body) != crc) {
        ++stats->torn_segments;  // Corrupt record poisons the segment tail.
        break;
      }
      WalRecord record;
      if (!DecodeRecordBody(std::string(body), &record)) {
        ++stats->torn_segments;
        break;
      }
      apply(record);
      ++stats->records_replayed;
      stats->bytes_replayed += 8 + body_length;
      offset += 8 + body_length;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Checkpoint

bool WriteCheckpoint(const std::string& dir, const Checkpoint& checkpoint,
                     bool do_fsync, std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    *error = "create wal dir " + dir + ": " + ec.message();
    return false;
  }
  std::string body;
  AppendVarint(&body, checkpoint.covered_generation);
  checkpoint.dedup.EncodeTo(&body);
  AppendVarint(&body, checkpoint.engine_snapshot.size());
  body.append(checkpoint.engine_snapshot);

  std::string file(kCheckpointMagic, sizeof(kCheckpointMagic));
  file.push_back(static_cast<char>(kCheckpointVersion));
  const uint32_t body_length = static_cast<uint32_t>(body.size());
  const uint32_t crc = Crc32c(body);
  file.append(reinterpret_cast<const char*>(&body_length),
              sizeof(body_length));
  file.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  file.append(body);

  const std::string tmp_path = (fs::path(dir) / "checkpoint.tmp").string();
  const std::string final_path = (fs::path(dir) / "checkpoint").string();
  const int fd = open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    *error = Errno("create " + tmp_path);
    return false;
  }
  if (!WriteAll(fd, file, error)) {
    close(fd);
    return false;
  }
  if (do_fsync && fsync(fd) != 0) {
    *error = Errno("fsync " + tmp_path);
    close(fd);
    return false;
  }
  close(fd);
  if (rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    *error = Errno("rename " + tmp_path);
    return false;
  }
  if (do_fsync) return FsyncDir(dir, error);
  return true;
}

bool ReadCheckpoint(const std::string& dir, Checkpoint* out,
                    std::string* error) {
  error->clear();
  const fs::path path = fs::path(dir) / "checkpoint";
  std::error_code ec;
  if (!fs::exists(path, ec)) return false;  // No checkpoint: empty error.
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "open " + path.string();
    return false;
  }
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (contents.size() < 13 ||
      contents.compare(0, 4, kCheckpointMagic, 4) != 0) {
    *error = "checkpoint " + path.string() + ": bad magic";
    return false;
  }
  if (static_cast<uint8_t>(contents[4]) != kCheckpointVersion) {
    *error = "checkpoint " + path.string() + ": unsupported version " +
             std::to_string(static_cast<uint8_t>(contents[4]));
    return false;
  }
  uint32_t body_length = 0, crc = 0;
  std::memcpy(&body_length, contents.data() + 5, 4);
  std::memcpy(&crc, contents.data() + 9, 4);
  if (contents.size() - 13 != body_length) {
    *error = "checkpoint " + path.string() + ": truncated body";
    return false;
  }
  const std::string body = contents.substr(13);
  if (Crc32c(body) != crc) {
    *error = "checkpoint " + path.string() + ": CRC mismatch";
    return false;
  }
  size_t offset = 0;
  uint64_t snapshot_size = 0;
  if (!ReadVarint(body, &offset, &out->covered_generation) ||
      !out->dedup.DecodeFrom(body, &offset) ||
      !ReadVarint(body, &offset, &snapshot_size) ||
      snapshot_size != body.size() - offset) {
    *error = "checkpoint " + path.string() + ": malformed body";
    return false;
  }
  out->engine_snapshot = body.substr(offset);
  return true;
}

}  // namespace setsketch
