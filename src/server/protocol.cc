#include "server/protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>

#include "distributed/summary_codec.h"
#include "util/check.h"
#include "util/varint.h"
#include "util/varint_bulk.h"

namespace setsketch {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint32_t ReadU32At(const std::string& data, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, data.data() + offset, sizeof(v));
  return v;
}

void AppendF64(std::string* out, double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  out->append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

bool ReadF64(const std::string& data, size_t* offset, double* v) {
  if (data.size() - *offset < sizeof(uint64_t)) return false;
  uint64_t bits = 0;
  std::memcpy(&bits, data.data() + *offset, sizeof(bits));
  *offset += sizeof(bits);
  *v = std::bit_cast<double>(bits);
  return true;
}

}  // namespace

const char* OpcodeName(Opcode opcode) {
  switch (opcode) {
    case Opcode::kPing: return "PING";
    case Opcode::kPushUpdates: return "PUSH_UPDATES";
    case Opcode::kPushSummary: return "PUSH_SUMMARY";
    case Opcode::kQuery: return "QUERY";
    case Opcode::kStats: return "STATS";
    case Opcode::kShutdown: return "SHUTDOWN";
    case Opcode::kExplain: return "EXPLAIN";
    case Opcode::kPullSummary: return "PULL_SUMMARY";
    case Opcode::kAddShard: return "ADD_SHARD";
    case Opcode::kDrainShard: return "DRAIN_SHARD";
    case Opcode::kPullRepair: return "PULL_REPAIR";
    case Opcode::kPushRepair: return "PUSH_REPAIR";
    case Opcode::kPong: return "PONG";
    case Opcode::kAck: return "ACK";
    case Opcode::kRetryLater: return "RETRY_LATER";
    case Opcode::kQueryResult: return "QUERY_RESULT";
    case Opcode::kStatsResult: return "STATS_RESULT";
    case Opcode::kExplainResult: return "EXPLAIN_RESULT";
    case Opcode::kSummaryResult: return "SUMMARY_RESULT";
    case Opcode::kRepairState: return "REPAIR_STATE";
    case Opcode::kError: return "ERROR";
  }
  return "?";
}

bool IsKnownOpcode(uint8_t value) {
  return std::string_view(OpcodeName(static_cast<Opcode>(value))) != "?";
}

const char* WireErrorName(WireError error) {
  switch (error) {
    case WireError::kNone: return "NONE";
    case WireError::kBadMagic: return "BAD_MAGIC";
    case WireError::kBadVersion: return "BAD_VERSION";
    case WireError::kBadHeader: return "BAD_HEADER";
    case WireError::kOversizedPayload: return "OVERSIZED_PAYLOAD";
    case WireError::kUnknownOpcode: return "UNKNOWN_OPCODE";
    case WireError::kBadPayload: return "BAD_PAYLOAD";
    case WireError::kRejectedSummary: return "REJECTED_SUMMARY";
    case WireError::kShuttingDown: return "SHUTTING_DOWN";
    case WireError::kTooManyErrors: return "TOO_MANY_ERRORS";
    case WireError::kWalFailure: return "WAL_FAILURE";
    case WireError::kConfigMismatch: return "CONFIG_MISMATCH";
    case WireError::kNoHealthyShard: return "NO_HEALTHY_SHARD";
    case WireError::kBadMembership: return "BAD_MEMBERSHIP";
  }
  return "?";
}

std::string EncodeFrame(Opcode opcode, std::string_view payload) {
  // An oversized or unknown frame would be rejected (and poison the
  // stream) on the receiving side, so emitting one is always a local bug.
  SETSKETCH_CHECK(payload.size() <= kMaxPayloadBytes)
      << "encoding a frame larger than the protocol cap:" << payload.size();
  SETSKETCH_DCHECK(IsKnownOpcode(static_cast<uint8_t>(opcode)))
      << "encoding unknown opcode"
      << static_cast<int>(static_cast<uint8_t>(opcode));
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendU32(&out, kProtocolMagic);
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(opcode));
  out.push_back(0);
  out.push_back(0);
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

FrameScanStatus ScanFrame(std::string_view data, FrameView* view,
                          size_t* frame_bytes, WireError* error,
                          std::string* error_message) {
  const auto fail = [&](WireError code, std::string message) {
    *error = code;
    *error_message = std::move(message);
    return FrameScanStatus::kError;
  };
  if (data.size() < kFrameHeaderBytes) return FrameScanStatus::kNeedMore;
  uint32_t magic = 0;
  std::memcpy(&magic, data.data(), sizeof(magic));
  if (magic != kProtocolMagic) {
    return fail(WireError::kBadMagic, "bad frame magic");
  }
  const uint8_t version = static_cast<uint8_t>(data[4]);
  if (version != kProtocolVersion) {
    return fail(WireError::kBadVersion,
                "unsupported protocol version " + std::to_string(version));
  }
  if (data[6] != 0 || data[7] != 0) {
    return fail(WireError::kBadHeader, "nonzero reserved header bits");
  }
  uint32_t payload_size = 0;
  std::memcpy(&payload_size, data.data() + 8, sizeof(payload_size));
  if (payload_size > kMaxPayloadBytes) {
    return fail(WireError::kOversizedPayload,
                "payload of " + std::to_string(payload_size) +
                    " bytes exceeds the frame limit");
  }
  if (data.size() - kFrameHeaderBytes < payload_size) {
    return FrameScanStatus::kNeedMore;
  }
  view->opcode = static_cast<Opcode>(data[5]);
  view->payload = data.substr(kFrameHeaderBytes, payload_size);
  *frame_bytes = kFrameHeaderBytes + payload_size;
  return FrameScanStatus::kFrame;
}

std::string EncodePushUpdates(const UpdateBatch& batch) {
  return EncodePushUpdates(batch, batch.site_id, batch.sequence);
}

std::string EncodePushUpdates(const UpdateBatch& batch,
                              std::string_view site_id, uint64_t sequence) {
  SETSKETCH_CHECK(site_id.size() <= kMaxSiteIdBytes)
      << "site id of " << site_id.size() << " bytes exceeds the wire bound";
  SETSKETCH_CHECK(batch.stream_backends.empty() ||
                  batch.stream_backends.size() == batch.stream_names.size())
      << "stream_backends must parallel stream_names";
  // Exact-size precompute + raw pointer writes: identical bytes to the
  // AppendVarint formulation, without a byte-at-a-time push_back on the
  // client's hot path (wide --batch-bytes batches re-encode per send).
  size_t size = VarintLen(site_id.size()) + site_id.size() +
                VarintLen(sequence) + VarintLen(batch.stream_names.size());
  for (const std::string& name : batch.stream_names) {
    size += VarintLen(name.size()) + name.size() + 1;
  }
  size += VarintLen(batch.updates.size());
  for (const Update& u : batch.updates) {
    size += VarintLen(u.stream) + VarintLen(u.element) +
            VarintLen(ZigZagEncode(u.delta));
  }
  std::string out;
  out.resize(size);
  char* p = out.data();
  p = WriteVarint(p, site_id.size());
  if (!site_id.empty()) {
    std::memcpy(p, site_id.data(), site_id.size());
    p += site_id.size();
  }
  p = WriteVarint(p, sequence);
  p = WriteVarint(p, batch.stream_names.size());
  for (size_t i = 0; i < batch.stream_names.size(); ++i) {
    const std::string& name = batch.stream_names[i];
    p = WriteVarint(p, name.size());
    std::memcpy(p, name.data(), name.size());
    p += name.size();
    *p++ = static_cast<char>(
        batch.stream_backends.empty() ? 0 : batch.stream_backends[i]);
  }
  p = WriteVarint(p, batch.updates.size());
  for (const Update& u : batch.updates) {
    p = WriteVarint(p, u.stream);
    p = WriteVarint(p, u.element);
    p = WriteVarint(p, ZigZagEncode(u.delta));
  }
  SETSKETCH_DCHECK(p == out.data() + size)
      << "encoded size mismatch:" << (p - out.data()) << "vs" << size;
  return out;
}

namespace {

/// ReadVarintString without the copy: *out borrows `data`'s bytes.
bool ReadVarintStringView(std::string_view data, size_t* offset,
                          size_t max_bytes, std::string_view* out) {
  uint64_t length = 0;
  if (!ReadVarint(data, offset, &length)) return false;
  if (length > max_bytes) return false;
  if (length > data.size() - *offset) return false;
  *out = data.substr(*offset, static_cast<size_t>(length));
  *offset += static_cast<size_t>(length);
  return true;
}

}  // namespace

bool DecodePushUpdates(std::string_view payload, UpdateBatchView* out,
                       std::string* error) {
  out->stream_names.clear();
  out->updates.clear();
  out->stream_backends.clear();
  size_t offset = 0;
  if (!ReadVarintStringView(payload, &offset, kMaxSiteIdBytes,
                            &out->site_id)) {
    *error = "malformed site id";
    return false;
  }
  if (!ReadVarint(payload, &offset, &out->sequence)) {
    *error = "truncated sequence number";
    return false;
  }
  uint64_t num_names = 0;
  if (!ReadVarint(payload, &offset, &num_names)) {
    *error = "truncated stream-name count";
    return false;
  }
  // A name count beyond the remaining bytes is certainly malformed.
  if (num_names > payload.size() - offset) {
    *error = "stream-name count exceeds payload";
    return false;
  }
  out->stream_names.reserve(static_cast<size_t>(num_names));
  out->stream_backends.reserve(static_cast<size_t>(num_names));
  std::unordered_set<std::string_view> seen_names;
  for (uint64_t i = 0; i < num_names; ++i) {
    std::string_view name;
    if (!ReadVarintStringView(payload, &offset, kMaxStreamNameBytes,
                              &name)) {
      *error = "malformed stream name " + std::to_string(i);
      return false;
    }
    if (name.empty()) {
      *error = "empty stream name";
      return false;
    }
    // Duplicate ids in the batch-local table would make two local indexes
    // alias one stream — a client-side bug (or hostile payload) that must
    // be rejected, not silently double-applied.
    if (!seen_names.insert(name).second) {
      *error = "duplicate stream name '" + std::string(name) + "' in batch";
      return false;
    }
    if (offset == payload.size()) {
      *error = "truncated backend tag for stream '" + std::string(name) + "'";
      return false;
    }
    const uint8_t backend = static_cast<uint8_t>(payload[offset++]);
    if (!KnownSketchBackend(backend)) {
      *error = "unknown backend tag for stream '" + std::string(name) + "'";
      return false;
    }
    out->stream_names.push_back(name);
    out->stream_backends.push_back(backend);
  }
  uint64_t num_updates = 0;
  if (!ReadVarint(payload, &offset, &num_updates)) {
    *error = "truncated update count";
    return false;
  }
  // Each update costs at least 3 payload bytes; reject absurd counts
  // before reserving memory for them.
  if (num_updates > (payload.size() - offset + 2) / 3) {
    *error = "update count exceeds payload";
    return false;
  }
  out->updates.reserve(static_cast<size_t>(num_updates));
  // Bulk-decode the triples in chunks: the run decoder amortizes the
  // per-varint call; validation and zigzag happen per chunk.
  constexpr size_t kChunkTriples = 512;
  uint64_t values[3 * kChunkTriples];
  const uint8_t* base = reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* const end = base + payload.size();
  const uint8_t* q = base + offset;
  uint64_t decoded = 0;
  while (decoded < num_updates) {
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(num_updates - decoded, kChunkTriples));
    size_t used = 0;
    const size_t got = DecodeVarintRun(q, end, 3 * chunk, values, &used);
    const size_t full = got / 3;
    for (size_t k = 0; k < full; ++k) {
      const uint64_t stream = values[3 * k];
      if (stream >= num_names) {
        *error = "update " + std::to_string(decoded + k) +
                 " addresses undeclared stream index " +
                 std::to_string(stream);
        return false;
      }
      out->updates.push_back(Update{static_cast<StreamId>(stream),
                                    values[3 * k + 1],
                                    ZigZagDecode(values[3 * k + 2])});
    }
    if (got < 3 * chunk) {
      // A varint in triple `full` failed (truncated or overlong): report
      // the triple a one-varint-at-a-time scan would stop at.
      *error = "truncated update " + std::to_string(decoded + full);
      return false;
    }
    q += used;
    decoded += full;
  }
  if (q != end) {
    *error = "trailing bytes after update batch";
    return false;
  }
  return true;
}

std::string EncodeError(WireError error, std::string_view message) {
  std::string out;
  AppendVarint(&out, static_cast<uint64_t>(error));
  out.append(message);
  return out;
}

bool DecodeError(const std::string& payload, ErrorInfo* out) {
  size_t offset = 0;
  uint64_t code = 0;
  if (!ReadVarint(payload, &offset, &code) || code > 255) return false;
  out->code = static_cast<WireError>(code);
  out->message = payload.substr(offset);
  return true;
}

std::string EncodeAck(const AckInfo& ack) {
  std::string out;
  AppendVarint(&out, ack.accepted);
  out.push_back(ack.replaced ? 1 : 0);
  out.push_back(ack.duplicate ? 1 : 0);
  return out;
}

bool DecodeAck(const std::string& payload, AckInfo* out) {
  size_t offset = 0;
  if (!ReadVarint(payload, &offset, &out->accepted)) return false;
  if (offset + 2 != payload.size()) return false;
  out->replaced = payload[offset] != 0;
  out->duplicate = payload[offset + 1] != 0;
  return true;
}

std::string EncodeQueryResult(const QueryResultInfo& result) {
  std::string out;
  // Bit 0x01 = ok, bit 0x02 = degraded.
  out.push_back(result.ok ? static_cast<char>(result.degraded ? 3 : 1)
                          : 0);
  if (result.ok) {
    AppendF64(&out, result.estimate);
    AppendF64(&out, result.lo);
    AppendF64(&out, result.hi);
    out.append(result.expression);
  } else {
    out.append(result.error);
  }
  return out;
}

bool DecodeQueryResult(const std::string& payload, QueryResultInfo* out) {
  *out = QueryResultInfo{};
  if (payload.empty()) return false;
  out->ok = payload[0] != 0;
  out->degraded = (static_cast<uint8_t>(payload[0]) & 0x02) != 0;
  size_t offset = 1;
  if (!out->ok) {
    out->error = payload.substr(offset);
    return true;
  }
  if (!ReadF64(payload, &offset, &out->estimate) ||
      !ReadF64(payload, &offset, &out->lo) ||
      !ReadF64(payload, &offset, &out->hi)) {
    return false;
  }
  out->expression = payload.substr(offset);
  return true;
}

QueryResultInfo PlannedQueryResult(const CompiledQuery& query,
                                   const PlanCache::Result& planned) {
  QueryResultInfo result;
  result.expression = query.display;
  result.ok = planned.ok;
  result.estimate = planned.estimate;
  if (!planned.ok) {
    result.error = planned.error.empty()
                       ? "estimation failed (no valid witness observations)"
                       : planned.error;
    return result;
  }
  result.lo = planned.interval.lo;
  result.hi = planned.interval.hi;
  return result;
}

std::string EncodeHello(const HelloInfo& hello, bool response) {
  std::string out;
  AppendU32(&out, response ? kHelloResponseMagic : kHelloRequestMagic);
  out.push_back(static_cast<char>(kHelloVersion));
  out.push_back(static_cast<char>(hello.features));
  EncodeSketchConfig(hello.config, &out);
  return out;
}

bool DecodeHello(const std::string& payload, bool response, HelloInfo* out) {
  *out = HelloInfo{};
  if (payload.size() < sizeof(uint32_t) + 2) return false;
  if (ReadU32At(payload, 0) !=
      (response ? kHelloResponseMagic : kHelloRequestMagic)) {
    return false;
  }
  if (static_cast<uint8_t>(payload[4]) != kHelloVersion) return false;
  out->features = static_cast<uint8_t>(payload[5]);
  size_t offset = sizeof(uint32_t) + 2;
  std::string why;
  return DecodeSketchConfig(payload, &offset, &out->config, &why) &&
         offset == payload.size();
}

std::string EncodeSummaryPull(const SummaryPullRequest& request) {
  std::string out;
  AppendVarint(&out, request.streams.size());
  for (const SummaryPullRequest::Key& key : request.streams) {
    SETSKETCH_CHECK(key.name.size() <= kMaxStreamNameBytes)
        << "stream name of " << key.name.size()
        << " bytes exceeds the wire bound";
    AppendVarintString(&out, key.name);
    AppendVarint(&out, key.bank_id);
    AppendVarint(&out, key.epoch);
  }
  return out;
}

bool DecodeSummaryPull(const std::string& payload, SummaryPullRequest* out,
                       std::string* error) {
  out->streams.clear();
  size_t offset = 0;
  uint64_t num_streams = 0;
  if (!ReadVarint(payload, &offset, &num_streams)) {
    *error = "truncated stream count";
    return false;
  }
  if (num_streams > payload.size() - offset) {
    *error = "stream count exceeds payload";
    return false;
  }
  out->streams.reserve(static_cast<size_t>(num_streams));
  for (uint64_t i = 0; i < num_streams; ++i) {
    SummaryPullRequest::Key key;
    if (!ReadVarintString(payload, &offset, kMaxStreamNameBytes,
                          &key.name)) {
      *error = "malformed stream name " + std::to_string(i);
      return false;
    }
    if (key.name.empty()) {
      *error = "empty stream name";
      return false;
    }
    if (!ReadVarint(payload, &offset, &key.bank_id) ||
        !ReadVarint(payload, &offset, &key.epoch)) {
      *error = "truncated cache key for stream '" + key.name + "'";
      return false;
    }
    out->streams.push_back(std::move(key));
  }
  if (offset != payload.size()) {
    *error = "trailing bytes after summary pull";
    return false;
  }
  return true;
}

std::string EncodeSummaryResult(const SummaryResult& result) {
  std::string out;
  AppendVarint(&out, result.streams.size());
  for (const SummaryResult::Entry& entry : result.streams) {
    AppendVarintString(&out, entry.name);
    out.push_back(static_cast<char>(entry.state));
    if (entry.state == SummaryState::kFull) {
      AppendVarint(&out, entry.bank_id);
      AppendVarint(&out, entry.epoch);
      EncodeStreamSummary(entry.summary, &out);
    }
  }
  return out;
}

bool DecodeSummaryResult(const std::string& payload,
                         const SketchBank* receiver, SummaryResult* out,
                         std::string* error) {
  out->streams.clear();
  size_t offset = 0;
  uint64_t num_streams = 0;
  if (!ReadVarint(payload, &offset, &num_streams)) {
    *error = "truncated stream count";
    return false;
  }
  if (num_streams > payload.size() - offset) {
    *error = "stream count exceeds payload";
    return false;
  }
  out->streams.reserve(static_cast<size_t>(num_streams));
  for (uint64_t i = 0; i < num_streams; ++i) {
    SummaryResult::Entry entry;
    if (!ReadVarintString(payload, &offset, kMaxStreamNameBytes,
                          &entry.name)) {
      *error = "malformed stream name " + std::to_string(i);
      return false;
    }
    if (offset >= payload.size()) {
      *error = "truncated state for stream '" + entry.name + "'";
      return false;
    }
    const uint8_t state = static_cast<uint8_t>(payload[offset++]);
    if (state > static_cast<uint8_t>(SummaryState::kFull)) {
      *error = "unknown summary state for stream '" + entry.name + "'";
      return false;
    }
    entry.state = static_cast<SummaryState>(state);
    if (entry.state == SummaryState::kFull) {
      if (!ReadVarint(payload, &offset, &entry.bank_id) ||
          !ReadVarint(payload, &offset, &entry.epoch)) {
        *error = "truncated identity for stream '" + entry.name + "'";
        return false;
      }
      std::string decode_error;
      if (!DecodeStreamSummary(payload, &offset, receiver,
                               /*counter_budget=*/nullptr, &entry.summary,
                               &decode_error)) {
        *error = "stream '" + entry.name + "' " + decode_error;
        return false;
      }
    }
    out->streams.push_back(std::move(entry));
  }
  if (offset != payload.size()) {
    *error = "trailing bytes after summary result";
    return false;
  }
  return true;
}

bool DecodeSummaryResult(const std::string& payload, SummaryResult* out,
                         std::string* error) {
  return DecodeSummaryResult(payload, nullptr, out, error);
}

namespace {

void AppendSiteWindows(
    const std::vector<RepairManifest::SiteWindow>& sites, std::string* out) {
  AppendVarint(out, sites.size());
  for (const RepairManifest::SiteWindow& site : sites) {
    SETSKETCH_CHECK(site.site_id.size() <= kMaxSiteIdBytes)
        << "site id of " << site.site_id.size()
        << " bytes exceeds the wire bound";
    AppendVarintString(out, site.site_id);
    AppendVarint(out, site.high);
    AppendVarint(out, site.bits);
  }
}

bool ReadSiteWindows(const std::string& payload, size_t* offset,
                     std::vector<RepairManifest::SiteWindow>* out,
                     std::string* error) {
  out->clear();
  uint64_t num_sites = 0;
  if (!ReadVarint(payload, offset, &num_sites)) {
    *error = "truncated site count";
    return false;
  }
  if (num_sites > payload.size() - *offset) {
    *error = "site count exceeds payload";
    return false;
  }
  out->reserve(static_cast<size_t>(num_sites));
  for (uint64_t i = 0; i < num_sites; ++i) {
    RepairManifest::SiteWindow site;
    if (!ReadVarintString(payload, offset, kMaxSiteIdBytes,
                          &site.site_id)) {
      *error = "malformed site id " + std::to_string(i);
      return false;
    }
    if (site.site_id.empty()) {
      *error = "empty site id";
      return false;
    }
    if (!ReadVarint(payload, offset, &site.high) ||
        !ReadVarint(payload, offset, &site.bits)) {
      *error = "truncated dedup window for site '" + site.site_id + "'";
      return false;
    }
    out->push_back(std::move(site));
  }
  return true;
}

}  // namespace

std::vector<RepairManifest::SiteWindow> SiteWindows(const DedupIndex& index) {
  std::vector<RepairManifest::SiteWindow> sites;
  index.ForEachWindow(
      [&sites](std::string_view site_id, uint64_t high, uint64_t bits) {
        sites.push_back(
            RepairManifest::SiteWindow{std::string(site_id), high, bits});
      });
  return sites;
}

void FoldSiteWindows(const std::vector<RepairManifest::SiteWindow>& sites,
                     DedupIndex* index) {
  for (const RepairManifest::SiteWindow& site : sites) {
    index->MergeWindow(site.site_id, site.high, site.bits);
  }
}

std::string EncodeRepairManifest(const RepairManifest& manifest) {
  std::string out;
  AppendVarint(&out, manifest.streams.size());
  for (const RepairManifest::StreamInfo& stream : manifest.streams) {
    SETSKETCH_CHECK(stream.name.size() <= kMaxStreamNameBytes)
        << "stream name of " << stream.name.size()
        << " bytes exceeds the wire bound";
    AppendVarintString(&out, stream.name);
    AppendVarint(&out, stream.bank_id);
    AppendVarint(&out, stream.epoch);
  }
  AppendSiteWindows(manifest.sites, &out);
  return out;
}

bool DecodeRepairManifest(const std::string& payload, RepairManifest* out,
                          std::string* error) {
  out->streams.clear();
  out->sites.clear();
  size_t offset = 0;
  uint64_t num_streams = 0;
  if (!ReadVarint(payload, &offset, &num_streams)) {
    *error = "truncated stream count";
    return false;
  }
  if (num_streams > payload.size() - offset) {
    *error = "stream count exceeds payload";
    return false;
  }
  out->streams.reserve(static_cast<size_t>(num_streams));
  for (uint64_t i = 0; i < num_streams; ++i) {
    RepairManifest::StreamInfo stream;
    if (!ReadVarintString(payload, &offset, kMaxStreamNameBytes,
                          &stream.name)) {
      *error = "malformed stream name " + std::to_string(i);
      return false;
    }
    if (stream.name.empty()) {
      *error = "empty stream name";
      return false;
    }
    if (!ReadVarint(payload, &offset, &stream.bank_id) ||
        !ReadVarint(payload, &offset, &stream.epoch)) {
      *error = "truncated identity for stream '" + stream.name + "'";
      return false;
    }
    out->streams.push_back(std::move(stream));
  }
  if (!ReadSiteWindows(payload, &offset, &out->sites, error)) return false;
  if (offset != payload.size()) {
    *error = "trailing bytes after repair manifest";
    return false;
  }
  return true;
}

std::string EncodeRepairInstall(const RepairInstall& install) {
  std::string out;
  out.push_back(install.replace_dedup ? 1 : 0);
  AppendSiteWindows(install.sites, &out);
  AppendVarint(&out, install.streams.size());
  for (const RepairInstall::StreamState& stream : install.streams) {
    SETSKETCH_CHECK(stream.name.size() <= kMaxStreamNameBytes)
        << "stream name of " << stream.name.size()
        << " bytes exceeds the wire bound";
    AppendVarintString(&out, stream.name);
    EncodeStreamSummary(stream.summary, &out);
  }
  return out;
}

bool DecodeRepairInstall(const std::string& payload,
                         const SketchBank& receiver, RepairInstall* out,
                         std::string* error) {
  out->sites.clear();
  out->streams.clear();
  size_t offset = 0;
  if (payload.empty()) {
    *error = "truncated repair mode";
    return false;
  }
  const uint8_t mode = static_cast<uint8_t>(payload[offset++]);
  if (mode > 1) {
    *error = "unknown repair mode " + std::to_string(mode);
    return false;
  }
  out->replace_dedup = mode == 1;
  if (!ReadSiteWindows(payload, &offset, &out->sites, error)) return false;
  uint64_t num_streams = 0;
  if (!ReadVarint(payload, &offset, &num_streams)) {
    *error = "truncated stream count";
    return false;
  }
  if (num_streams > payload.size() - offset) {
    *error = "stream count exceeds payload";
    return false;
  }
  out->streams.reserve(static_cast<size_t>(num_streams));
  for (uint64_t i = 0; i < num_streams; ++i) {
    RepairInstall::StreamState stream;
    if (!ReadVarintString(payload, &offset, kMaxStreamNameBytes,
                          &stream.name)) {
      *error = "malformed stream name " + std::to_string(i);
      return false;
    }
    if (stream.name.empty()) {
      *error = "empty stream name";
      return false;
    }
    std::string decode_error;
    if (!DecodeStreamSummary(payload, &offset, &receiver,
                             /*counter_budget=*/nullptr, &stream.summary,
                             &decode_error)) {
      *error = "stream '" + stream.name + "' " + decode_error;
      return false;
    }
    out->streams.push_back(std::move(stream));
  }
  if (offset != payload.size()) {
    *error = "trailing bytes after repair install";
    return false;
  }
  return true;
}

std::string EncodeShardAdmin(const ShardAdminRequest& request) {
  std::string out;
  SETSKETCH_CHECK(request.name.size() <= kMaxStreamNameBytes)
      << "shard name of " << request.name.size()
      << " bytes exceeds the wire bound";
  AppendVarintString(&out, request.name);
  AppendVarintString(&out, request.host);
  AppendVarint(&out, static_cast<uint64_t>(request.port));
  return out;
}

bool DecodeShardAdmin(const std::string& payload, ShardAdminRequest* out,
                      std::string* error) {
  size_t offset = 0;
  if (!ReadVarintString(payload, &offset, kMaxStreamNameBytes,
                        &out->name)) {
    *error = "malformed shard name";
    return false;
  }
  if (out->name.empty()) {
    *error = "empty shard name";
    return false;
  }
  // Hosts are IPv4 dotted quads or "localhost"; the site-id bound is
  // generous enough and keeps hostile payloads cheap.
  if (!ReadVarintString(payload, &offset, kMaxSiteIdBytes, &out->host)) {
    *error = "malformed shard host";
    return false;
  }
  uint64_t port = 0;
  if (!ReadVarint(payload, &offset, &port) || port > 65535) {
    *error = "malformed shard port";
    return false;
  }
  out->port = static_cast<int>(port);
  if (offset != payload.size()) {
    *error = "trailing bytes after shard admin request";
    return false;
  }
  return true;
}

}  // namespace setsketch
