#include "server/sketch_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "server/fault_injector.h"
#include "server/socket_io.h"

namespace setsketch {

namespace {

constexpr uint64_t kBackoffSalt = 0x736B636C69656E74ULL;  // "skclient"

}  // namespace

SketchClient::SketchClient(const Options& options)
    : options_(options),
      next_sequence_(options.first_sequence),
      backoff_(options.backoff_initial_ms, options.backoff_cap_ms,
               options.backoff_seed != 0
                   ? options.backoff_seed
                   : Backoff::DeriveSeed(kBackoffSalt, options.site_id,
                                         options.port)) {}

SketchClient::~SketchClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<SketchClient> SketchClient::Connect(const Options& options,
                                                    std::string* error) {
  std::unique_ptr<SketchClient> client(new SketchClient(options));
  std::string dial_error;
  if (!client->Dial(&dial_error)) {
    if (error != nullptr) *error = dial_error;
    return nullptr;
  }
  return client;
}

std::unique_ptr<SketchClient> SketchClient::Connect(const std::string& host,
                                                    int port,
                                                    std::string* error) {
  Options options;
  options.host = host;
  options.port = port;
  return Connect(options, error);
}

bool SketchClient::Dial(std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  const std::string resolved =
      options_.host == "localhost" ? "127.0.0.1" : options_.host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid host '" + options_.host + "' (IPv4 address expected)";
    ::close(fd);
    return false;
  }
  const IoResult connected =
      ConnectWithTimeout(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr), options_.connect_timeout_ms);
  if (!connected.ok()) {
    if (connected.status == IoStatus::kTimeout) ++counters_.timeouts;
    *error = DescribeIoResult(connected, "connect",
                              options_.connect_timeout_ms);
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return true;
}

void SketchClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  arena_.Consume(arena_.Unparsed().size());
}

SketchClient::Status SketchClient::RoundTrip(Opcode opcode,
                                             std::string_view payload,
                                             Frame* reply) {
  Status status;
  if (fd_ < 0) {
    // Lazy redial: a prior failure closed the socket.
    std::string dial_error;
    if (!Dial(&dial_error)) {
      status.error = dial_error;
      return status;
    }
    ++counters_.reconnects;
  }

  // One deadline bounds the whole round trip: the frame must be sent AND
  // answered within io_timeout_ms.
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  const auto remaining_ms = [&]() -> int {
    if (options_.io_timeout_ms <= 0) return 0;  // 0 = no deadline below.
    const auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::now() - started)
                           .count();
    const long long left = options_.io_timeout_ms - spent;
    return left > 0 ? static_cast<int>(left) : -1;  // -1 = expired.
  };

  const IoResult sent =
      SendAllWithDeadline(fd_, EncodeFrame(opcode, payload),
                          options_.io_timeout_ms, options_.fault_injector);
  if (!sent.ok()) {
    if (sent.status == IoStatus::kTimeout) {
      status.timed_out = true;
      ++counters_.timeouts;
    }
    status.error = DescribeIoResult(sent, "send", options_.io_timeout_ms);
    Disconnect();
    return status;
  }

  // Receive straight into the arena; only the reply payload is copied
  // out (the caller owns *reply past the next round trip).
  constexpr size_t kReadChunkBytes = 1 << 16;
  while (true) {
    FrameView view;
    size_t frame_bytes = 0;
    WireError scan_error = WireError::kNone;
    std::string scan_message;
    const FrameScanStatus scanned = ScanFrame(
        arena_.Unparsed(), &view, &frame_bytes, &scan_error, &scan_message);
    if (scanned == FrameScanStatus::kFrame) {
      reply->opcode = view.opcode;
      reply->payload.assign(view.payload);
      arena_.Consume(frame_bytes);
      arena_.MaybeShrink(4 * kReadChunkBytes);
      break;
    }
    if (scanned == FrameScanStatus::kError) {
      status.error = "protocol error: " + scan_message;
      Disconnect();
      return status;
    }
    const int budget = remaining_ms();
    if (budget < 0) {
      status.timed_out = true;
      ++counters_.timeouts;
      status.error =
          "recv: timeout after " + std::to_string(options_.io_timeout_ms) +
          " ms";
      Disconnect();
      return status;
    }
    char* cursor = arena_.WritePtr(kReadChunkBytes);
    size_t received = 0;
    const IoResult got = RecvSomeWithDeadline(
        fd_, cursor, arena_.write_capacity(), budget, &received);
    if (!got.ok()) {
      if (got.status == IoStatus::kTimeout) {
        status.timed_out = true;
        ++counters_.timeouts;
      }
      status.error = DescribeIoResult(got, "recv", options_.io_timeout_ms);
      Disconnect();
      return status;
    }
    arena_.CommitRead(received);
  }
  // Map the generic failure responses here; callers only see successes
  // and their op-specific payloads.
  if (reply->opcode == Opcode::kError) {
    ErrorInfo info;
    if (DecodeError(reply->payload, &info)) {
      status.code = info.code;
      status.error = std::string(WireErrorName(info.code)) + ": " +
                     info.message;
    } else {
      status.error = "malformed error frame";
    }
    return status;
  }
  if (reply->opcode == Opcode::kRetryLater) {
    status.retry = true;
    status.error = "server backpressure (RETRY_LATER)";
    return status;
  }
  status.ok = true;
  return status;
}

SketchClient::Status SketchClient::Ping() {
  Frame reply;
  Status status = RoundTrip(Opcode::kPing, "ping", &reply);
  if (status.ok && reply.opcode != Opcode::kPong) {
    status.ok = false;
    status.error = std::string("unexpected reply ") +
                   OpcodeName(reply.opcode);
  }
  return status;
}

SketchClient::Status SketchClient::Hello(const HelloInfo& mine,
                                         HelloInfo* theirs) {
  Frame reply;
  Status status =
      RoundTrip(Opcode::kPing, EncodeHello(mine, /*response=*/false), &reply);
  if (!status.ok) return status;
  if (reply.opcode != Opcode::kPong) {
    status.ok = false;
    status.error = std::string("unexpected reply ") +
                   OpcodeName(reply.opcode);
    return status;
  }
  if (!DecodeHello(reply.payload, /*response=*/true, theirs)) {
    status.ok = false;
    status.error = "peer does not speak the cluster handshake";
  }
  return status;
}

SketchClient::Status SketchClient::PullSummaries(
    const SummaryPullRequest& request, SummaryResult* result) {
  return PullSummaries(request, nullptr, result);
}

SketchClient::Status SketchClient::PullSummaries(
    const SummaryPullRequest& request, const SketchBank* receiver,
    SummaryResult* result) {
  Frame reply;
  Status status =
      RoundTrip(Opcode::kPullSummary, EncodeSummaryPull(request), &reply);
  if (!status.ok) return status;
  if (reply.opcode != Opcode::kSummaryResult) {
    status.ok = false;
    status.error = std::string("unexpected reply ") +
                   OpcodeName(reply.opcode);
    return status;
  }
  std::string decode_error;
  if (!DecodeSummaryResult(reply.payload, receiver, result, &decode_error)) {
    result->streams.clear();
    status.ok = false;
    status.code = WireError::kBadPayload;
    status.error = "malformed SUMMARY_RESULT: " + decode_error;
    return status;
  }
  // A reply must answer exactly the names asked for, in order: callers
  // index the entries by name and install what they carry.
  bool answers_request = result->streams.size() == request.streams.size();
  for (size_t i = 0; answers_request && i < request.streams.size(); ++i) {
    answers_request = result->streams[i].name == request.streams[i].name;
  }
  if (!answers_request) {
    result->streams.clear();
    status.ok = false;
    status.code = WireError::kBadPayload;
    status.error =
        "SUMMARY_RESULT does not answer the request (entries must be the "
        "requested streams, in order)";
  }
  return status;
}

SketchClient::Status SketchClient::ForwardUpdates(const UpdateBatch& batch) {
  Frame reply;
  return DecodePushAck(
      RoundTrip(Opcode::kPushUpdates, EncodePushUpdates(batch), &reply),
      reply);
}

SketchClient::Status SketchClient::DecodePushAck(Status status,
                                                 const Frame& reply) {
  if (!status.ok) return status;
  AckInfo ack;
  if (reply.opcode != Opcode::kAck || !DecodeAck(reply.payload, &ack)) {
    status.ok = false;
    status.error = "malformed ACK";
    return status;
  }
  status.accepted = ack.accepted;
  status.replaced = ack.replaced;
  status.duplicate = ack.duplicate;
  if (ack.duplicate) ++counters_.duplicate_acks;
  return status;
}

SketchClient::Status SketchClient::PushUpdates(const UpdateBatch& batch) {
  const uint64_t sequence = next_sequence_;
  Status status = PushUpdatesAt(batch, sequence);
  // The sequence is consumed by the send attempt, acknowledged or not: a
  // lost ACK may still have been applied server-side, and reusing the
  // number for *different* data would make dedup drop real updates.
  if (!options_.site_id.empty()) next_sequence_ = sequence + 1;
  return status;
}

SketchClient::Status SketchClient::PushUpdatesAt(const UpdateBatch& batch,
                                                 uint64_t sequence) {
  Frame reply;
  const std::string payload =
      EncodePushUpdates(batch, options_.site_id, sequence);
  return DecodePushAck(RoundTrip(Opcode::kPushUpdates, payload, &reply),
                       reply);
}

SketchClient::Status SketchClient::PushUpdatesWithRetry(
    const UpdateBatch& batch, int max_attempts, int backoff_ms,
    uint64_t* retries_out, uint64_t* reconnects_out) {
  // One sequence for the whole loop: every resend is byte-identical, so
  // the server's dedup window converts at-least-once into exactly-once.
  const uint64_t sequence = next_sequence_;
  if (!options_.site_id.empty()) ++next_sequence_;

  // Callers pick the backoff floor per call (legacy signature); cap and
  // jitter come from Options.
  const int saved_initial = backoff_.initial_ms();
  backoff_.set_initial_ms(backoff_ms);

  const uint64_t reconnects_before = counters_.reconnects;
  Status status;
  uint64_t retries = 0;
  int consecutive_failures = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    status = PushUpdatesAt(batch, sequence);
    if (status.ok) break;
    // A config refusal (e.g. a backend retag) is permanent: every
    // resend is byte-identical and will be refused identically, so
    // fail fast instead of burning the retry budget.
    if (status.code == WireError::kConfigMismatch) break;
    ++consecutive_failures;
    if (status.retry) ++retries;
    // Transport failures closed the socket; the next attempt redials
    // after the same capped backoff.
    if (attempt + 1 < max_attempts) backoff_.Sleep(consecutive_failures);
  }
  backoff_.set_initial_ms(saved_initial);
  if (retries_out != nullptr) *retries_out = retries;
  if (reconnects_out != nullptr) {
    *reconnects_out = counters_.reconnects - reconnects_before;
  }
  counters_.retries += retries;
  return status;
}

SketchClient::Status SketchClient::PushSummary(
    const std::string& summary_bytes) {
  Frame reply;
  return DecodePushAck(
      RoundTrip(Opcode::kPushSummary, summary_bytes, &reply), reply);
}

SketchClient::Status SketchClient::PullRepair(RepairManifest* manifest) {
  Frame reply;
  Status status = RoundTrip(Opcode::kPullRepair, "", &reply);
  if (!status.ok) return status;
  if (reply.opcode != Opcode::kRepairState) {
    status.ok = false;
    status.error = std::string("unexpected reply ") +
                   OpcodeName(reply.opcode);
    return status;
  }
  std::string decode_error;
  if (!DecodeRepairManifest(reply.payload, manifest, &decode_error)) {
    status.ok = false;
    status.error = "malformed REPAIR_STATE: " + decode_error;
  }
  return status;
}

SketchClient::Status SketchClient::PushRepair(const RepairInstall& install) {
  Frame reply;
  return DecodePushAck(
      RoundTrip(Opcode::kPushRepair, EncodeRepairInstall(install), &reply),
      reply);
}

SketchClient::Status SketchClient::AddShard(
    const ShardAdminRequest& request) {
  Frame reply;
  return DecodePushAck(
      RoundTrip(Opcode::kAddShard, EncodeShardAdmin(request), &reply),
      reply);
}

SketchClient::Status SketchClient::DrainShard(
    const ShardAdminRequest& request) {
  Frame reply;
  return DecodePushAck(
      RoundTrip(Opcode::kDrainShard, EncodeShardAdmin(request), &reply),
      reply);
}

QueryResultInfo SketchClient::Query(const std::string& expression_text) {
  Frame reply;
  const Status status = RoundTrip(Opcode::kQuery, expression_text, &reply);
  QueryResultInfo result;
  if (!status.ok) {
    result.error = status.error;
    return result;
  }
  if (reply.opcode != Opcode::kQueryResult ||
      !DecodeQueryResult(reply.payload, &result)) {
    result.ok = false;
    result.error = "malformed QUERY_RESULT";
  }
  return result;
}

SketchClient::Status SketchClient::Stats(std::string* text) {
  Frame reply;
  Status status = RoundTrip(Opcode::kStats, "", &reply);
  if (!status.ok) return status;
  if (reply.opcode != Opcode::kStatsResult) {
    status.ok = false;
    status.error = std::string("unexpected reply ") +
                   OpcodeName(reply.opcode);
    return status;
  }
  if (text != nullptr) *text = reply.payload;
  return status;
}

SketchClient::Status SketchClient::Explain(
    const std::string& expression_text, std::string* report) {
  Frame reply;
  Status status = RoundTrip(Opcode::kExplain, expression_text, &reply);
  if (!status.ok) return status;
  if (reply.opcode != Opcode::kExplainResult) {
    status.ok = false;
    status.error = std::string("unexpected reply ") +
                   OpcodeName(reply.opcode);
    return status;
  }
  if (report != nullptr) *report = reply.payload;
  return status;
}

SketchClient::Status SketchClient::Shutdown() {
  Frame reply;
  Status status = RoundTrip(Opcode::kShutdown, "", &reply);
  if (status.ok && reply.opcode != Opcode::kAck) {
    status.ok = false;
    status.error = std::string("unexpected reply ") +
                   OpcodeName(reply.opcode);
  }
  return status;
}

}  // namespace setsketch
