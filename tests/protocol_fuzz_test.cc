// Randomized robustness tests for the wire protocol (src/server/protocol):
// the frame parser (ScanFrame over an IngestArena, tests/frame_reader.h)
// and payload codecs must survive arbitrary byte soup, arbitrary
// read()-chunk boundaries, truncations, and single-byte header corruption
// without crashing, and must report the documented error codes. A
// FaultInjector-driven section replays the chaos harness's send plans
// (drops, partial writes, mid-frame truncation + reset) against the
// parser to prove framing state never leaks across a reconnect.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/sketch_backend.h"
#include "core/sketch_bank.h"
#include "distributed/summary_codec.h"
#include "expr/canonical.h"
#include "expr/parser.h"
#include "frame_reader.h"
#include "hash/prng.h"
#include "query/plan_cache.h"
#include "server/fault_injector.h"
#include "server/protocol.h"
#include "util/varint.h"

namespace setsketch {
namespace {

/// Feeds `bytes` into `reader` in random-sized chunks.
void FeedInChunks(FrameReader* reader, const std::string& bytes,
                  Xoshiro256StarStar* rng) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const size_t chunk =
        1 + rng->NextBelow(std::min<size_t>(bytes.size() - offset, 97));
    reader->Feed(std::string_view(bytes).substr(offset, chunk));
    offset += chunk;
  }
}

std::vector<std::string> Owned(const std::vector<std::string_view>& views) {
  return std::vector<std::string>(views.begin(), views.end());
}

UpdateBatch SampleBatch(Xoshiro256StarStar* rng) {
  UpdateBatch batch;
  const size_t num_names = 1 + rng->NextBelow(4);
  for (size_t i = 0; i < num_names; ++i) {
    std::string name = "stream-";
    name.push_back(static_cast<char>('a' + i));
    // Occasionally exercise long (but legal) names.
    if (rng->NextBelow(8) == 0) name.append(rng->NextBelow(200), 'x');
    batch.stream_names.push_back(std::move(name));
  }
  const size_t num_updates = rng->NextBelow(64);
  for (size_t i = 0; i < num_updates; ++i) {
    batch.updates.push_back(
        Update{static_cast<StreamId>(rng->NextBelow(num_names)), rng->Next(),
               rng->NextBelow(2) == 0 ? int64_t{1} : int64_t{-1}});
  }
  // Half the batches carry an idempotency key (site + sequence), so the
  // fuzz corpus covers both the anonymous and the exactly-once prefix.
  if (rng->NextBelow(2) == 0) {
    batch.site_id = "site-";
    batch.site_id.append(1 + rng->NextBelow(kMaxSiteIdBytes - 5), 's');
    batch.sequence = rng->Next();
  }
  return batch;
}

TEST(ProtocolFuzzTest, RandomByteSoupNeverCrashesAndErrorIsSticky) {
  Xoshiro256StarStar rng(0xF00DF00D);
  for (int round = 0; round < 200; ++round) {
    FrameReader reader;
    std::string soup(1 + rng.NextBelow(2048), '\0');
    for (char& c : soup) c = static_cast<char>(rng.Next() & 0xff);
    FeedInChunks(&reader, soup, &rng);
    Frame frame;
    FrameScanStatus status;
    while ((status = reader.Next(&frame)) == FrameScanStatus::kFrame) {
    }
    if (status == FrameScanStatus::kError) {
      EXPECT_NE(reader.error(), WireError::kNone);
      // A poisoned stream stays poisoned, even when fed valid frames.
      reader.Feed(EncodeFrame(Opcode::kPing, "hello"));
      EXPECT_EQ(reader.Next(&frame), FrameScanStatus::kError);
    }
  }
}

TEST(ProtocolFuzzTest, ValidFramesSurviveAnyChunking) {
  Xoshiro256StarStar rng(0xC0FFEE);
  for (int round = 0; round < 50; ++round) {
    // A back-to-back stream of 1..8 frames with random payloads.
    std::string wire;
    std::vector<std::string> payloads;
    const size_t num_frames = 1 + rng.NextBelow(8);
    for (size_t i = 0; i < num_frames; ++i) {
      std::string payload(rng.NextBelow(300), '\0');
      for (char& c : payload) c = static_cast<char>(rng.Next() & 0xff);
      wire += EncodeFrame(Opcode::kPing, payload);
      payloads.push_back(std::move(payload));
    }
    FrameReader reader;
    FeedInChunks(&reader, wire, &rng);
    Frame frame;
    for (size_t i = 0; i < num_frames; ++i) {
      ASSERT_EQ(reader.Next(&frame), FrameScanStatus::kFrame)
          << "frame " << i << " of " << num_frames;
      EXPECT_EQ(frame.opcode, Opcode::kPing);
      EXPECT_EQ(frame.payload, payloads[i]);
    }
    EXPECT_EQ(reader.Next(&frame), FrameScanStatus::kNeedMore);
    EXPECT_EQ(reader.buffered_bytes(), 0u);
  }
}

TEST(ProtocolFuzzTest, EveryHeaderPrefixIsNeedMoreNotError) {
  const std::string wire = EncodeFrame(Opcode::kQuery, "A & B");
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameReader reader;
    reader.Feed(std::string_view(wire).substr(0, cut));
    Frame frame;
    EXPECT_EQ(reader.Next(&frame), FrameScanStatus::kNeedMore)
        << "cut at " << cut;
    // The remainder completes the frame.
    reader.Feed(std::string_view(wire).substr(cut));
    ASSERT_EQ(reader.Next(&frame), FrameScanStatus::kFrame)
        << "cut at " << cut;
    EXPECT_EQ(frame.payload, "A & B");
  }
}

TEST(ProtocolFuzzTest, SingleByteHeaderCorruptionYieldsDocumentedError) {
  const std::string valid = EncodeFrame(Opcode::kPing, "x");
  for (size_t pos = 0; pos < kFrameHeaderBytes; ++pos) {
    for (int flip = 1; flip < 256; flip += 37) {
      std::string wire = valid;
      wire[pos] = static_cast<char>(wire[pos] ^ flip);
      FrameReader reader;
      reader.Feed(wire);
      Frame frame;
      const FrameScanStatus status = reader.Next(&frame);
      if (pos < 4) {
        ASSERT_EQ(status, FrameScanStatus::kError);
        EXPECT_EQ(reader.error(), WireError::kBadMagic);
        EXPECT_EQ(reader.error_message(), "bad frame magic");
      } else if (pos == 4) {
        ASSERT_EQ(status, FrameScanStatus::kError);
        EXPECT_EQ(reader.error(), WireError::kBadVersion);
        EXPECT_EQ(reader.error_message(),
                  "unsupported protocol version " +
                      std::to_string(static_cast<uint8_t>(wire[4])));
      } else if (pos == 5) {
        // Opcode corruption is not a framing error: the frame decodes and
        // the server replies UNKNOWN_OPCODE (or treats it as a request).
        EXPECT_EQ(status, FrameScanStatus::kFrame);
      } else if (pos < 8) {
        ASSERT_EQ(status, FrameScanStatus::kError);
        EXPECT_EQ(reader.error(), WireError::kBadHeader);
        EXPECT_EQ(reader.error_message(), "nonzero reserved header bits");
      } else {
        // Payload-size corruption: a larger declared size pends
        // (kNeedMore), an absurd one errors with OVERSIZED_PAYLOAD, and a
        // shrunken size completes early (kFrame) with the leftover bytes
        // pending as the next header.
        if (status == FrameScanStatus::kError) {
          EXPECT_EQ(reader.error(), WireError::kOversizedPayload);
        }
      }
    }
  }
}

TEST(ProtocolFuzzTest, OversizedDeclaredPayloadIsRejectedImmediately) {
  std::string header(kFrameHeaderBytes, '\0');
  const uint32_t magic = kProtocolMagic;
  std::memcpy(header.data(), &magic, 4);
  header[4] = static_cast<char>(kProtocolVersion);
  header[5] = static_cast<char>(Opcode::kPing);
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(header.data() + 8, &huge, 4);
  FrameReader reader;
  reader.Feed(header);
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameScanStatus::kError);
  EXPECT_EQ(reader.error(), WireError::kOversizedPayload);
  EXPECT_EQ(reader.error_message(),
            "payload of " + std::to_string(huge) +
                " bytes exceeds the frame limit");
}

TEST(ProtocolFuzzTest, PushUpdatesRoundTripsRandomBatches) {
  Xoshiro256StarStar rng(0xBA7C4);
  for (int round = 0; round < 100; ++round) {
    const UpdateBatch batch = SampleBatch(&rng);
    const std::string payload = EncodePushUpdates(batch);
    UpdateBatchView decoded;
    std::string error;
    ASSERT_TRUE(DecodePushUpdates(payload, &decoded, &error)) << error;
    ASSERT_EQ(decoded.site_id, batch.site_id);
    ASSERT_EQ(decoded.sequence, batch.sequence);
    ASSERT_EQ(Owned(decoded.stream_names), batch.stream_names);
    ASSERT_EQ(decoded.updates.size(), batch.updates.size());
    for (size_t i = 0; i < batch.updates.size(); ++i) {
      EXPECT_EQ(decoded.updates[i].stream, batch.updates[i].stream);
      EXPECT_EQ(decoded.updates[i].element, batch.updates[i].element);
      EXPECT_EQ(decoded.updates[i].delta, batch.updates[i].delta);
    }
  }
}

TEST(ProtocolFuzzTest, PushUpdatesRejectsEveryTruncation) {
  Xoshiro256StarStar rng(0x7A0BC);
  for (int round = 0; round < 20; ++round) {
    UpdateBatch batch = SampleBatch(&rng);
    if (batch.updates.empty()) {
      batch.updates.push_back(Insert(0, 42));
    }
    const std::string payload = EncodePushUpdates(batch);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      UpdateBatchView decoded;
      std::string error;
      EXPECT_FALSE(DecodePushUpdates(std::string_view(payload).substr(0, cut),
                                     &decoded, &error))
          << "round " << round << " cut " << cut;
    }
    // ...and every extension (trailing garbage) too.
    const std::string extended = payload + "!";
    UpdateBatchView decoded;
    std::string error;
    EXPECT_FALSE(DecodePushUpdates(extended, &decoded, &error));
  }
}

TEST(ProtocolFuzzTest, PushUpdatesSurvivesRandomPayloads) {
  Xoshiro256StarStar rng(0xD15EA5E);
  size_t decoded_ok = 0;
  for (int round = 0; round < 500; ++round) {
    std::string payload(rng.NextBelow(512), '\0');
    for (char& c : payload) c = static_cast<char>(rng.Next() & 0xff);
    UpdateBatchView decoded;
    std::string error;
    if (DecodePushUpdates(payload, &decoded, &error)) {
      ++decoded_ok;  // Fine, as long as it did not crash or overflow.
      for (const Update& u : decoded.updates) {
        ASSERT_LT(static_cast<size_t>(u.stream),
                  decoded.stream_names.size());
      }
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
  // Random bytes essentially never form a valid batch.
  EXPECT_LT(decoded_ok, 5u);
}

TEST(ProtocolFuzzTest, PushUpdatesRejectsHostileDeclaredCounts) {
  // A payload declaring 2^40 names in 3 bytes must fail fast (bounded
  // sanity checks), not attempt a gigantic reserve.
  std::string payload;
  AppendVarint(&payload, uint64_t{1} << 40);
  UpdateBatchView decoded;
  std::string error;
  EXPECT_FALSE(DecodePushUpdates(payload, &decoded, &error));

  // One name, then an absurd update count with no bytes behind it.
  payload.clear();
  AppendVarint(&payload, 1);
  AppendVarint(&payload, 1);
  payload.push_back('A');
  AppendVarint(&payload, uint64_t{1} << 50);
  EXPECT_FALSE(DecodePushUpdates(payload, &decoded, &error));

  // A name longer than kMaxStreamNameBytes is rejected even when the
  // bytes are all present.
  payload.clear();
  AppendVarint(&payload, 1);
  AppendVarint(&payload, kMaxStreamNameBytes + 1);
  payload.append(kMaxStreamNameBytes + 1, 'n');
  AppendVarint(&payload, 0);
  EXPECT_FALSE(DecodePushUpdates(payload, &decoded, &error));
}

TEST(ProtocolFuzzTest, PushUpdatesRejectsHostileIdempotencyPrefix) {
  // A site id longer than kMaxSiteIdBytes is rejected even when all its
  // bytes are present.
  std::string payload;
  AppendVarint(&payload, kMaxSiteIdBytes + 1);
  payload.append(kMaxSiteIdBytes + 1, 's');
  UpdateBatchView decoded;
  std::string error;
  EXPECT_FALSE(DecodePushUpdates(payload, &decoded, &error));
  EXPECT_FALSE(error.empty());

  // A valid site id with the sequence varint cut off mid-continuation.
  payload.clear();
  AppendVarint(&payload, 4);
  payload.append("site");
  payload.push_back('\x80');  // Continuation bit set, no next byte.
  EXPECT_FALSE(DecodePushUpdates(payload, &decoded, &error));

  // A site id whose declared length points past the end of the payload.
  payload.clear();
  AppendVarint(&payload, 200);
  payload.append("short", 5);
  EXPECT_FALSE(DecodePushUpdates(payload, &decoded, &error));
}

// --- FaultInjector-driven transport chaos against the parser ------------

/// Applies one injector SendPlan to `wire`, feeding the reader what a
/// real socket peer would actually observe. Returns false when the plan
/// severed the connection (the caller must start a fresh reader, exactly
/// like a real handler would for a fresh accept()).
bool DeliverPerPlan(const SendPlan& plan, const std::string& wire,
                    FrameReader* reader) {
  switch (plan.kind) {
    case SendPlan::Kind::kDrop:
      return true;  // Bytes vanished; the connection itself is fine.
    case SendPlan::Kind::kReset:
      return false;  // Nothing delivered, connection torn down.
    case SendPlan::Kind::kTruncate:
      reader->Feed(std::string_view(wire).substr(0, plan.truncate_at));
      return false;  // Prefix delivered, then torn down.
    case SendPlan::Kind::kPartial: {
      size_t offset = 0;
      while (offset < wire.size()) {
        const size_t chunk =
            std::min(wire.size() - offset,
                     plan.chunk_bytes == 0 ? size_t{1} : plan.chunk_bytes);
        reader->Feed(std::string_view(wire).substr(offset, chunk));
        offset += chunk;
      }
      return true;
    }
    case SendPlan::Kind::kPass:
    case SendPlan::Kind::kDelay:
      reader->Feed(wire);
      return true;
  }
  return true;
}

TEST(ProtocolFuzzTest, InjectedFaultsNeverConfuseTheDecoder) {
  Xoshiro256StarStar rng(0x5EED);
  FaultInjector::Options fault_options;
  fault_options.seed = 0x5EED;
  fault_options.drop_probability = 0.15;
  fault_options.reset_probability = 0.15;
  fault_options.truncate_probability = 0.2;
  fault_options.partial_probability = 0.25;
  FaultInjector injector(fault_options);

  std::optional<FrameReader> reader;
  reader.emplace();
  uint64_t frames_delivered = 0;
  uint64_t frames_decoded = 0;
  for (int round = 0; round < 400; ++round) {
    UpdateBatch batch = SampleBatch(&rng);
    const std::string wire =
        EncodeFrame(Opcode::kPushUpdates, EncodePushUpdates(batch));
    const SendPlan plan = injector.PlanSend(wire.size());
    const bool intact = DeliverPerPlan(plan, wire, &*reader);
    if (plan.kind == SendPlan::Kind::kPass ||
        plan.kind == SendPlan::Kind::kDelay ||
        plan.kind == SendPlan::Kind::kPartial) {
      ++frames_delivered;
    }
    Frame frame;
    FrameScanStatus status;
    while ((status = reader->Next(&frame)) == FrameScanStatus::kFrame) {
      ++frames_decoded;
      // Whatever survived transport must decode as the exact batch shape
      // (truncations never produce a complete frame, so every complete
      // frame is a fully intact one).
      UpdateBatchView decoded;
      std::string error;
      ASSERT_TRUE(DecodePushUpdates(frame.payload, &decoded, &error))
          << error;
    }
    // Intact deliveries leave the reader healthy and frame-aligned; a
    // truncated-then-reset connection gets a fresh reader, like a fresh
    // accept() on the server.
    if (intact) {
      ASSERT_EQ(status, FrameScanStatus::kNeedMore);
      ASSERT_EQ(reader->buffered_bytes(), 0u);
    } else {
      reader.emplace();
    }
  }
  EXPECT_GT(injector.faults_injected(), 0u);
  EXPECT_EQ(frames_decoded, frames_delivered);
}

TEST(ProtocolFuzzTest, MidFrameResetLeavesNoStateForNextConnection) {
  // Every possible truncation point of a frame, followed by a "reset" and
  // a fresh reader: the next connection's first frame always decodes.
  UpdateBatch batch;
  batch.site_id = "site";
  batch.sequence = 3;
  batch.stream_names = {"A"};
  batch.updates = {Insert(0, 7)};
  const std::string wire =
      EncodeFrame(Opcode::kPushUpdates, EncodePushUpdates(batch));
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameReader torn;
    torn.Feed(std::string_view(wire).substr(0, cut));
    Frame frame;
    EXPECT_NE(torn.Next(&frame), FrameScanStatus::kFrame)
        << "cut " << cut;
    FrameReader fresh;  // Reconnect.
    fresh.Feed(wire);
    ASSERT_EQ(fresh.Next(&frame), FrameScanStatus::kFrame)
        << "cut " << cut;
    UpdateBatchView decoded;
    std::string error;
    ASSERT_TRUE(DecodePushUpdates(frame.payload, &decoded, &error)) << error;
    EXPECT_EQ(decoded.site_id, "site");
    EXPECT_EQ(decoded.sequence, 3u);
  }
}

TEST(ProtocolFuzzTest, AuxiliaryCodecsSurviveTruncationAndSoup) {
  Xoshiro256StarStar rng(0xAB1E);
  // Ack round trip + truncation never crashes.
  AckInfo ack;
  ack.accepted = 123456789;
  ack.replaced = true;
  ack.duplicate = true;
  const std::string ack_payload = EncodeAck(ack);
  AckInfo ack_out;
  ASSERT_TRUE(DecodeAck(ack_payload, &ack_out));
  EXPECT_EQ(ack_out.accepted, ack.accepted);
  EXPECT_TRUE(ack_out.replaced);
  EXPECT_TRUE(ack_out.duplicate);
  for (size_t cut = 0; cut < ack_payload.size(); ++cut) {
    // A truncated ACK (e.g. a duplicate flag cut off mid-frame) must be
    // rejected, never silently defaulted.
    EXPECT_FALSE(DecodeAck(ack_payload.substr(0, cut), &ack_out));
  }

  // Query-result round trip (both arms) + random soup.
  QueryResultInfo ok_result;
  ok_result.ok = true;
  ok_result.expression = "(A | B) - C";
  ok_result.estimate = 1234.5;
  ok_result.lo = 1000.25;
  ok_result.hi = 1500.75;
  QueryResultInfo out;
  ASSERT_TRUE(DecodeQueryResult(EncodeQueryResult(ok_result), &out));
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.expression, ok_result.expression);
  EXPECT_DOUBLE_EQ(out.estimate, ok_result.estimate);
  EXPECT_DOUBLE_EQ(out.lo, ok_result.lo);
  EXPECT_DOUBLE_EQ(out.hi, ok_result.hi);

  QueryResultInfo error_result;
  error_result.ok = false;
  error_result.error = "parse error: unexpected end of input";
  ASSERT_TRUE(DecodeQueryResult(EncodeQueryResult(error_result), &out));
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, error_result.error);

  EXPECT_FALSE(DecodeQueryResult("", &out));
  std::string empty_ok(1, '\x01');
  EXPECT_FALSE(DecodeQueryResult(empty_ok, &out));  // ok but no doubles.

  for (int round = 0; round < 200; ++round) {
    std::string soup(rng.NextBelow(64), '\0');
    for (char& c : soup) c = static_cast<char>(rng.Next() & 0xff);
    DecodeAck(soup, &ack_out);           // Must not crash.
    DecodeQueryResult(soup, &out);       // Must not crash.
    ErrorInfo error_info;
    DecodeError(soup, &error_info);      // Must not crash.
  }
}

TEST(ProtocolFuzzTest, PushUpdatesRejectsDuplicateStreamNames) {
  // A batch naming the same stream twice is ambiguous (updates index
  // streams by position) and must be refused at decode time with a typed
  // message, not silently double-routed.
  UpdateBatch batch;
  batch.stream_names = {"A", "B", "A"};
  batch.updates.push_back(Update{0, 42, 1});
  const std::string duplicated = EncodePushUpdates(batch);
  UpdateBatchView decoded;
  std::string error;
  EXPECT_FALSE(DecodePushUpdates(duplicated, &decoded, &error));
  EXPECT_EQ(error, "duplicate stream name 'A' in batch");

  // Distinct names with a shared prefix stay legal.
  batch.stream_names = {"A", "B", "AA"};
  const std::string distinct = EncodePushUpdates(batch);
  EXPECT_TRUE(DecodePushUpdates(distinct, &decoded, &error)) << error;
}

// --- Planner robustness against hostile QUERY payloads ------------------

/// Runs one hostile QUERY payload through the full planner path: parse ->
/// canonicalize -> plan-cache query against a small live bank. The
/// invariant is "typed error or valid answer", never a crash or hang.
void ExerciseHostileQuery(const std::string& text, PlanCache* cache,
                          const SketchBank& bank) {
  const ParseResult parsed = ParseExpression(text);
  if (!parsed.ok()) {
    EXPECT_NE(parsed.code, ParseErrorCode::kNone) << text;
    EXPECT_FALSE(parsed.error.empty());
    return;
  }
  const CanonicalPlan plan = Canonicalize(*parsed.expression);
  EXPECT_TRUE(plan.ok());
  const PlanCache::Result result = cache->Query(*parsed.expression, bank);
  if (!result.ok) {
    EXPECT_FALSE(result.error.empty()) << text;
  }
}

TEST(ProtocolFuzzTest, HostileQueryPayloadsNeverCrashThePlanner) {
  SketchParams params;
  params.levels = 16;
  params.num_second_level = 8;
  SketchBank bank(SketchFamily(params, 8, 99));
  bank.AddStream("A");
  bank.AddStream("B");
  for (uint64_t e = 1; e <= 64; ++e) bank.Apply("A", e, 1);

  PlanCache cache(PlanCache::Options{});
  std::vector<std::string> corpus = {
      "", "   ", "\t\n", "(", ")", "((((", "))))", "()",
      "A &", "& A", "A | | B", "A - - B", "A B", "A $ B", "A\x01(",
      std::string(1, '\0'), std::string(3, '\xff'),
      "A & " + std::string(5000, 'x'),  // Pathologically long name.
      std::string(100000, '('),         // Unterminated deep nesting.
  };
  // Balanced but beyond the recursion cap: must be a typed kTooDeep, not
  // a stack overflow.
  std::string deep(100000, '(');
  deep += "A";
  deep.append(100000, ')');
  corpus.push_back(deep);
  for (const std::string& text : corpus) {
    ExerciseHostileQuery(text, &cache, bank);
  }
  EXPECT_EQ(ParseExpression(deep).code, ParseErrorCode::kTooDeep);

  // Random printable soup biased toward grammar characters, so a fair
  // fraction parses and exercises the canonicalizer too.
  Xoshiro256StarStar rng(0xFACADE);
  const std::string alphabet = "AB()|&-  ";
  for (int round = 0; round < 500; ++round) {
    std::string soup(rng.NextBelow(40), ' ');
    for (char& c : soup) {
      c = rng.NextBelow(4) == 0
              ? static_cast<char>(rng.Next() & 0xff)
              : alphabet[rng.NextBelow(alphabet.size())];
    }
    ExerciseHostileQuery(soup, &cache, bank);
  }
}

// ---------------------------------------------------------------------------
// Hello: one layout, carrying the backend configuration. Its exact bytes
// and the refusal of other versions are pinned in golden_bytes_test.cc.

TEST(HelloCodecTest, BackendConfigUpgradesToVersion2AndRoundTrips) {
  HelloInfo mine;
  mine.params.levels = 16;
  mine.params.num_second_level = 32;
  mine.copies = 64;
  mine.seed = 7;
  mine.backend = static_cast<uint8_t>(SketchBackendId::kThetaKmv);
  mine.backend_size = 8192;
  for (const bool response : {false, true}) {
    const std::string payload = EncodeHello(mine, response);
    ASSERT_GT(payload.size(), 4u);
    EXPECT_EQ(static_cast<uint8_t>(payload[4]), kHelloVersion);
    HelloInfo decoded;
    ASSERT_TRUE(DecodeHello(payload, response, &decoded));
    EXPECT_EQ(decoded.backend, mine.backend);
    EXPECT_EQ(decoded.backend_size, mine.backend_size);
    EXPECT_TRUE(decoded.ConfigMatches(mine));
    HelloInfo defaults = mine;
    defaults.backend = 0;
    defaults.backend_size = 4096;
    EXPECT_FALSE(decoded.ConfigMatches(defaults));
  }
}

TEST(HelloCodecTest, RejectsHostileBackendFieldsAndEveryTruncation) {
  HelloInfo mine;
  mine.params.levels = 32;
  mine.params.num_second_level = 32;
  mine.copies = 128;
  mine.seed = 42;
  mine.backend = static_cast<uint8_t>(SketchBackendId::kSetSketch);
  mine.backend_size = 1024;
  const std::string payload = EncodeHello(mine, /*response=*/false);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    HelloInfo decoded;
    EXPECT_FALSE(
        DecodeHello(payload.substr(0, cut), /*response=*/false, &decoded))
        << "cut " << cut;
  }

  // Unknown backend ids and out-of-range sizes are refused before any
  // narrowing — a hostile peer cannot plant an unconstructible config.
  const auto craft = [&](uint64_t backend, uint64_t size) {
    std::string bytes;
    const uint32_t magic = kHelloRequestMagic;
    bytes.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
    bytes.push_back(static_cast<char>(kHelloVersion));
    bytes.push_back('\0');
    AppendVarint(&bytes, 32);
    AppendVarint(&bytes, 32);
    AppendVarint(&bytes, 0);
    AppendVarint(&bytes, 0);
    AppendVarint(&bytes, 128);
    AppendVarint(&bytes, 42);
    AppendVarint(&bytes, backend);
    AppendVarint(&bytes, size);
    return bytes;
  };
  HelloInfo decoded;
  EXPECT_FALSE(DecodeHello(craft(9, 4096), false, &decoded));
  EXPECT_FALSE(DecodeHello(craft(1, kMinBackendSize - 1), false, &decoded));
  EXPECT_FALSE(
      DecodeHello(craft(1, uint64_t{kMaxBackendSize} + 1), false, &decoded));
  EXPECT_TRUE(DecodeHello(craft(1, 4096), false, &decoded));
}

// ---------------------------------------------------------------------------
// PUSH backend tags: one byte after every stream name.

TEST(ProtocolFuzzTest, PushUpdatesTagsRoundTripAndDefaultWhenAbsent) {
  Xoshiro256StarStar rng(0x7A65);
  for (int round = 0; round < 100; ++round) {
    UpdateBatch batch = SampleBatch(&rng);
    for (size_t i = 0; i < batch.stream_names.size(); ++i) {
      batch.stream_backends.push_back(
          static_cast<uint8_t>(rng.NextBelow(3)));
    }
    const std::string payload = EncodePushUpdates(batch);
    UpdateBatchView decoded;
    std::string error;
    ASSERT_TRUE(DecodePushUpdates(payload, &decoded, &error)) << error;
    ASSERT_EQ(decoded.stream_backends.size(), batch.stream_names.size());
    EXPECT_EQ(decoded.stream_backends, batch.stream_backends);

    // An empty tag vector encodes as "no preference" for every stream:
    // the same bytes as an explicit all-zero vector.
    UpdateBatch untagged = batch;
    untagged.stream_backends.assign(batch.stream_names.size(), 0);
    UpdateBatch bare = batch;
    bare.stream_backends.clear();
    EXPECT_EQ(EncodePushUpdates(untagged), EncodePushUpdates(bare));
    const std::string bare_payload = EncodePushUpdates(bare);
    UpdateBatchView bare_decoded;
    ASSERT_TRUE(DecodePushUpdates(bare_payload, &bare_decoded, &error))
        << error;
    EXPECT_EQ(bare_decoded.stream_backends,
              std::vector<uint8_t>(batch.stream_names.size(), 0));
  }
}

// ---------------------------------------------------------------------------
// Alternative-backend stream summaries (distributed/summary_codec.h).

TEST(SummaryCodecFuzzTest, TaggedSummariesRoundTripAcrossBackends) {
  Xoshiro256StarStar rng(0x5C5C);
  const BackendOptions options{512, 42};
  SketchParams params;
  params.levels = 16;
  params.num_second_level = 8;
  // Banks whose backend options are `options` and a foreign seed.
  SketchBank home(SketchFamily(params, 1, 42), 512);
  SketchBank foreign(SketchFamily(params, 1, 43), 512);
  for (const SketchBackendId backend :
       {SketchBackendId::kThetaKmv, SketchBackendId::kSetSketch}) {
    for (int round = 0; round < 25; ++round) {
      std::unique_ptr<DistinctSketch> sketch =
          CreateDistinctSketch(backend, options);
      ASSERT_NE(sketch, nullptr);
      const size_t items = rng.NextBelow(2000);
      for (size_t i = 0; i < items; ++i) {
        sketch->Update(rng.Next(), rng.NextBelow(2) == 0 ? 1 : -1);
      }
      StreamSummary summary;
      summary.backend = static_cast<uint8_t>(backend);
      summary.backend_sketch =
          std::shared_ptr<const DistinctSketch>(sketch->Clone());
      std::string encoded;
      EncodeStreamSummary(summary, &encoded);
      // The first byte is the backend id: the sketch's own tagged
      // encoding starts with it, so nothing is written twice.
      ASSERT_FALSE(encoded.empty());
      EXPECT_EQ(static_cast<uint8_t>(encoded[0]), summary.backend);

      size_t offset = 0;
      StreamSummary decoded;
      std::string error;
      ASSERT_TRUE(DecodeStreamSummary(encoded, &offset, &home, nullptr,
                                      &decoded, &error))
          << error;
      EXPECT_EQ(offset, encoded.size());
      ASSERT_EQ(decoded.backend, summary.backend);
      ASSERT_NE(decoded.backend_sketch, nullptr);
      // Decode must be lossless: re-encoding reproduces the exact bytes
      // (theta's Equals is admission-history-dependent, so byte identity
      // is the stronger and backend-agnostic check).
      std::string re_encoded;
      EncodeStreamSummary(decoded, &re_encoded);
      EXPECT_EQ(re_encoded, encoded);
      EXPECT_TRUE(decoded.backend_sketch->Equals(*summary.backend_sketch));

      // Foreign backend options are refused like foreign stored coins.
      offset = 0;
      StreamSummary refused;
      EXPECT_FALSE(DecodeStreamSummary(encoded, &offset, &foreign, nullptr,
                                       &refused, &error));
      EXPECT_NE(error.find("foreign backend configuration"),
                std::string::npos);

      // Every truncation fails cleanly (the layout is self-delimiting).
      for (size_t cut = 0; cut < encoded.size(); cut += 1 + cut / 16) {
        offset = 0;
        StreamSummary trunc;
        EXPECT_FALSE(DecodeStreamSummary(encoded.substr(0, cut), &offset,
                                         &home, nullptr, &trunc, &error));
      }
    }
  }
}

TEST(SummaryCodecFuzzTest, TaggedSummarySurvivesRandomByteSoup) {
  Xoshiro256StarStar rng(0x50C5);
  SketchParams params;
  params.levels = 16;
  params.num_second_level = 8;
  const SketchBank receiver(SketchFamily(params, 1, 42), 512);
  for (int round = 0; round < 1000; ++round) {
    // Half the soup leads with backend 0 (the copy-vector branch), half
    // with a random byte (the tagged-sketch branch and unknown ids).
    std::string data(
        1, static_cast<char>(round % 2 == 0 ? 0 : rng.Next() & 0xff));
    const size_t len = rng.NextBelow(256);
    for (size_t i = 0; i < len; ++i) {
      data.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    size_t offset = 0;
    StreamSummary decoded;
    std::string error;
    if (!DecodeStreamSummary(data, &offset, nullptr, nullptr, &decoded,
                             &error)) {
      EXPECT_FALSE(error.empty());
    } else {
      EXPECT_LE(offset, data.size());
    }
    // A receiver's decode refuses, or accepts only its own shape.
    offset = 0;
    if (DecodeStreamSummary(data, &offset, &receiver, nullptr, &decoded,
                            &error)) {
      EXPECT_LE(offset, data.size());
      if (decoded.backend == 0) {
        EXPECT_EQ(decoded.sketches.size(), 1u);
      } else {
        EXPECT_TRUE(decoded.backend_sketch->options() ==
                    receiver.backend_options());
      }
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
}

}  // namespace
}  // namespace setsketch
