// Tests for the ingest path (src/server/epoll_backend,
// src/server/ingest_arena, src/util/varint_bulk and the zero-copy
// protocol decode): the bulk varint decoder must agree byte-for-byte
// with ReadVarint on random and hostile input; the zero-copy
// PUSH_UPDATES decode must agree, down to the error strings, with a
// scalar field-by-field reference of the wire layout; ScanFrame over an arena
// fed in arbitrary read chunks must see exactly the frames and errors of
// a whole-buffer scan; and a served workload must leave a bank equal to
// in-process SketchBank::ApplyBatch of the same batches, WAL records
// byte-equal to the pushed payloads, and a WAL that replays to the same
// bank. A TSan-targeted suite (IngestFastPathTsan, see tools/check.sh)
// stresses concurrent push/query/shutdown through the epoll loop.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/sketch_bank.h"
#include "core/two_level_hash_sketch.h"
#include "frame_reader.h"
#include "hash/prng.h"
#include "server/ingest_arena.h"
#include "server/protocol.h"
#include "server/sketch_client.h"
#include "server/sketch_server.h"
#include "server/wal.h"
#include "util/varint.h"
#include "util/varint_bulk.h"

namespace setsketch {
namespace {

constexpr uint64_t kMasterSeed = 20030609;

SketchServer::Options ServerOptions() {
  SketchServer::Options options;
  options.params.levels = 24;
  options.params.num_second_level = 16;
  options.copies = 16;
  options.seed = kMasterSeed;
  options.shards = 2;
  options.queue_capacity = 64;
  options.witness.pool_all_levels = true;
  return options;
}

// --- Bulk varint decode vs ReadVarint ----------------------------------

/// Reference decode of up to `count` varints via ReadVarint; returns the
/// decoded values and sets *consumed like DecodeVarintRun does.
std::vector<uint64_t> ReferenceRun(const std::string& bytes, size_t count,
                                   size_t* consumed) {
  std::vector<uint64_t> values;
  size_t offset = 0;
  while (values.size() < count) {
    uint64_t value = 0;
    size_t probe = offset;
    if (!ReadVarint(bytes, &probe, &value)) break;
    values.push_back(value);
    offset = probe;
  }
  *consumed = offset;
  return values;
}

void ExpectRunMatchesReference(const std::string& bytes, size_t count) {
  size_t want_used = 0;
  const std::vector<uint64_t> want = ReferenceRun(bytes, count, &want_used);
  std::vector<uint64_t> got(count, 0);
  size_t got_used = 0;
  const size_t n = DecodeVarintRun(
      reinterpret_cast<const uint8_t*>(bytes.data()),
      reinterpret_cast<const uint8_t*>(bytes.data()) + bytes.size(), count,
      got.data(), &got_used);
  ASSERT_EQ(n, want.size()) << "run length mismatch on " << bytes.size()
                            << " bytes";
  EXPECT_EQ(got_used, want_used);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], want[i]) << "value " << i << " differs";
  }
}

TEST(VarintBulkTest, SingleDecodeAgreesWithReadVarintOnRandomBytes) {
  Xoshiro256StarStar rng(kMasterSeed);
  for (int round = 0; round < 20000; ++round) {
    std::string bytes;
    const size_t len = rng.NextBelow(14);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    uint64_t want_value = 0;
    size_t want_offset = 0;
    const bool want_ok = ReadVarint(bytes, &want_offset, &want_value);
    uint64_t got_value = 0;
    const size_t got_len = DecodeVarint(
        reinterpret_cast<const uint8_t*>(bytes.data()),
        reinterpret_cast<const uint8_t*>(bytes.data()) + bytes.size(),
        &got_value);
    ASSERT_EQ(got_len != 0, want_ok) << "round " << round;
    if (want_ok) {
      EXPECT_EQ(got_len, want_offset);
      EXPECT_EQ(got_value, want_value);
    }
  }
}

TEST(VarintBulkTest, RunDecodeAgreesOnRandomValueStreams) {
  Xoshiro256StarStar rng(kMasterSeed + 1);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes;
    const size_t count = rng.NextBelow(200);
    for (size_t i = 0; i < count; ++i) {
      // Mix widths: small ids, medium counts, full 64-bit elements.
      uint64_t value = rng.Next();
      const int width = static_cast<int>(rng.NextBelow(4));
      if (width == 0) value &= 0x7F;
      if (width == 1) value &= 0xFFFF;
      if (width == 2) value &= 0xFFFFFFFFull;
      char tmp[kMaxVarintBytes];
      bytes.append(tmp, static_cast<size_t>(WriteVarint(tmp, value) - tmp));
    }
    ExpectRunMatchesReference(bytes, count);
    // Also ask for more than is present: the run must stop cleanly.
    ExpectRunMatchesReference(bytes, count + 1 + rng.NextBelow(4));
  }
}

TEST(VarintBulkTest, RunDecodeAgreesOnHostileTails) {
  const std::vector<std::string> hostile = {
      std::string(9, '\x80'),                    // truncated 9-byte prefix
      std::string(10, '\x80'),                   // 10th byte continues
      std::string(11, '\x80'),                   // overlong
      std::string(10, '\x80') + '\x01',          // 11-byte varint
      "\x80",                                    // lone continuation
      std::string(9, '\xFF'),                    // truncated, bits set
      std::string(9, '\xFF') + '\x7F',           // legal 10-byte varint
      std::string(9, '\xFF') + '\x01',           // legal, top bit only
      std::string(9, '\xFF') + '\xFF' + '\x00',  // continues past 10
  };
  Xoshiro256StarStar rng(kMasterSeed + 2);
  for (int round = 0; round < 4000; ++round) {
    // Valid prefix, one hostile tail, then (sometimes) valid suffix: the
    // run must stop exactly where ReadVarint stops, never resync.
    std::string bytes;
    size_t valid = rng.NextBelow(40);
    for (size_t i = 0; i < valid; ++i) {
      char tmp[kMaxVarintBytes];
      uint64_t value = rng.Next() >> (8 * rng.NextBelow(8));
      bytes.append(tmp, static_cast<size_t>(WriteVarint(tmp, value) - tmp));
    }
    bytes += hostile[rng.NextBelow(hostile.size())];
    if (rng.NextBelow(2) == 0) {
      char tmp[kMaxVarintBytes];
      bytes.append(tmp, static_cast<size_t>(WriteVarint(tmp, 5) - tmp));
    }
    ExpectRunMatchesReference(bytes, valid + 4);
  }
}

TEST(VarintBulkTest, RunDecodeAgreesOnRandomByteSoup) {
  Xoshiro256StarStar rng(kMasterSeed + 3);
  for (int round = 0; round < 4000; ++round) {
    std::string bytes;
    const size_t len = rng.NextBelow(120);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    ExpectRunMatchesReference(bytes, 1 + rng.NextBelow(64));
  }
}

// --- Zero-copy PUSH_UPDATES decode vs a scalar reference --------------

UpdateBatch SampleBatch(Xoshiro256StarStar* rng) {
  UpdateBatch batch;
  const size_t num_names = 1 + rng->NextBelow(5);
  for (size_t i = 0; i < num_names; ++i) {
    std::string name = "stream-";
    name.push_back(static_cast<char>('a' + i));
    if (rng->NextBelow(8) == 0) name.append(rng->NextBelow(200), 'x');
    batch.stream_names.push_back(std::move(name));
  }
  const size_t num_updates = rng->NextBelow(300);
  for (size_t i = 0; i < num_updates; ++i) {
    batch.updates.push_back(
        Update{static_cast<StreamId>(rng->NextBelow(num_names)),
               rng->Next() >> (8 * rng->NextBelow(8)),
               rng->NextBelow(2) == 0 ? int64_t{3} : int64_t{-1}});
  }
  if (rng->NextBelow(2) == 0) {
    batch.site_id = "site-";
    batch.site_id.append(1 + rng->NextBelow(kMaxSiteIdBytes - 5), 's');
    batch.sequence = rng->Next();
  }
  // A third of the corpus carries explicit backend tags; the rest encodes
  // an empty tag vector as all zeros.
  if (rng->NextBelow(3) == 0) {
    for (size_t i = 0; i < num_names; ++i) {
      batch.stream_backends.push_back(
          static_cast<uint8_t>(rng->NextBelow(3)));
    }
  }
  return batch;
}

/// Scalar reference for DecodePushUpdates: one ReadVarint per field,
/// owned strings, and each check and error string spelled out in wire
/// order — what the view decoder's borrowed names and bulk triple runs
/// must reproduce exactly.
bool ReferenceDecode(std::string_view payload, UpdateBatch* out,
                     std::string* error) {
  const auto fail = [error](std::string message) {
    *error = std::move(message);
    return false;
  };
  size_t offset = 0;
  if (!ReadVarintString(payload, &offset, kMaxSiteIdBytes, &out->site_id)) {
    return fail("malformed site id");
  }
  if (!ReadVarint(payload, &offset, &out->sequence)) {
    return fail("truncated sequence number");
  }
  uint64_t num_names = 0;
  if (!ReadVarint(payload, &offset, &num_names)) {
    return fail("truncated stream-name count");
  }
  if (num_names > payload.size() - offset) {
    return fail("stream-name count exceeds payload");
  }
  for (uint64_t i = 0; i < num_names; ++i) {
    std::string name;
    if (!ReadVarintString(payload, &offset, kMaxStreamNameBytes, &name)) {
      return fail("malformed stream name " + std::to_string(i));
    }
    if (name.empty()) return fail("empty stream name");
    if (std::find(out->stream_names.begin(), out->stream_names.end(),
                  name) != out->stream_names.end()) {
      return fail("duplicate stream name '" + name + "' in batch");
    }
    if (offset == payload.size()) {
      return fail("truncated backend tag for stream '" + name + "'");
    }
    const uint8_t tag = static_cast<uint8_t>(payload[offset++]);
    if (!KnownSketchBackend(tag)) {
      return fail("unknown backend tag for stream '" + name + "'");
    }
    out->stream_names.push_back(std::move(name));
    out->stream_backends.push_back(tag);
  }
  uint64_t num_updates = 0;
  if (!ReadVarint(payload, &offset, &num_updates)) {
    return fail("truncated update count");
  }
  if (num_updates > (payload.size() - offset + 2) / 3) {
    return fail("update count exceeds payload");
  }
  for (uint64_t i = 0; i < num_updates; ++i) {
    uint64_t stream = 0, element = 0, zigzag_delta = 0;
    if (!ReadVarint(payload, &offset, &stream) ||
        !ReadVarint(payload, &offset, &element) ||
        !ReadVarint(payload, &offset, &zigzag_delta)) {
      return fail("truncated update " + std::to_string(i));
    }
    if (stream >= num_names) {
      return fail("update " + std::to_string(i) +
                  " addresses undeclared stream index " +
                  std::to_string(stream));
    }
    out->updates.push_back(Update{static_cast<StreamId>(stream), element,
                                  ZigZagDecode(zigzag_delta)});
  }
  if (offset != payload.size()) {
    return fail("trailing bytes after update batch");
  }
  return true;
}

/// The view decoder must agree with the reference on ok/error-string;
/// on success it must read back the exact same batch.
void ExpectDecodersAgree(const std::string& payload) {
  UpdateBatch legacy;
  std::string legacy_error;
  const bool legacy_ok = ReferenceDecode(payload, &legacy, &legacy_error);
  UpdateBatchView view;
  std::string view_error;
  const bool view_ok = DecodePushUpdates(payload, &view, &view_error);
  ASSERT_EQ(view_ok, legacy_ok) << "reference: " << legacy_error
                                << " view: " << view_error;
  if (!legacy_ok) {
    EXPECT_EQ(view_error, legacy_error);
    return;
  }
  EXPECT_EQ(view.site_id, legacy.site_id);
  EXPECT_EQ(view.sequence, legacy.sequence);
  ASSERT_EQ(view.stream_names.size(), legacy.stream_names.size());
  for (size_t i = 0; i < view.stream_names.size(); ++i) {
    EXPECT_EQ(view.stream_names[i], legacy.stream_names[i]);
  }
  ASSERT_EQ(view.updates.size(), legacy.updates.size());
  for (size_t i = 0; i < view.updates.size(); ++i) {
    EXPECT_EQ(view.updates[i].stream, legacy.updates[i].stream);
    EXPECT_EQ(view.updates[i].element, legacy.updates[i].element);
    EXPECT_EQ(view.updates[i].delta, legacy.updates[i].delta);
  }
  // One tag per stream (0 = no preference).
  EXPECT_EQ(view.stream_backends, legacy.stream_backends);
  EXPECT_EQ(legacy.stream_backends.size(), legacy.stream_names.size());
}

TEST(ZeroCopyDecodeTest, AgreesWithLegacyOnRandomBatches) {
  Xoshiro256StarStar rng(kMasterSeed + 10);
  for (int round = 0; round < 400; ++round) {
    const UpdateBatch batch = SampleBatch(&rng);
    ExpectDecodersAgree(
        EncodePushUpdates(batch, batch.site_id, batch.sequence));
  }
}

TEST(ZeroCopyDecodeTest, AgreesWithLegacyOnEveryTruncation) {
  Xoshiro256StarStar rng(kMasterSeed + 11);
  const UpdateBatch batch = SampleBatch(&rng);
  const std::string payload =
      EncodePushUpdates(batch, batch.site_id, batch.sequence);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    ExpectDecodersAgree(payload.substr(0, cut));
  }
}

TEST(ZeroCopyDecodeTest, AgreesWithLegacyOnMutatedPayloads) {
  Xoshiro256StarStar rng(kMasterSeed + 12);
  for (int round = 0; round < 2000; ++round) {
    const UpdateBatch batch = SampleBatch(&rng);
    std::string payload =
        EncodePushUpdates(batch, batch.site_id, batch.sequence);
    const size_t flips = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < flips && !payload.empty(); ++i) {
      payload[rng.NextBelow(payload.size())] ^=
          static_cast<char>(1u << rng.NextBelow(8));
    }
    ExpectDecodersAgree(payload);
  }
}

TEST(ZeroCopyDecodeTest, AgreesWithLegacyOnRandomPayloadSoup) {
  Xoshiro256StarStar rng(kMasterSeed + 13);
  for (int round = 0; round < 4000; ++round) {
    std::string payload;
    const size_t len = rng.NextBelow(160);
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    ExpectDecodersAgree(payload);
  }
}

// --- ScanFrame over an arena under arbitrary chunking -------------------

TEST(ZeroCopyDecodeTest, ScanFrameOverArenaAgreesWithWholeBufferScan) {
  Xoshiro256StarStar rng(kMasterSeed + 14);
  for (int round = 0; round < 300; ++round) {
    // A stream of small frames, occasionally ending in corruption.
    std::string wire;
    std::vector<std::string> sent_payloads;
    const size_t num_frames = rng.NextBelow(8);
    for (size_t i = 0; i < num_frames; ++i) {
      std::string payload;
      const size_t len = rng.NextBelow(40);
      for (size_t j = 0; j < len; ++j) {
        payload.push_back(static_cast<char>(rng.NextBelow(256)));
      }
      wire += EncodeFrame(Opcode::kPing, payload);
      sent_payloads.push_back(std::move(payload));
    }
    const bool corrupt = rng.NextBelow(2) == 0;
    if (corrupt) {
      std::string tail = EncodeFrame(Opcode::kPing, "x");
      tail[rng.NextBelow(8)] ^= static_cast<char>(0xFF);
      wire += tail;
    }

    // Reference: ScanFrame over the whole wire at once.
    std::vector<std::string> want_payloads;
    bool want_error = false;
    std::string want_message;
    for (size_t parsed = 0; parsed < wire.size();) {
      FrameView frame;
      size_t frame_bytes = 0;
      WireError wire_error;
      std::string message;
      const FrameScanStatus status =
          ScanFrame(std::string_view(wire).substr(parsed), &frame,
                    &frame_bytes, &wire_error, &message);
      if (status == FrameScanStatus::kFrame) {
        want_payloads.push_back(std::string(frame.payload));
        parsed += frame_bytes;
      } else {
        want_error = status == FrameScanStatus::kError;
        want_message = message;
        break;
      }
    }
    // Every intact frame scans; a corrupted tail either errors or (an
    // opcode flip) still scans as a frame.
    ASSERT_GE(want_payloads.size(), sent_payloads.size()) << "round " << round;
    EXPECT_TRUE(std::equal(sent_payloads.begin(), sent_payloads.end(),
                           want_payloads.begin()));
    EXPECT_TRUE(corrupt || !want_error) << "round " << round;

    // The same wire fed to an arena in random chunks, scanned after each.
    FrameReader reader;
    std::vector<std::string> got_payloads;
    bool got_error = false;
    size_t offset = 0;
    while (offset < wire.size() && !got_error) {
      const size_t chunk =
          1 + rng.NextBelow(std::min<size_t>(wire.size() - offset, 61));
      reader.Feed(std::string_view(wire).substr(offset, chunk));
      offset += chunk;
      Frame frame;
      FrameScanStatus status;
      while ((status = reader.Next(&frame)) == FrameScanStatus::kFrame) {
        got_payloads.push_back(frame.payload);
      }
      got_error = status == FrameScanStatus::kError;
    }

    ASSERT_EQ(got_payloads, want_payloads) << "round " << round;
    EXPECT_EQ(got_error, want_error);
    EXPECT_EQ(got_error ? reader.error_message() : std::string(),
              want_message);
  }
}

// --- IngestArena -------------------------------------------------------

TEST(IngestArenaTest, GrowsCompactsAndTracksHighWatermark) {
  IngestArena arena;
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.Unparsed().size(), 0u);

  char* w = arena.WritePtr(100);
  std::memcpy(w, std::string(100, 'a').data(), 100);
  arena.CommitRead(100);
  EXPECT_EQ(arena.Unparsed(), std::string(100, 'a'));
  EXPECT_EQ(arena.high_watermark(), 100u);

  arena.Consume(40);
  EXPECT_EQ(arena.Unparsed(), std::string(60, 'a'));

  // Growth preserves the unparsed suffix (compaction moved it down).
  const size_t big = 1u << 20;
  w = arena.WritePtr(big);
  std::memcpy(w, std::string(big, 'b').data(), big);
  arena.CommitRead(big);
  EXPECT_GE(arena.capacity(), big + 60);
  const std::string_view unparsed = arena.Unparsed();
  ASSERT_EQ(unparsed.size(), 60 + big);
  EXPECT_EQ(unparsed.substr(0, 60), std::string(60, 'a'));
  EXPECT_EQ(unparsed.substr(60), std::string(big, 'b'));
  EXPECT_EQ(arena.high_watermark(), big + 60);

  // Fully drained: offsets reset, shrink releases an oversized buffer.
  arena.Consume(60 + big);
  EXPECT_EQ(arena.Unparsed().size(), 0u);
  arena.MaybeShrink(1024);
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.high_watermark(), big + 60);

  // A drained arena under the idle threshold keeps its buffer.
  w = arena.WritePtr(64);
  std::memcpy(w, "xy", 2);
  arena.CommitRead(2);
  arena.Consume(2);
  const size_t small_capacity = arena.capacity();
  EXPECT_GT(small_capacity, 0u);
  arena.MaybeShrink(1u << 20);
  EXPECT_EQ(arena.capacity(), small_capacity);
}

// --- Epoll backend end to end ------------------------------------------

TEST(EpollIngestTest, ServesPushQueryStatsOverEpollBackend) {
  SketchServer server(ServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  auto client = SketchClient::Connect("127.0.0.1", server.port(), &error);
  ASSERT_NE(client, nullptr) << error;

  Xoshiro256StarStar rng(kMasterSeed + 20);
  UpdateBatch batch;
  batch.stream_names = {"A", "B"};
  for (int i = 0; i < 5000; ++i) {
    batch.updates.push_back(Update{static_cast<StreamId>(i % 2),
                                   rng.Next() % 4096,
                                   i % 7 == 0 ? int64_t{-1} : int64_t{2}});
  }
  const SketchClient::Status push = client->PushUpdatesWithRetry(batch);
  ASSERT_TRUE(push.ok) << push.error;
  EXPECT_EQ(push.accepted, batch.updates.size());

  const QueryResultInfo answer = client->Query("A | B");
  EXPECT_TRUE(answer.ok) << answer.error;
  EXPECT_GT(answer.estimate, 0.0);

  std::string stats_text;
  ASSERT_TRUE(client->Stats(&stats_text).ok);
  EXPECT_NE(stats_text.find("ingest_io_threads 1"), std::string::npos)
      << stats_text;

  ASSERT_TRUE(client->Shutdown().ok);
  server.Wait();
  const SketchServer::StatsSnapshot stats = server.stats();
  EXPECT_GT(stats.ingest_bytes_read, 0u);
  EXPECT_GT(stats.ingest_read_calls, 0u);
  EXPECT_GT(stats.ingest_max_frames_per_read, 0u);
  EXPECT_GT(stats.ingest_arena_hwm_bytes, 0u);
  EXPECT_EQ(stats.updates_applied, batch.updates.size());
}

/// Each stream's sketches serialized back to back, in `names` order.
std::vector<std::string> SerializeStreams(
    const SketchBank& bank, const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (const std::string& name : names) {
    std::string bytes;
    for (const TwoLevelHashSketch& sketch : bank.Sketches(name)) {
      sketch.SerializeTo(&bytes);
    }
    out.push_back(std::move(bytes));
  }
  return out;
}

TEST(EpollIngestTest, ServedBankWalAndReplayMatchInProcessApply) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "setsketch_served_identity";
  std::filesystem::remove_all(base);
  const std::filesystem::path live = base / "live";
  const std::filesystem::path image = base / "image";
  SketchServer::Options options = ServerOptions();
  options.wal_dir = live.string();
  options.wal_fsync = false;
  const std::string site = "identity-site";
  const std::vector<std::string> names = {"A", "B", "C"};

  // The in-process reference applies exactly the batches the client got
  // ACKed; `pushed` keeps each batch's expected WAL payload by sequence.
  SketchBank reference(
      SketchFamily(options.params, options.copies, options.seed));
  for (const std::string& name : names) reference.AddStream(name);
  std::map<uint64_t, std::string> pushed;
  std::vector<std::string> served;
  {
    SketchServer server(options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    SketchClient::Options client_options;
    client_options.port = server.port();
    client_options.site_id = site;
    auto client = SketchClient::Connect(client_options, &error);
    ASSERT_NE(client, nullptr) << error;

    Xoshiro256StarStar rng(kMasterSeed + 21);
    for (int frame = 0; frame < 40; ++frame) {
      UpdateBatch batch;
      batch.stream_names = names;
      const size_t count = 1 + rng.NextBelow(700);
      for (size_t i = 0; i < count; ++i) {
        batch.updates.push_back(
            Update{static_cast<StreamId>(rng.NextBelow(3)),
                   rng.Next() % 9999,
                   rng.NextBelow(5) == 0 ? int64_t{-1} : int64_t{1}});
      }
      const uint64_t sequence = client->next_sequence();
      const SketchClient::Status status = client->PushUpdatesWithRetry(batch);
      ASSERT_TRUE(status.ok) << status.error;
      pushed[sequence] = EncodePushUpdates(batch, site, sequence);
      reference.ApplyBatch(names, batch.updates);
    }
    // Every ACKed record is in the live WAL now; this copy is the disk a
    // crash would leave (no checkpoint yet), so restarting on it replays
    // the whole tail.
    std::filesystem::copy(live, image,
                          std::filesystem::copy_options::recursive);
    ASSERT_TRUE(client->Shutdown().ok);
    server.Wait();
    served = SerializeStreams(server.bank(), names);
  }

  // 1. The served bank is the in-process bank, sketch for sketch.
  const std::vector<std::string> want = SerializeStreams(reference, names);
  ASSERT_EQ(served.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(served[i], want[i]) << "stream " << names[i];
  }

  // 2. Each WAL record holds the pushed payload byte for byte.
  std::map<uint64_t, std::string> logged;
  WalReplayStats replay_stats;
  std::string error;
  ASSERT_TRUE(Wal::Replay(
      image.string(), 0,
      [&](const WalRecord& record) {
        EXPECT_EQ(record.site_id, site);
        logged[record.sequence] = record.payload;
      },
      &replay_stats, &error))
      << error;
  EXPECT_EQ(logged, pushed);

  // 3. A restart on the crash image replays to the same bank.
  options.wal_dir = image.string();
  SketchServer recovered(options);
  ASSERT_TRUE(recovered.Start(&error)) << error;
  ASSERT_EQ(recovered.stats().recovered_batches, pushed.size());
  recovered.Stop();
  const std::vector<std::string> replayed =
      SerializeStreams(recovered.bank(), names);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(replayed[i], want[i]) << "stream " << names[i];
  }
  std::filesystem::remove_all(base);
}

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

std::string RecvFrame(int fd) {
  std::string bytes;
  char tmp[4096];
  while (true) {
    if (bytes.size() >= 12) {
      uint32_t payload_len = 0;
      std::memcpy(&payload_len, bytes.data() + 8, sizeof(payload_len));
      if (bytes.size() >= 12 + payload_len) {
        return bytes.substr(0, 12 + payload_len);
      }
    }
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) return bytes;
    bytes.append(tmp, static_cast<size_t>(n));
  }
}

TEST(EpollIngestTest, ReassemblesFramesTornAcrossReads) {
  SketchServer server(ServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int fd = ConnectTo(server.port());

  UpdateBatch batch;
  batch.stream_names = {"torn"};
  for (int i = 0; i < 100; ++i) {
    batch.updates.push_back(Update{0, static_cast<uint64_t>(i), 1});
  }
  const std::string wire =
      EncodeFrame(Opcode::kPushUpdates, EncodePushUpdates(batch));
  // Dribble the frame a few bytes at a time so the arena sees many
  // partial reads before a complete frame materializes.
  for (size_t offset = 0; offset < wire.size();) {
    const size_t chunk = std::min<size_t>(7, wire.size() - offset);
    ASSERT_EQ(::send(fd, wire.data() + offset, chunk, 0),
              static_cast<ssize_t>(chunk));
    offset += chunk;
  }
  const std::string response = RecvFrame(fd);
  ASSERT_GE(response.size(), 12u);
  EXPECT_EQ(response[5], static_cast<char>(Opcode::kAck));
  ::close(fd);
  server.Stop();
  EXPECT_EQ(server.stats().updates_applied, batch.updates.size());
}

TEST(EpollIngestTest, ErrorBudgetClosesAbusiveConnection) {
  SketchServer::Options options = ServerOptions();
  options.max_connection_errors = 3;
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int fd = ConnectTo(server.port());

  // Valid frames whose payloads are garbage: per-frame recoverable
  // errors that accrue to the connection's budget.
  const std::string bad = EncodeFrame(Opcode::kPushUpdates, "garbage");
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(::send(fd, bad.data(), bad.size(), 0),
              static_cast<ssize_t>(bad.size()));
  }
  // Read until the server closes, then reassemble what it sent: three
  // per-frame errors, then TOO_MANY_ERRORS, then EOF.
  FrameReader reader;
  char tmp[4096];
  while (true) {
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) break;
    reader.Feed(std::string_view(tmp, static_cast<size_t>(n)));
  }
  std::vector<Frame> responses;
  Frame frame;
  while (reader.Next(&frame) == FrameScanStatus::kFrame) {
    responses.push_back(frame);
  }
  ASSERT_EQ(responses.size(), 4u);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].opcode, Opcode::kError) << "frame " << i;
    ErrorInfo info;
    ASSERT_TRUE(DecodeError(responses[i].payload, &info));
    EXPECT_EQ(info.code, i + 1 < responses.size()
                             ? WireError::kBadPayload
                             : WireError::kTooManyErrors);
  }
  ::close(fd);
  server.Stop();
}

TEST(EpollIngestTest, HeaderCorruptionPoisonsStream) {
  SketchServer server(ServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int fd = ConnectTo(server.port());

  std::string bad = EncodeFrame(Opcode::kPing, "");
  bad[0] ^= static_cast<char>(0xFF);  // break the magic
  ASSERT_EQ(::send(fd, bad.data(), bad.size(), 0),
            static_cast<ssize_t>(bad.size()));
  const std::string response = RecvFrame(fd);
  ASSERT_GE(response.size(), 12u);
  EXPECT_EQ(response[5], static_cast<char>(Opcode::kError));
  char tmp[8];
  EXPECT_EQ(::recv(fd, tmp, sizeof(tmp), 0), 0);
  ::close(fd);
  server.Stop();
}

// --- TSan-targeted concurrency stress (see tools/check.sh) -------------

TEST(IngestFastPathTsan, ConcurrentPushQueryShutdownOverEpoll) {
  SketchServer::Options options = ServerOptions();
  options.io_threads = 2;
  SketchServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> pushers;
  std::atomic<uint64_t> pushed{0};
  for (int t = 0; t < 3; ++t) {
    pushers.emplace_back([port, t, &stop, &pushed] {
      std::string connect_error;
      SketchClient::Options client_options;
      client_options.port = port;
      client_options.site_id = "tsan-site-" + std::to_string(t);
      auto client = SketchClient::Connect(client_options, &connect_error);
      if (client == nullptr) return;
      Xoshiro256StarStar rng(kMasterSeed + 30 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        UpdateBatch batch;
        batch.stream_names = {"A", "B"};
        for (int i = 0; i < 128; ++i) {
          batch.updates.push_back(
              Update{static_cast<StreamId>(rng.NextBelow(2)),
                     rng.Next() % 2048, 1});
        }
        const SketchClient::Status status =
            client->PushUpdatesWithRetry(batch);
        if (!status.ok) break;
        pushed += batch.updates.size();
      }
    });
  }
  std::thread querier([port, &stop] {
    std::string connect_error;
    auto client =
        SketchClient::Connect("127.0.0.1", port, &connect_error);
    if (client == nullptr) return;
    while (!stop.load(std::memory_order_relaxed)) {
      client->Query("A & B");
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (std::thread& t : pushers) t.join();
  querier.join();
  server.Stop();
  EXPECT_EQ(server.stats().updates_applied, pushed.load());
}

}  // namespace
}  // namespace setsketch
