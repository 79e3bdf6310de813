// The one byte layout of a stream's synopsis (a StreamSummary,
// core/sketch_bank.h), wherever it travels or rests: PUSH_SUMMARY site
// summaries, SUMMARY_RESULT pulls, PUSH_REPAIR installs, engine snapshots
// (and with them WAL checkpoints and sketchtool bank files). Every
// producer and consumer agrees on the bytes by construction — the
// stored-coins model only works when they do.
//
// Layout: the first byte is the SketchBackendId.
//
//   0      u32 copy count (little-endian), then each of the r copies in
//          its self-delimiting compact encoding
//          (TwoLevelHashSketch::SerializeCompactTo)
//   other  the DistinctSketch's own tagged encoding
//          (DistinctSketch::SerializeTo), which begins with that byte
//
// A receiver decodes against its own bank: the copy count, every copy's
// params and seed, and a backend synopsis's size and seed must be the
// receiver's before anything is allocated, so a few hostile bytes cannot
// declare a gigabyte-sized synopsis.

#ifndef SETSKETCH_DISTRIBUTED_SUMMARY_CODEC_H_
#define SETSKETCH_DISTRIBUTED_SUMMARY_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/sketch_bank.h"

namespace setsketch {

/// Stream names and site identifiers on the wire (site summaries and the
/// server protocol) are bounded to keep hostile payloads cheap.
inline constexpr size_t kMaxStreamNameBytes = 256;
inline constexpr size_t kMaxSiteIdBytes = 256;

/// The counter budget of one decode of a file anyone may hand the
/// program: a sketchtool bank file, or a snapshot given to
/// StreamEngine::LoadSnapshot by default. A two-level copy holds levels x
/// 2s int64 counters however few bytes encode it (one zero run), so
/// per-field bounds alone let 1 MB of file declare 4 GiB. 128 MiB is 42
/// streams at the default shape (128 copies, levels 48, s 32) and over
/// ten times every bank the tests, benches and examples write.
inline constexpr uint64_t kMaxDecodedCounterBytes = uint64_t{128} << 20;

/// Appends `summary`.
void EncodeStreamSummary(const StreamSummary& summary, std::string* out);

/// Appends stream `name` of `bank` (must exist) in the same layout,
/// without copying the stream first.
void EncodeStreamSummary(const SketchBank& bank, const std::string& name,
                         std::string* out);

/// Decodes one summary at data[*offset] for `receiver`, the bank it will
/// be installed in, advancing *offset past it. Refuses a summary whose
/// copy count, copy coins or backend options are not receiver's (the
/// decoded copies share receiver's seeds). With a null receiver the
/// declared shape sizes the allocation: only for callers that inspect
/// rather than install (tests, benchmarks). A non-null `counter_budget`
/// (which needs a receiver) is the counter bytes the caller will still
/// build for this input: a two-level summary's copies x levels x 2s x 8
/// bytes are charged to it before any copy is built, and a summary that
/// does not fit is refused. On failure returns false with *error
/// describing the problem and leaves *offset unspecified.
bool DecodeStreamSummary(const std::string& data, size_t* offset,
                         const SketchBank* receiver, uint64_t* counter_budget,
                         StreamSummary* out, std::string* error);

}  // namespace setsketch

#endif  // SETSKETCH_DISTRIBUTED_SUMMARY_CODEC_H_
