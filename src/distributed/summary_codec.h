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
// The codec only checks well-formedness; whoever installs a decoded
// summary checks it against its own copies, coins and backend options
// (SketchBank::CanInstallSummary).

#ifndef SETSKETCH_DISTRIBUTED_SUMMARY_CODEC_H_
#define SETSKETCH_DISTRIBUTED_SUMMARY_CODEC_H_

#include <cstddef>
#include <string>

#include "core/sketch_bank.h"

namespace setsketch {

/// Stream names and site identifiers on the wire (site summaries and the
/// server protocol) are bounded to keep hostile payloads cheap.
inline constexpr size_t kMaxStreamNameBytes = 256;
inline constexpr size_t kMaxSiteIdBytes = 256;

/// Appends `summary`.
void EncodeStreamSummary(const StreamSummary& summary, std::string* out);

/// Appends stream `name` of `bank` (must exist) in the same layout,
/// without copying the stream first.
void EncodeStreamSummary(const SketchBank& bank, const std::string& name,
                         std::string* out);

/// Decodes one summary at data[*offset], advancing *offset past it. On
/// failure returns false with *error describing the problem and leaves
/// *offset unspecified.
bool DecodeStreamSummary(const std::string& data, size_t* offset,
                         StreamSummary* out, std::string* error);

}  // namespace setsketch

#endif  // SETSKETCH_DISTRIBUTED_SUMMARY_CODEC_H_
