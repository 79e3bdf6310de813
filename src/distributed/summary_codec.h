// Shared wire codec for per-stream sketch vectors ("summaries").
//
// Site::EncodeSummary, the coordinator's summary decoder and the cluster
// router's PULL_SUMMARY path all move the same unit across the network: a
// stream's r aligned sketch copies. This header owns that unit's byte
// layout — u32 copy count followed by each sketch's self-delimiting
// encoding — so every producer and consumer agrees on it by construction
// (the stored-coins model only works when the bytes do).
//
// Streams under an alternative sketch backend (DESIGN.md §3.8) move as a
// *tagged* summary instead: u32 magic "SKSM" + u8 backend id + the
// DistinctSketch's self-delimiting encoding. The magic cannot collide
// with a legacy copy count (counts are bounded far below 0x534B534D), so
// DecodeStreamSummary distinguishes the two layouts by peeking one u32 —
// default-backend summaries stay byte-identical to the legacy format.

#ifndef SETSKETCH_DISTRIBUTED_SUMMARY_CODEC_H_
#define SETSKETCH_DISTRIBUTED_SUMMARY_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sketch_backend.h"
#include "core/two_level_hash_sketch.h"

namespace setsketch {

/// Appends a little-endian u32 (the summary framing integer).
void SummaryAppendU32(std::string* out, uint32_t v);

/// Reads a little-endian u32 at *offset; false if truncated.
bool SummaryReadU32(const std::string& data, size_t* offset, uint32_t* v);

/// Appends `sketches` as u32 count + per-sketch self-delimiting encoding
/// (compact varint/run-length form by default; see
/// TwoLevelHashSketch::SerializeCompactTo).
void EncodeSketchVector(const std::vector<TwoLevelHashSketch>& sketches,
                        bool compact, std::string* out);

/// Decodes a sketch vector written by EncodeSketchVector.
///
/// `expected_copies` < 0 accepts any count. `expected_seeds`, when
/// non-null, must hold one seed per copy; each decoded sketch's coins are
/// verified against it (the coordinator's "foreign hash functions" gate).
/// On failure returns false with *error describing the problem and leaves
/// *offset unspecified.
bool DecodeSketchVector(
    const std::string& data, size_t* offset, int expected_copies,
    const std::vector<std::shared_ptr<const SketchSeed>>* expected_seeds,
    std::vector<TwoLevelHashSketch>* out, std::string* error);

/// Magic prefix of a backend-tagged summary ("SKSM"); a legacy summary
/// starts with its u32 copy count, which is always far smaller.
inline constexpr uint32_t kSummaryBackendMagic = 0x534B534D;

/// One stream's summary as moved across the network: the default
/// backend's r-copy sketch vector (backend == 0, backend_sketch null) or
/// a single tagged DistinctSketch synopsis (backend != 0, sketches
/// empty). shared_ptr so a decoded reply entry stays copyable; whoever
/// keeps the synopsis installs a Clone() into its own bank.
struct StreamSummary {
  uint8_t backend = 0;
  std::vector<TwoLevelHashSketch> sketches;
  std::shared_ptr<const DistinctSketch> backend_sketch;
};

/// Appends `summary`: legacy EncodeSketchVector bytes for the default
/// backend (wire-compatible with pre-backend peers), the tagged "SKSM"
/// layout otherwise.
void EncodeStreamSummary(const StreamSummary& summary, bool compact,
                         std::string* out);

/// Decodes either summary layout (peeks the leading u32 for the "SKSM"
/// magic). Legacy summaries are validated exactly like DecodeSketchVector
/// with (expected_copies, expected_seeds); tagged summaries, when
/// `expected_options` is non-null, must carry matching BackendOptions —
/// the backend analog of the foreign-hash-functions gate.
bool DecodeStreamSummary(
    const std::string& data, size_t* offset, int expected_copies,
    const std::vector<std::shared_ptr<const SketchSeed>>* expected_seeds,
    const BackendOptions* expected_options, StreamSummary* out,
    std::string* error);

}  // namespace setsketch

#endif  // SETSKETCH_DISTRIBUTED_SUMMARY_CODEC_H_
