// Bulk LEB128 decoding for the server's ingest fast path.
//
// PUSH_UPDATES payloads are long runs of varints (three per update).
// DecodeVarintRun decodes a run in one call: single-byte varints — the
// overwhelmingly common case in update triples — short-circuit (a clear
// continuation bit means the byte IS the value), and every longer one
// goes through DecodeVarint (util/varint.h), so accept/reject semantics
// are exactly ReadVarint's. Randomized fuzz tests pin the equivalence.
// An SSE/BMI2 lane-scan variant measured no faster on the served ingest
// path (DESIGN.md §3.5 records the pairs), so there is one scalar
// decoder.

#ifndef SETSKETCH_UTIL_VARINT_BULK_H_
#define SETSKETCH_UTIL_VARINT_BULK_H_

#include <cstddef>
#include <cstdint>

#include "util/thread_annotations.h"
#include "util/varint.h"

namespace setsketch {

/// Decodes up to `count` consecutive varints from [p, end) into
/// out[0..count). Returns the number decoded — `count` unless the input
/// ran out or a varint was malformed — and sets *consumed to the byte
/// length of the decoded prefix. A short return leaves p + *consumed
/// pointing at the offending varint, where DecodeVarint reproduces the
/// exact failure.
size_t DecodeVarintRun(const uint8_t* p, const uint8_t* end, size_t count,
                       uint64_t* out, size_t* consumed) SETSKETCH_HOT_PATH;

}  // namespace setsketch

#endif  // SETSKETCH_UTIL_VARINT_BULK_H_
