// LEB128 variable-length integers with zigzag signed mapping — the
// building block of the compact sketch wire encoding. 2-level hash sketch
// counter arrays are dominated by zeros and small values (level l holds a
// ~2^-(l+1) fraction of the stream), so fixed 8-byte cells waste most of
// the wire; varints plus zero-run-length get within a small factor of
// entropy without a compressor dependency.

#ifndef SETSKETCH_UTIL_VARINT_H_
#define SETSKETCH_UTIL_VARINT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/thread_annotations.h"

namespace setsketch {

/// Longest LEB128 encoding this codec accepts or emits for a uint64.
inline constexpr size_t kMaxVarintBytes = 10;

/// Maps signed to unsigned so small magnitudes stay small:
/// 0,-1,1,-2,2 ... -> 0,1,2,3,4 ...
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

/// Inverse of ZigZagEncode.
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Appends v as LEB128 (7 bits per byte, high bit = continuation).
inline void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Encoded LEB128 size of v (1..kMaxVarintBytes).
inline size_t VarintLen(uint64_t v) {
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// Writes v as LEB128 at `p` (the caller reserved at least VarintLen(v)
/// bytes); returns one past the last byte written. Same bytes as
/// AppendVarint without the per-byte push_back — the batch encoder's
/// hot path.
inline char* WriteVarint(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

/// Decodes one LEB128 varint from [p, end). Returns the bytes consumed,
/// or 0 on truncation or an overlong encoding: at most 10 bytes, the 10th
/// contributes only bit 63 (its upper payload bits drop) and must not
/// carry a continuation bit. The one varint decoder; ReadVarint and the
/// bulk run decoder (util/varint_bulk.h) both call it.
SETSKETCH_HOT_PATH inline size_t DecodeVarint(const uint8_t* p,
                                              const uint8_t* end,
                                              uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  const uint8_t* q = p;
  while (q < end && shift <= 63) {
    const uint8_t byte = *q++;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return static_cast<size_t>(q - p);
    }
    shift += 7;
  }
  return 0;
}

/// Reads a varint at data[*offset], advancing *offset. Returns false on
/// truncation or overlong (> 10 byte) encodings.
inline bool ReadVarint(std::string_view data, size_t* offset,
                       uint64_t* value) {
  const uint8_t* base = reinterpret_cast<const uint8_t*>(data.data());
  const size_t n = DecodeVarint(base + *offset, base + data.size(), value);
  *offset += n;
  return n != 0;
}

/// Appends a varint-length-prefixed string.
inline void AppendVarintString(std::string* out, std::string_view s) {
  AppendVarint(out, s.size());
  out->append(s);
}

/// Reads a varint-length-prefixed string, enforcing `max_bytes`. Shared by
/// the wire protocol (stream names, site ids) and the WAL record codec.
inline bool ReadVarintString(std::string_view data, size_t* offset,
                             size_t max_bytes, std::string* out) {
  uint64_t length = 0;
  if (!ReadVarint(data, offset, &length)) return false;
  if (length > max_bytes) return false;
  if (length > data.size() - *offset) return false;
  out->assign(data.data() + *offset, static_cast<size_t>(length));
  *offset += static_cast<size_t>(length);
  return true;
}

}  // namespace setsketch

#endif  // SETSKETCH_UTIL_VARINT_H_
