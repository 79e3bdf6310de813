#include "util/varint_bulk.h"

namespace setsketch {

size_t DecodeVarintRun(const uint8_t* p, const uint8_t* end, size_t count,
                       uint64_t* out, size_t* consumed) {
  const uint8_t* q = p;
  size_t i = 0;
  for (; i < count; ++i) {
    // Single-byte values dominate PUSH payloads (stream ids, ±1 deltas,
    // small elements); a clear top bit means the byte IS the value.
    if (q < end && *q < 0x80) {
      out[i] = *q++;
      continue;
    }
    uint64_t value = 0;
    const size_t n = DecodeVarint(q, end, &value);
    if (n == 0) break;
    out[i] = value;
    q += n;
  }
  *consumed = static_cast<size_t>(q - p);
  return i;
}

}  // namespace setsketch
