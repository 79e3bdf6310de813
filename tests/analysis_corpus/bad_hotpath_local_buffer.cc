// Bad: a SETSKETCH_HOT_PATH function sizing a local buffer per call.
// A stale QUERY fills its probe table once per shard on the worker
// thread; a buffer constructed there is a heap allocation per query per
// shard. The fill keeps its buffer in storage shaped ahead of time.
// analyze-as: src/core/bad_hotpath_local_buffer.cc
// expect: hotpath-alloc

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/thread_annotations.h"

namespace setsketch {

SETSKETCH_HOT_PATH uint64_t OrLevels(const uint64_t* bits, size_t levels);

uint64_t OrLevels(const uint64_t* bits, size_t levels) {
  std::vector<uint64_t> block(levels);
  uint64_t any = 0;
  for (size_t level = 0; level < levels; ++level) {
    block[level] = bits[level];
    any |= block[level];
  }
  return any;
}

}  // namespace setsketch
