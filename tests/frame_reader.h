// Test-side frame reassembly over the production parser: bytes land in
// an IngestArena in whatever chunks the test chooses, exactly as a
// socket read would put them, and frames are scanned off its front with
// ScanFrame — the same arena + parser pair every connection reader uses.

#ifndef SETSKETCH_TESTS_FRAME_READER_H_
#define SETSKETCH_TESTS_FRAME_READER_H_

#include <cstring>
#include <string>
#include <string_view>

#include "server/ingest_arena.h"
#include "server/protocol.h"

namespace setsketch {

class FrameReader {
 public:
  /// Appends received bytes.
  void Feed(std::string_view bytes) {
    if (bytes.empty()) return;
    std::memcpy(arena_.WritePtr(bytes.size()), bytes.data(), bytes.size());
    arena_.CommitRead(bytes.size());
  }

  /// Scans the front frame; on kFrame copies it into *frame and consumes
  /// it. A header error leaves the bad bytes in place, so it repeats.
  FrameScanStatus Next(Frame* frame) {
    FrameView view;
    size_t frame_bytes = 0;
    const FrameScanStatus status = ScanFrame(
        arena_.Unparsed(), &view, &frame_bytes, &error_, &error_message_);
    if (status == FrameScanStatus::kFrame) {
      frame->opcode = view.opcode;
      frame->payload.assign(view.payload);
      arena_.Consume(frame_bytes);
    }
    return status;
  }

  WireError error() const { return error_; }
  const std::string& error_message() const { return error_message_; }

  /// Bytes received but not yet returned as frames.
  size_t buffered_bytes() const { return arena_.Unparsed().size(); }

 private:
  IngestArena arena_;
  WireError error_ = WireError::kNone;
  std::string error_message_;
};

}  // namespace setsketch

#endif  // SETSKETCH_TESTS_FRAME_READER_H_
