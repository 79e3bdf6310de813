// The distributed-streams model with stored coins (Gibbons & Tirthapura),
// which the paper's architecture (Section 1, Figure 1) and its Section 4
// extension target: each stream (or stream fragment) is observed and
// summarized at its own site, and only the small synopses travel to a
// central coordinator.
//
// "Stored coins": every site derives its hash functions from the same
// (params, master seed) pair, so sketches of the same logical stream taken
// at different sites combine by plain counter addition, and sketches of
// different streams stay comparable.

#ifndef SETSKETCH_DISTRIBUTED_SITE_H_
#define SETSKETCH_DISTRIBUTED_SITE_H_

#include <string>
#include <vector>

#include "core/sketch_bank.h"
#include "stream/update.h"

namespace setsketch {

/// One observation site: sketches the local fragment of named streams.
class Site {
 public:
  /// All sites of a deployment must share (params, copies, master_seed).
  Site(std::string site_name, const SketchParams& params, int copies,
       uint64_t master_seed);

  const std::string& name() const { return name_; }

  /// Declares that this site observes (part of) stream `stream_name`.
  void ObserveStream(const std::string& stream_name);

  /// Routes one locally observed update. Returns false if the stream was
  /// never declared with ObserveStream.
  bool Ingest(const std::string& stream_name, uint64_t element,
              int64_t delta);

  /// Serializes this site's summary (all streams, all sketch copies) into
  /// a byte buffer — the only thing that crosses the "network". Each
  /// stream travels in the one synopsis layout
  /// (distributed/summary_codec.h), whose compact copies are typically
  /// 5-20x smaller than the fixed-width sketch encoding.
  std::string EncodeSummary() const;

  int64_t updates_processed() const { return updates_processed_; }
  const SketchBank& bank() const { return bank_; }

 private:
  std::string name_;
  SketchBank bank_;
  std::vector<std::string> streams_;  // Declaration order.
  int64_t updates_processed_ = 0;
};

}  // namespace setsketch

#endif  // SETSKETCH_DISTRIBUTED_SITE_H_
