// Central coordinator of the distributed-streams model: collects site
// summaries and merges same-stream sketches by counter addition (valid
// because 2-level hash sketches are linear). Queries over the merged
// synopses are answered like any other: install Sketches() into a
// SketchBank and ask a PlanCache (the server builds such a view per
// query; see SketchServer::SummaryViewLocked).

#ifndef SETSKETCH_DISTRIBUTED_COORDINATOR_H_
#define SETSKETCH_DISTRIBUTED_COORDINATOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sketch_bank.h"

namespace setsketch {

/// Collects and merges site summaries.
class Coordinator {
 public:
  /// Must match the deployment's shared configuration; summaries whose
  /// sketches disagree with it (wrong "coins") are rejected.
  Coordinator(const SketchParams& params, int copies, uint64_t master_seed);

  /// Outcome of ingesting one site summary.
  struct IngestResult {
    bool ok = false;
    std::string error;       ///< Decode/validation failure description.
    std::string site;        ///< Originating site name.
    int streams_merged = 0;  ///< Streams carried by the summary.
    bool replaced = false;   ///< True if it superseded an earlier summary
                             ///< from the same site (retransmission).
  };

  /// Decodes one Site::EncodeSummary() buffer. A summary *replaces* any
  /// earlier summary from the same site, so periodic retransmission of
  /// cumulative synopses is idempotent; different sites' summaries merge
  /// by counter addition. A summary with an empty, oversized or repeated
  /// name, an alternative-backend stream, or copies that disagree with
  /// the deployment's coins is refused whole: nothing merges.
  IngestResult AddSiteSummary(const std::string& bytes);

  /// Names of sites that have reported, unordered.
  std::vector<std::string> SiteNames() const;

  /// Streams known so far (from any site), unordered.
  std::vector<std::string> StreamNames() const;

  /// Merged sketches of `stream_name`; nullptr if unknown. The pointer is
  /// into a cache that the next AddSiteSummary call rebuilds — copy what
  /// you need to keep across ingests.
  const std::vector<TwoLevelHashSketch>* Sketches(
      const std::string& stream_name) const;

  int copies() const { return coins_.num_copies(); }

 private:
  void EnsureMerged() const;

  // An empty bank of the deployment's family: every incoming stream is
  // decoded against its copy count and coins (DecodeStreamSummary).
  SketchBank coins_;
  // Latest summary per site: stream name -> sketches.
  std::unordered_map<
      std::string,
      std::unordered_map<std::string, std::vector<TwoLevelHashSketch>>>
      site_summaries_;
  // Lazily (re)built global view: stream name -> merged sketches.
  mutable std::unordered_map<std::string, std::vector<TwoLevelHashSketch>>
      merged_;
  mutable bool merged_valid_ = true;
};

}  // namespace setsketch

#endif  // SETSKETCH_DISTRIBUTED_COORDINATOR_H_
