// v6t::analysis — streaming windowed analysis over an out-of-core capture.
//
// The one-shot pipeline holds the whole merged packet vector in memory.
// The streaming path consumes the canonical (ts, originId, originSeq)
// packet stream — typically a merge of sealed segments — one packet at a
// time: the sessionizer's summary form (telescope::BasicSessionizer over
// SessionSummary) sessionizes it, and every 24 h window of sim time only
// counts its packets and drains the sessions that closed (no packet
// buffer, no CaptureIndex). foldSummaries groups the summaries into the
// per-source rows CaptureIndex builds from full sessions and runs the
// same heavy-hitter selection over them — so the StreamingResult, and its
// digest, is bitwise-identical to the one-shot reference
// (`analyzeOneShot`) at any spill budget and any thread count
// (DESIGN.md §15).
//
// Peak memory is O(open sessions + session summaries): the packet vector
// never materializes.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/heavy_hitter.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "telescope/session.hpp"

namespace v6t::analysis {

/// Width of the windows the stream is counted in, aligned to an absolute
/// grid (floor(ts / kStreamWindow)) so boundaries do not depend on the
/// first packet observed. Sessions are tracked on /128 sources with
/// telescope::kSessionTimeout; heavy hitters at kHeavyHitterThresholdPercent.
inline constexpr sim::Duration kStreamWindow = sim::hours(24);

struct StreamingOptions {
  /// Worker count for foldSummaries' per-source fold; 1 = serial
  /// reference. The result is bitwise-identical for every value.
  unsigned threads = 1;
  /// Declared capture outages (BasicSessionizer::setCaptureGaps
  /// semantics).
  std::vector<std::pair<sim::SimTime, sim::SimTime>> captureGaps;
  obs::Registry* metrics = nullptr;
};

struct StreamingResult {
  std::uint64_t totalPackets = 0;
  /// Per-source rows in canonical (first-appearance) source order.
  std::vector<SourceAggregate> sources;
  std::vector<HeavyHitter> heavyHitters;
  HeavyHitterImpact heavyHitterImpact;
  telescope::SessionStats sessionStats;
  /// Windows that held packets. Zero for the one-shot reference; excluded
  /// from digest() so windowing cannot perturb equivalence.
  std::uint64_t windows = 0;

  /// Order-sensitive FNV-1a over every capture-level field. Equal digests
  /// mean bitwise-identical results — the witness the spill-equivalence
  /// tests compare across spill budgets and thread counts.
  [[nodiscard]] std::uint64_t digest() const;
};

class StreamingAnalyzer {
public:
  explicit StreamingAnalyzer(StreamingOptions opts);

  /// Offer the next packet of the canonical stream (time-ordered).
  void ingest(const net::Packet& p);

  /// Drain any kway_merge.hpp-style cursor (a telescope::mergeSegments
  /// merge, a SpanCursor, ...).
  template <typename Cursor>
  void ingestAll(Cursor& c) {
    if (c.empty()) return;
    do {
      ingest(c.head());
    } while (c.advance());
  }

  /// Close the open window, flush the sessionizer and fold. Call once.
  [[nodiscard]] StreamingResult finish();

private:
  void closeWindow();

  StreamingOptions opts_;
  telescope::BasicSessionizer<telescope::SessionSummary> sessionizer_;
  std::int64_t windowIdx_ = 0;
  std::uint64_t windowPackets_ = 0; // 0 = no open window
  std::uint64_t windows_ = 0;
  std::vector<telescope::SessionSummary> summaries_;
  std::uint64_t totalPackets_ = 0;
};

/// The in-memory reference: sessionize the whole capture into its
/// packet-index form, build one CaptureIndex, and report its per-source
/// rows and the pipeline's heavy hitters. `packets` must be in canonical
/// order (a merged CaptureStore is). Its per-source aggregation is the
/// index's, independent of foldSummaries'; `opts.threads` is unused.
[[nodiscard]] StreamingResult analyzeOneShot(
    std::span<const net::Packet> packets, const StreamingOptions& opts = {});

/// Fold a summary set (any order) into per-source rows and select heavy
/// hitters over them — the tail of StreamingAnalyzer::finish() and the
/// building block the property tests drive directly. `totalPackets` is
/// the whole capture's packet count, the heavy-hitter share's base.
[[nodiscard]] StreamingResult foldSummaries(
    std::vector<telescope::SessionSummary> summaries,
    std::uint64_t totalPackets, telescope::SessionStats stats,
    const StreamingOptions& opts);

} // namespace v6t::analysis
