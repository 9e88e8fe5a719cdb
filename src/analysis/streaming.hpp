// v6t::analysis — streaming windowed analysis over an out-of-core capture.
//
// The one-shot pipeline holds the whole merged packet vector in memory.
// The streaming path consumes the canonical (ts, originId, originSeq)
// packet stream — typically a SegmentStore cursor — in bounded time
// windows: packets are buffered only for the current window, sessions are
// tracked across window boundaries by the O(1)-state SessionTracker, and
// each closed window is sessionized on its own for windowed observability
// (packets, sources, sessions per window; no CaptureIndex).
// Capture-level results are folded from SessionSummary records, which are
// exactly the facts CaptureIndex aggregates from full sessions — so the
// StreamingResult, and its digest, is bitwise-identical to the one-shot
// reference (`analyzeOneShot`) at any window length, any spill budget and
// any thread count (DESIGN.md §15).
//
// Peak memory is O(window packets + open sessions + session summaries):
// the packet vector never materializes.
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

struct StreamingOptions {
  /// Width of the bounded analysis windows. Windows are aligned to an
  /// absolute grid (floor(ts / windowLength)) so boundaries do not depend
  /// on the first packet observed.
  sim::Duration windowLength = sim::hours(24);
  sim::Duration sessionTimeout = telescope::kSessionTimeout;
  /// Aggregation for session tracking; heavy hitters are defined on /128
  /// at kHeavyHitterThresholdPercent.
  telescope::SourceAgg agg = telescope::SourceAgg::Addr128;
  /// Worker count for the per-source fold at finish(); 1 = serial
  /// reference. The result is bitwise-identical for every value.
  unsigned threads = 1;
  /// Declared capture outages (Sessionizer::setCaptureGaps semantics).
  std::vector<std::pair<sim::SimTime, sim::SimTime>> captureGaps;
  obs::Registry* metrics = nullptr;
};

/// Capture-level per-source aggregate, in canonical (first-appearance)
/// source order — the same values CaptureIndex::SourceAggregates carries.
struct StreamingSourceReport {
  telescope::SourceKey source;
  std::uint64_t packets = 0;
  std::uint64_t sessions = 0;
  std::uint64_t payloadPackets = 0;
  std::int64_t firstDay = 0;
  std::int64_t lastDay = 0;
  net::Asn asn;
};

/// Observability record for one closed window (window-local views — not
/// part of the capture-level digest).
struct StreamingWindowReport {
  sim::SimTime start;
  sim::SimTime end;
  std::uint64_t packets = 0;
  /// Distinct sources within the window (groupBySource over the window's
  /// own sessions).
  std::uint64_t sources = 0;
  /// Window-local session count (sessions split at window edges here;
  /// the capture-level tracker does not).
  std::uint64_t sessions = 0;
};

struct StreamingResult {
  std::uint64_t totalPackets = 0;
  std::vector<StreamingSourceReport> sources;
  std::vector<HeavyHitter> heavyHitters;
  HeavyHitterImpact heavyHitterImpact;
  telescope::Sessionizer::Stats sessionStats;
  /// Closed windows in time order. Empty for the one-shot reference;
  /// excluded from digest() so windowing cannot perturb equivalence.
  std::vector<StreamingWindowReport> windows;

  /// Order-sensitive FNV-1a over every capture-level field. Equal digests
  /// mean bitwise-identical results — the witness the spill-equivalence
  /// tests compare across budgets, window lengths and thread counts.
  [[nodiscard]] std::uint64_t digest() const;
};

class StreamingAnalyzer {
public:
  explicit StreamingAnalyzer(StreamingOptions opts);

  /// Offer the next packet of the canonical stream (time-ordered).
  void ingest(const net::Packet& p);

  /// Drain any kway_merge.hpp-style cursor (SegmentStore::Cursor, a
  /// KWayMerge over per-shard stores, ...).
  template <typename Cursor>
  void ingestAll(Cursor& c) {
    if (c.empty()) return;
    do {
      ingest(c.head());
    } while (c.advance());
  }

  /// Close the open window, flush the tracker and fold. Call once.
  [[nodiscard]] StreamingResult finish();

  [[nodiscard]] const StreamingOptions& options() const { return opts_; }
  [[nodiscard]] std::uint64_t windowsClosed() const { return windowsClosed_; }

private:
  void closeWindow();

  StreamingOptions opts_;
  telescope::SessionTracker tracker_;
  std::vector<net::Packet> window_; // current window's packets only
  std::int64_t windowIdx_ = 0;
  bool haveWindow_ = false;
  std::vector<telescope::SessionSummary> summaries_;
  std::vector<StreamingWindowReport> windows_;
  std::uint64_t totalPackets_ = 0;
  std::uint64_t windowsClosed_ = 0;
};

/// The in-memory reference: sessionize the whole capture, build one
/// CaptureIndex, reuse the pipeline's heavy-hitter machinery, and report
/// the same capture-level fields the streaming fold produces. `packets`
/// must be in canonical order (a merged CaptureStore is).
[[nodiscard]] StreamingResult analyzeOneShot(
    std::span<const net::Packet> packets, const StreamingOptions& opts = {});

/// Fold a summary set (any order) into the capture-level result — the
/// common tail of StreamingAnalyzer::finish() and the building block the
/// property tests drive directly.
[[nodiscard]] StreamingResult foldSummaries(
    std::vector<telescope::SessionSummary> summaries,
    std::uint64_t totalPackets, telescope::Sessionizer::Stats stats,
    const StreamingOptions& opts);

} // namespace v6t::analysis
