#include "analysis/streaming.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <unordered_map>

#include "analysis/capture_index.hpp"
#include "analysis/parallel.hpp"
#include "analysis/stats.hpp"
#include "telescope/digest.hpp"

namespace v6t::analysis {

namespace {

/// Bucket bounds for per-window packet counts (decades).
std::span<const double> countBounds() {
  static const std::array<double, 8> bounds{1e0, 1e1, 1e2, 1e3,
                                            1e4, 1e5, 1e6, 1e7};
  return bounds;
}

void mixDouble(std::uint64_t& h, double d) {
  telescope::fnv1aMix(h, std::bit_cast<std::uint64_t>(d));
}

} // namespace

std::uint64_t StreamingResult::digest() const {
  using telescope::fnv1aMix;
  std::uint64_t h = telescope::kFnvBasis;
  fnv1aMix(h, totalPackets);
  fnv1aMix(h, sources.size());
  for (const StreamingSourceReport& r : sources) {
    fnv1aMix(h, r.source.addr.hi64());
    fnv1aMix(h, r.source.addr.lo64());
    fnv1aMix(h, telescope::bits(r.source.agg));
    fnv1aMix(h, r.packets);
    fnv1aMix(h, r.sessions);
    fnv1aMix(h, r.payloadPackets);
    fnv1aMix(h, static_cast<std::uint64_t>(r.firstDay));
    fnv1aMix(h, static_cast<std::uint64_t>(r.lastDay));
    fnv1aMix(h, r.asn.value());
  }
  fnv1aMix(h, heavyHitters.size());
  for (const HeavyHitter& hh : heavyHitters) {
    fnv1aMix(h, hh.source.hi64());
    fnv1aMix(h, hh.source.lo64());
    fnv1aMix(h, hh.asn.value());
    fnv1aMix(h, hh.packets);
    mixDouble(h, hh.shareOfTelescope);
    fnv1aMix(h, hh.sessions);
    fnv1aMix(h, static_cast<std::uint64_t>(hh.firstDay));
    fnv1aMix(h, static_cast<std::uint64_t>(hh.lastDay));
  }
  fnv1aMix(h, heavyHitterImpact.packets);
  fnv1aMix(h, heavyHitterImpact.sessions);
  mixDouble(h, heavyHitterImpact.packetShare);
  mixDouble(h, heavyHitterImpact.sessionShare);
  fnv1aMix(h, sessionStats.opened);
  fnv1aMix(h, sessionStats.closedByTimeout);
  fnv1aMix(h, sessionStats.closedByGap);
  fnv1aMix(h, sessionStats.openAtFinish);
  return h;
}

StreamingResult foldSummaries(
    std::vector<telescope::SessionSummary> summaries,
    std::uint64_t totalPackets, telescope::Sessionizer::Stats stats,
    const StreamingOptions& opts) {
  // Canonicalize: the exact (start, source address) order
  // Sessionizer::finish() emits, so first-appearance grouping below
  // reproduces groupBySource / CaptureIndex source order.
  std::stable_sort(summaries.begin(), summaries.end(),
                   [](const telescope::SessionSummary& a,
                      const telescope::SessionSummary& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.source.addr < b.source.addr;
                   });

  std::unordered_map<telescope::SourceKey, std::size_t> index;
  index.reserve(summaries.size());
  std::vector<std::vector<std::uint32_t>> groups;
  for (std::uint32_t i = 0; i < summaries.size(); ++i) {
    auto [it, fresh] = index.emplace(summaries[i].source, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  StreamingResult result;
  result.totalPackets = totalPackets;
  result.sessionStats = stats;
  result.sources.resize(groups.size());
  // Pure per-source fold into pre-sized canonical slots: bitwise-identical
  // for every thread count (the parallel.hpp determinism contract).
  parallelFor(groups.size(), opts.threads,
              [&](unsigned /*worker*/, std::size_t i) {
                const std::vector<std::uint32_t>& g = groups[i];
                StreamingSourceReport r;
                r.source = summaries[g.front()].source;
                for (std::uint32_t si : g) {
                  r.packets += summaries[si].packets;
                  r.payloadPackets += summaries[si].payloadPackets;
                }
                r.sessions = g.size();
                r.firstDay = summaries[g.front()].start.dayIndex();
                r.lastDay = summaries[g.back()].end.dayIndex();
                r.asn = summaries[g.front()].firstAsn;
                result.sources[i] = r;
              });

  // Heavy hitters, replicating findHeavyHitters(index, ...) operand for
  // operand so the shares are bitwise-equal doubles.
  const auto total = static_cast<double>(totalPackets);
  for (const StreamingSourceReport& r : result.sources) {
    const double share =
        total == 0.0 ? 0.0 : 100.0 * static_cast<double>(r.packets) / total;
    if (share <= kHeavyHitterThresholdPercent) continue;
    HeavyHitter h;
    h.source = r.source.addr;
    h.asn = r.asn;
    h.packets = r.packets;
    h.shareOfTelescope = share;
    h.sessions = r.sessions;
    h.firstDay = r.firstDay;
    h.lastDay = r.lastDay;
    result.heavyHitters.push_back(h);
  }
  std::stable_sort(result.heavyHitters.begin(), result.heavyHitters.end(),
                   [](const HeavyHitter& a, const HeavyHitter& b) {
                     return a.packets > b.packets;
                   });

  // Impact, replicating heavyHitterImpact(index, hitters).
  for (const StreamingSourceReport& r : result.sources) {
    const unsigned maskBits = telescope::bits(r.source.agg);
    for (const HeavyHitter& h : result.heavyHitters) {
      if (h.source.maskedTo(maskBits) == r.source.addr) {
        result.heavyHitterImpact.packets += r.packets;
        result.heavyHitterImpact.sessions += r.sessions;
        break;
      }
    }
  }
  result.heavyHitterImpact.packetShare =
      percent(result.heavyHitterImpact.packets, totalPackets);
  result.heavyHitterImpact.sessionShare =
      percent(result.heavyHitterImpact.sessions, summaries.size());
  return result;
}

StreamingAnalyzer::StreamingAnalyzer(StreamingOptions opts)
    : opts_(std::move(opts)), tracker_(telescope::SourceAgg::Addr128) {
  if (!opts_.captureGaps.empty()) {
    tracker_.setCaptureGaps(opts_.captureGaps);
  }
}

void StreamingAnalyzer::ingest(const net::Packet& p) {
  const std::int64_t idx = p.ts.millis() / kStreamWindow.millis();
  if (windowPackets_ > 0 && idx != windowIdx_) closeWindow();
  windowIdx_ = idx;
  ++windowPackets_;
  tracker_.offer(p);
  ++totalPackets_;
}

void StreamingAnalyzer::closeWindow() {
  if (windowPackets_ == 0) return;
  // Only sessions the tracker has closed leave it, so a session spanning a
  // window edge is never split.
  std::vector<telescope::SessionSummary> closed = tracker_.drainClosed();
  summaries_.insert(summaries_.end(), closed.begin(), closed.end());

  if (opts_.metrics != nullptr) {
    opts_.metrics->counter("analysis.stream.windows_total").inc();
    opts_.metrics->histogram("analysis.stream.window_packets", countBounds())
        .observe(static_cast<double>(windowPackets_));
    opts_.metrics->counter("analysis.stream.sessions_closed_total")
        .inc(closed.size());
    opts_.metrics
        ->gauge("analysis.stream.open_sessions_high_water",
                obs::GaugeMode::Max)
        .set(static_cast<double>(tracker_.openSessions()));
  }
  windowPackets_ = 0;
  ++windows_;
}

StreamingResult StreamingAnalyzer::finish() {
  closeWindow();
  std::vector<telescope::SessionSummary> tail = tracker_.finish();
  summaries_.insert(summaries_.end(), tail.begin(), tail.end());
  StreamingResult result = foldSummaries(std::move(summaries_),
                                         totalPackets_, tracker_.stats(),
                                         opts_);
  result.windows = windows_;
  summaries_.clear();
  return result;
}

StreamingResult analyzeOneShot(std::span<const net::Packet> packets,
                               const StreamingOptions& opts) {
  // Deliberately a fully independent implementation on the in-memory
  // machinery (Sessionizer, CaptureIndex, findHeavyHitters): the
  // streaming == one-shot tests compare two code paths, not one path
  // against itself.
  telescope::Sessionizer::Stats stats;
  const std::vector<telescope::Session> sessions =
      telescope::sessionize(packets, telescope::SourceAgg::Addr128,
                            telescope::kSessionTimeout, &stats,
                            opts.captureGaps);
  const CaptureIndex index{packets, sessions};

  StreamingResult result;
  result.totalPackets = packets.size();
  result.sessionStats = stats;
  result.sources.resize(index.sourceCount());
  parallelFor(index.sourceCount(), opts.threads,
              [&](unsigned /*worker*/, std::size_t i) {
                const CaptureIndex::SourceAggregates& agg =
                    index.aggregatesOf(i);
                StreamingSourceReport r;
                r.source = index.source(i);
                r.packets = agg.packets;
                r.sessions = index.sessionsOf(i).size();
                for (std::uint32_t si : index.sessionsOf(i)) {
                  r.payloadPackets += index.payloadPacketsOf(si);
                }
                r.firstDay = agg.firstDay;
                r.lastDay = agg.lastDay;
                r.asn = agg.asn;
                result.sources[i] = r;
              });
  result.heavyHitters = findHeavyHitters(index);
  result.heavyHitterImpact = heavyHitterImpact(index, result.heavyHitters);
  return result;
}

} // namespace v6t::analysis
