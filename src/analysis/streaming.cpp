#include "analysis/streaming.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "analysis/capture_index.hpp"
#include "analysis/parallel.hpp"
#include "telescope/digest.hpp"

namespace v6t::analysis {

namespace {

/// Bucket bounds for per-window packet counts (decades).
std::span<const double> countBounds() {
  static const std::array<double, 8> bounds{1e0, 1e1, 1e2, 1e3,
                                            1e4, 1e5, 1e6, 1e7};
  return bounds;
}

} // namespace

std::uint64_t StreamingResult::digest() const {
  using telescope::fnv1aMix;
  using telescope::fnv1aMixDouble;
  std::uint64_t h = telescope::kFnvBasis;
  fnv1aMix(h, totalPackets);
  fnv1aMix(h, sources.size());
  for (const SourceAggregate& r : sources) {
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
    fnv1aMixDouble(h, hh.shareOfTelescope);
    fnv1aMix(h, hh.sessions);
    fnv1aMix(h, static_cast<std::uint64_t>(hh.firstDay));
    fnv1aMix(h, static_cast<std::uint64_t>(hh.lastDay));
  }
  fnv1aMix(h, heavyHitterImpact.packets);
  fnv1aMix(h, heavyHitterImpact.sessions);
  fnv1aMixDouble(h, heavyHitterImpact.packetShare);
  fnv1aMixDouble(h, heavyHitterImpact.sessionShare);
  fnv1aMix(h, sessionStats.opened);
  fnv1aMix(h, sessionStats.closedByTimeout);
  fnv1aMix(h, sessionStats.closedByGap);
  fnv1aMix(h, sessionStats.openAtFinish);
  return h;
}

StreamingResult foldSummaries(
    std::vector<telescope::SessionSummary> summaries,
    std::uint64_t totalPackets, telescope::SessionStats stats,
    const StreamingOptions& opts) {
  // Canonicalize: the order BasicSessionizer::finish() returns, so
  // first-appearance grouping below reproduces groupBySource / CaptureIndex
  // source order.
  std::stable_sort(summaries.begin(), summaries.end(),
                   telescope::SessionOrder{});

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
                SourceAggregate r;
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

  result.heavyHitters = findHeavyHitters(result.sources, totalPackets);
  result.heavyHitterImpact = heavyHitterImpact(
      result.sources, totalPackets, summaries.size(), result.heavyHitters);
  return result;
}

StreamingAnalyzer::StreamingAnalyzer(StreamingOptions opts)
    : opts_(std::move(opts)), sessionizer_(telescope::SourceAgg::Addr128) {
  if (!opts_.captureGaps.empty()) {
    sessionizer_.setCaptureGaps(opts_.captureGaps);
  }
}

void StreamingAnalyzer::ingest(const net::Packet& p) {
  const std::int64_t idx = p.ts.millis() / kStreamWindow.millis();
  if (windowPackets_ > 0 && idx != windowIdx_) closeWindow();
  windowIdx_ = idx;
  ++windowPackets_;
  // A summary keeps no packet index.
  sessionizer_.offer(p, 0);
  ++totalPackets_;
}

void StreamingAnalyzer::closeWindow() {
  if (windowPackets_ == 0) return;
  // Only sessions the sessionizer has closed leave it, so a session
  // spanning a window edge is never split.
  std::vector<telescope::SessionSummary> closed = sessionizer_.drainClosed();
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
        .set(static_cast<double>(sessionizer_.openSessions()));
  }
  windowPackets_ = 0;
  ++windows_;
}

StreamingResult StreamingAnalyzer::finish() {
  closeWindow();
  std::vector<telescope::SessionSummary> tail = sessionizer_.finish();
  summaries_.insert(summaries_.end(), tail.begin(), tail.end());
  StreamingResult result = foldSummaries(std::move(summaries_),
                                         totalPackets_, sessionizer_.stats(),
                                         opts_);
  result.windows = windows_;
  summaries_.clear();
  return result;
}

StreamingResult analyzeOneShot(std::span<const net::Packet> packets,
                               const StreamingOptions& opts) {
  // The in-memory machinery (the index form of the sessionizer,
  // CaptureIndex) aggregates each source from its sessions' packet runs,
  // independently of foldSummaries' summary fold: the streaming ==
  // one-shot tests compare the two aggregations.
  telescope::SessionStats stats;
  const std::vector<telescope::Session> sessions =
      telescope::sessionize(packets, telescope::SourceAgg::Addr128,
                            telescope::kSessionTimeout, &stats,
                            opts.captureGaps);
  const CaptureIndex index{packets, sessions};

  StreamingResult result;
  result.totalPackets = packets.size();
  result.sessionStats = stats;
  result.sources.assign(index.aggregates().begin(), index.aggregates().end());
  result.heavyHitters = findHeavyHitters(index);
  result.heavyHitterImpact = heavyHitterImpact(index, result.heavyHitters);
  return result;
}

} // namespace v6t::analysis
