#include "core/summary.hpp"

#include <unordered_set>

#include "analysis/parallel.hpp"

namespace v6t::core {

ExperimentSummary ExperimentSummary::compute(
    const std::array<const telescope::CaptureStore*, 4>& captures,
    const std::array<std::string, 4>& names,
    const fault::FaultSpec& faults, unsigned threads) {
  ExperimentSummary summary;
  for (std::size_t i = 0; i < 4; ++i) summary.telescopes_[i].name = names[i];
  // Eight independent sessionization tasks (telescope x aggregation), each
  // writing only its own slot — identical output at any thread count.
  analysis::parallelFor(8, threads, [&](unsigned, std::size_t task) {
    const std::size_t i = task / 2;
    TelescopeSummary& out = summary.telescopes_[i];
    if (task % 2 == 0) {
      out.sessions128 = telescope::sessionize(
          captures[i]->packets(), telescope::SourceAgg::Addr128,
          telescope::kSessionTimeout, &out.stats128, faults.gapWindowsFor(i));
    } else {
      out.sessions64 = telescope::sessionize(
          captures[i]->packets(), telescope::SourceAgg::Net64,
          telescope::kSessionTimeout, &out.stats64, faults.gapWindowsFor(i));
    }
  });
  return summary;
}

ExperimentSummary ExperimentSummary::compute(const ExperimentRunner& runner,
                                             unsigned threads) {
  return compute(runner.captures(),
                 {runner.telescopeName(0), runner.telescopeName(1),
                  runner.telescopeName(2), runner.telescopeName(3)},
                 runner.config().experiment.faults, threads);
}

TelescopeSummary::WindowStats ExperimentSummary::windowStats(
    const telescope::CaptureStore& capture, std::size_t telescopeIdx,
    Period period) const {
  TelescopeSummary::WindowStats stats;
  std::unordered_set<net::Ipv6Address> s128;
  std::unordered_set<net::Ipv6Address> s64;
  std::unordered_set<std::uint32_t> asns;
  std::unordered_set<net::Ipv6Address> dsts;
  for (const net::Packet& p : capture.packets()) {
    if (!period.contains(p.ts)) continue;
    ++stats.packets;
    s128.insert(p.src);
    s64.insert(p.src.maskedTo(64));
    if (!p.srcAsn.unattributed()) asns.insert(p.srcAsn.value());
    dsts.insert(p.dst);
  }
  stats.sources128 = s128.size();
  stats.sources64 = s64.size();
  stats.asns = asns.size();
  stats.destinations = dsts.size();
  const TelescopeSummary& summary = telescopes_[telescopeIdx];
  stats.sessions128 = sessionsIn(summary.sessions128, period).size();
  stats.sessions64 = sessionsIn(summary.sessions64, period).size();
  return stats;
}

std::set<net::Ipv6Address> ExperimentSummary::sources128(
    const telescope::CaptureStore& capture, Period period) {
  std::set<net::Ipv6Address> out;
  for (const net::Packet& p : capture.packets()) {
    if (period.contains(p.ts)) out.insert(p.src);
  }
  return out;
}

std::set<std::uint32_t> ExperimentSummary::sourceAsns(
    const telescope::CaptureStore& capture, Period period) {
  std::set<std::uint32_t> out;
  for (const net::Packet& p : capture.packets()) {
    if (period.contains(p.ts) && !p.srcAsn.unattributed()) {
      out.insert(p.srcAsn.value());
    }
  }
  return out;
}

std::vector<telescope::Session> sessionsIn(
    std::span<const telescope::Session> sessions, Period period) {
  std::vector<telescope::Session> out;
  for (const telescope::Session& s : sessions) {
    if (period.contains(s.start)) out.push_back(s);
  }
  return out;
}

} // namespace v6t::core
