#include "core/summary.hpp"

#include <algorithm>

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
  const std::span<const net::Packet> window =
      packetsIn(capture.packets(), period);
  const telescope::CaptureStats counts = telescope::captureStats(window);
  TelescopeSummary::WindowStats stats;
  stats.packets = window.size();
  stats.sources128 = counts.sources128;
  stats.sources64 = counts.sources64;
  stats.asns = counts.asns;
  stats.destinations = counts.destinations;
  const TelescopeSummary& summary = telescopes_[telescopeIdx];
  stats.sessions128 = sessionsIn(summary.sessions128, period).size();
  stats.sessions64 = sessionsIn(summary.sessions64, period).size();
  return stats;
}

std::array<analysis::PipelineResult, 4> analyzeTelescopes(
    const ExperimentRunner& runner, const ExperimentSummary& summary,
    unsigned threads, obs::Registry* registry) {
  const analysis::PipelineOptions opts{
      .threads = threads,
      .minSplitCost = runner.config().experiment.analysisMinSplitCost,
      .fingerprint = false};
  std::array<analysis::PipelineResult, 4> reports;
  for (std::size_t t = 0; t < 4; ++t) {
    reports[t] = analysis::Pipeline::analyze(
        runner.capture(t).packets(), summary.telescope(t).sessions128,
        t == T1 ? &runner.schedule() : nullptr, opts, registry);
  }
  return reports;
}

namespace {

/// The items of a run sorted by `time` whose time falls inside the period:
/// a lower_bound pair, no scan and no copy.
template <typename T>
std::span<const T> within(std::span<const T> items, Period period,
                          sim::SimTime T::*time) {
  const auto from = std::ranges::lower_bound(items, period.from, {}, time);
  const auto to =
      std::ranges::lower_bound(from, items.end(), period.to, {}, time);
  return {from, to};
}

} // namespace

std::span<const net::Packet> packetsIn(std::span<const net::Packet> packets,
                                       Period period) {
  return within(packets, period, &net::Packet::ts);
}

std::span<const telescope::Session> sessionsIn(
    std::span<const telescope::Session> sessions, Period period) {
  return within(sessions, period, &telescope::Session::start);
}

} // namespace v6t::core
