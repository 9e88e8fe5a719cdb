// v6t::core — shared post-run computation.
//
// The report sections, v6t_run and the examples need the same derived
// views: per-telescope session lists at both aggregation levels, time
// windows for the initial vs. split periods and the full-period analysis.
// Computing them once here keeps every reader of a run consistent.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "core/runner.hpp"
#include "telescope/session.hpp"

namespace v6t::core {

struct Period {
  sim::SimTime from;
  sim::SimTime to; // exclusive

  [[nodiscard]] bool contains(sim::SimTime t) const {
    return t >= from && t < to;
  }
};

struct TelescopeSummary {
  std::string name;
  std::vector<telescope::Session> sessions128;
  std::vector<telescope::Session> sessions64;
  /// Sessionizer lifecycle counters (opened / closed-by-timeout / still
  /// open at end of measurement), surfaced through the obs registry.
  telescope::Sessionizer::Stats stats128;
  telescope::Sessionizer::Stats stats64;

  /// Packets, distinct sources/ASes/destinations and sessions within a
  /// window: telescope::captureStats over the window's packets.
  struct WindowStats {
    std::uint64_t packets = 0;
    std::size_t sources128 = 0;
    std::size_t sources64 = 0;
    std::size_t asns = 0;
    std::size_t destinations = 0;
    std::size_t sessions128 = 0;
    std::size_t sessions64 = 0;
  };
};

class ExperimentSummary {
public:
  /// Sessionize all four captures (both aggregation levels), gap-aware
  /// against the declared capture gaps. The two overloads are views of the
  /// same computation: a finished ExperimentRunner (its merged captures and
  /// configured fault spec), or bare capture stores with display names.
  /// `threads` fans the eight independent sessionization tasks (4
  /// telescopes x 2 aggregation levels) over the analysis work-queue; each
  /// task writes only its own summary slot, so the result is identical for
  /// every thread count.
  static ExperimentSummary compute(const ExperimentRunner& runner,
                                   unsigned threads = 1);
  static ExperimentSummary compute(
      const std::array<const telescope::CaptureStore*, 4>& captures,
      const std::array<std::string, 4>& names,
      const fault::FaultSpec& faults, unsigned threads = 1);

  [[nodiscard]] const TelescopeSummary& telescope(std::size_t i) const {
    return telescopes_[i];
  }

  [[nodiscard]] TelescopeSummary::WindowStats windowStats(
      const telescope::CaptureStore& capture, std::size_t telescopeIdx,
      Period period) const;

private:
  std::array<TelescopeSummary, 4> telescopes_;
};

/// The full-period /128 analysis v6t_run prints: per telescope, one
/// pipeline over the whole capture and its /128 sessions with taxonomy (T1
/// against the split schedule) and heavy hitters, no fingerprint, at the
/// run's `analysis.min_split_cost`. One index is alive at a time.
[[nodiscard]] std::array<analysis::PipelineResult, 4> analyzeTelescopes(
    const ExperimentRunner& runner, const ExperimentSummary& summary,
    unsigned threads, obs::Registry* registry = nullptr);

/// The packets of a time-ordered run (every capture is one) whose
/// timestamps fall inside the period: a lower_bound pair, no scan.
[[nodiscard]] std::span<const net::Packet> packetsIn(
    std::span<const net::Packet> packets, Period period);

/// The sessions of a list sorted by start (every Sessionizer result is)
/// whose start falls inside the period: a lower_bound pair, no copy.
[[nodiscard]] std::span<const telescope::Session> sessionsIn(
    std::span<const telescope::Session> sessions, Period period);

} // namespace v6t::core
