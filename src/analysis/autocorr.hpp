// v6t::analysis — period detection by autocorrelation (§5.1).
//
// Periodic scanners are identified by binning their session start times
// into hourly counts and searching the autocorrelation function for a
// dominant lag (Breitenbach et al. 2023 style). Sources with fewer than
// three sessions or no detectable peak remain non-periodic.
//
// The autocorrelation is evaluated exactly, in integers, from the pairs
// of session starts (DESIGN.md §12): the series are long (months of
// hourly bins) but sparse, so the cost follows the start pairs within
// half the span, not bins × lags, and no decision depends on
// floating-point summation order.
#pragma once

#include <optional>
#include <span>

#include "sim/time.hpp"

namespace v6t::analysis {

/// Detect a stable period in a set of event (session-start) times, sorted
/// or not. Returns the period, or nullopt if none is detectable.
///
/// Two tests, in order:
///   gaps    at least three gaps between consecutive events, each within
///           30 % of their median: the period is that median.
///   binned  hourly bins over the events' span; the period is the first
///           lag k in [2, bins/2) whose autocorrelation r_k is at least
///           3/10 and no smaller than r_{k-1} and r_{k+1}.
[[nodiscard]] std::optional<sim::Duration> detectPeriod(
    std::span<const sim::SimTime> events);

} // namespace v6t::analysis
