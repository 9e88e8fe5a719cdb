// v6t::fault — deterministic fault-injection specifications.
//
// The paper's 11-month measurement ran through real-world degradation:
// telescope outages and capture gaps, BGP convergence jitter, and route
// flaps. FaultSpec describes such degradation declaratively so the
// simulation can be exercised against it. Three I/O seams are wrapped:
//
//   * the BGP feed — control-plane updates dropped, duplicated, delayed
//     (and thereby reordered), plus scripted prefix flapping and a
//     transient withdrawal of the covering /29,
//   * the telescope fabric — per-packet loss, duplication, payload
//     truncation, and scheduled capture outages (gaps),
//   * the runner — injected wall-clock shard stalls that stress the
//     epoch-barrier logic without touching simulated state.
//
// Every random fault draw comes from a keyed stream derived from
// (fault seed, fault kind, entity key) — see keyed.hpp — so a chaos run
// replays bitwise for any thread count, and an empty spec leaves all
// outputs bitwise unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/prefix.hpp"
#include "sim/time.hpp"

namespace v6t::fault {

/// One scheduled capture outage: telescope `telescope` (TelescopeIndex;
/// -1 = every telescope) records nothing during [start, end).
struct CaptureGap {
  int telescope = -1;
  sim::SimTime start;
  sim::SimTime end;

  [[nodiscard]] sim::Duration duration() const { return end - start; }
  [[nodiscard]] bool applies(std::size_t telescopeIdx) const {
    return telescope < 0 || static_cast<std::size_t>(telescope) == telescopeIdx;
  }
  [[nodiscard]] bool covers(std::size_t telescopeIdx, sim::SimTime t) const {
    return applies(telescopeIdx) && t >= start && t < end;
  }
};

/// Periodic flapping of one announced prefix: starting at `start`, the
/// prefix is withdrawn for `down` at the beginning of each `period`, then
/// re-announced, `count` times. Purely schedule-driven (no randomness).
struct PrefixFlap {
  net::Prefix prefix;
  sim::SimTime start;
  sim::Duration period;
  sim::Duration down;
  int count = 1;
};

struct FaultSpec {
  // --- BGP feed faults (applied to the control-plane script) -------------
  double bgpDropProb = 0.0; // update never reaches the DFZ
  double bgpDupProb = 0.0; // update applied a second time, later
  double bgpDelayProb = 0.0; // update delayed by uniform [0, bgpDelayMax]
  sim::Duration bgpDelayMax = sim::minutes(30);
  std::vector<PrefixFlap> flaps;
  /// Transient withdrawal of the covering /29 (or whichever prefix the
  /// runner designates as covering): [at, at + coveringOutageFor).
  std::optional<sim::SimTime> coveringOutageAt;
  sim::Duration coveringOutageFor = sim::hours(6);

  // --- telescope fabric faults -------------------------------------------
  double packetLossProb = 0.0; // packet vanishes before routing
  double packetDupProb = 0.0; // packet is captured twice
  double truncateProb = 0.0; // payload cut to half its length
  std::vector<CaptureGap> gaps;

  // --- runner faults ------------------------------------------------------
  double stallProb = 0.0; // per (shard, epoch) chance of a barrier stall
  sim::Duration stallFor = sim::millis(2); // wall-clock sleep per stall

  /// True when the spec injects nothing at all — the zero-fault spec whose
  /// runs must be bitwise-identical to a fault-free build.
  [[nodiscard]] bool empty() const;
  /// Any per-packet fault or capture gap configured (= the fabric needs a
  /// fault plane installed).
  [[nodiscard]] bool hasPacketFaults() const;
  [[nodiscard]] bool hasBgpFaults() const;

  /// Gap windows for one telescope as (start, end) pairs — the shape the
  /// gap-aware sessionizer consumes.
  [[nodiscard]] std::vector<std::pair<sim::SimTime, sim::SimTime>>
  gapWindowsFor(std::size_t telescopeIdx) const;

  /// Apply one key/value pair — the part after the `faults.` prefix of a
  /// config-file key, or one comma-separated element of a --faults spec.
  /// Returns an error message, or "" on success. List-valued keys (gap,
  /// flap) append on repetition.
  [[nodiscard]] std::string applyKey(std::string_view key,
                                     std::string_view value);

  struct ParseResult; // defined below (holds a FaultSpec by value)

  /// Parse a compact comma-separated spec string, e.g.
  ///   "packet_loss=0.01,bgp_drop=0.1,gap=T1@2w+3d,covering_outage=13w+6h"
  /// Durations/instants use <int><unit> with unit in {ms,s,m,h,d,w}, each
  /// at most kMaxFaultSpan; gap scope is all|T1..T4; flap is
  /// <prefix>@<start>+<period>/<down>*<n>.
  [[nodiscard]] static ParseResult parse(std::string_view text);

  /// Render as `<prefix>key = value` config lines; "" for an empty spec,
  /// so fault-free configs format exactly as they did before faults
  /// existed. Round-trips through applyKey.
  [[nodiscard]] std::string formatKeys(std::string_view prefix) const;
};

struct FaultSpec::ParseResult {
  FaultSpec spec;
  std::vector<std::string> errors;
  [[nodiscard]] bool ok() const { return errors.empty(); }
};

/// Parse "<int><unit>" (ms|s|m|h|d|w) into a duration. nullopt on error,
/// including a value whose milliseconds overflow.
[[nodiscard]] std::optional<sim::Duration> parseDuration(
    std::string_view text);

/// The longest fault start or duration a spec accepts: the 520 weeks the
/// config's week keys allow. Every instant derived from them (a gap's or
/// the covering outage's end, a flap's last cycle) then fits in SimTime.
inline constexpr sim::Duration kMaxFaultSpan = sim::weeks(520);
[[nodiscard]] std::string formatDuration(sim::Duration d);
/// The shortest text that parses back to exactly `v`. For values <= 1
/// with at most six significant digits it is the text an ostream prints,
/// so configs written before this formatter format the same.
[[nodiscard]] std::string formatDouble(double v);

} // namespace v6t::fault
