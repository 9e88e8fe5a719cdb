// v6t::bgp — the paper's asymmetric prefix-split experiment (Fig. 2).
//
// After a baseline period, the telescope's base /32 is recursively split on
// a fixed cycle: every cycle all prefixes are withdrawn for one day, then a
// new set is announced in which one prefix has been replaced by its two
// more-specific children. The child chosen to be split next is always the
// one that does NOT contain the parent's low-byte address, so each newly
// created pair carries low-byte addresses that do not byte-wise match any
// previously announced one (§3.1). Starting from a /32 and running 16
// splits yields 17 announced prefixes with a most-specific /48.
#pragma once

#include <utility>
#include <vector>

#include "bgp/feed.hpp"
#include "net/prefix.hpp"
#include "sim/time.hpp"

namespace v6t::bgp {

/// One two-week (configurable) announcement period.
struct AnnouncementCycle {
  int index = 0; // 0 = the baseline period (base prefix only)
  sim::SimTime withdrawAt; // all prefixes withdrawn (skipped for index 0)
  sim::SimTime announceAt; // new set announced / cycle starts
  sim::SimTime endsAt; // start of the next withdraw
  net::Prefix splitParent; // prefix replaced this cycle (index >= 1)
  std::pair<net::Prefix, net::Prefix> newChildren; // its two children
  std::vector<net::Prefix> announced; // full set live during this cycle
};

/// Static computation of the whole schedule. Pure data; the runner's
/// control-plane script and the controller below replay it.
class SplitSchedule {
public:
  struct Params {
    net::Prefix base; // e.g. 3fff:100::/32 (documentation range)
    sim::SimTime start; // first announcement of the base prefix
    sim::Duration baseline = sim::weeks(12); // stable initial period
    sim::Duration cycle = sim::weeks(2); // announcement period length
    sim::Duration withdrawGap = sim::days(1); // dark day between cycles
    int splits = 16; // number of split cycles
  };

  [[nodiscard]] static SplitSchedule make(const Params& params);

  [[nodiscard]] const std::vector<AnnouncementCycle>& cycles() const {
    return cycles_;
  }
  [[nodiscard]] const Params& params() const { return params_; }

  /// The cycle live at time `t`, or nullptr during a withdraw gap / before
  /// the start.
  [[nodiscard]] const AnnouncementCycle* cycleAt(sim::SimTime t) const;

  /// Every prefix that is ever announced, in first-announcement order.
  [[nodiscard]] std::vector<net::Prefix> allPrefixesEverAnnounced() const;

  /// Time of the last cycle's end.
  [[nodiscard]] sim::SimTime endOfExperiment() const;

private:
  Params params_;
  std::vector<AnnouncementCycle> cycles_;
};

/// Drives a BgpFeed through a SplitSchedule: schedules every withdraw-day
/// and announcement on the engine. This is the stand-in for the authors'
/// automated FRR reconfiguration. The experiment runner does not use it —
/// it replays core::controlPlaneScript() instead — so the controller is
/// kept as that script's oracle: test_fault checks that both send the
/// same ordered update sequence.
class SplitController {
public:
  SplitController(sim::Engine& engine, BgpFeed& feed, SplitSchedule schedule,
                  net::Asn origin);

  /// Install all schedule events on the engine. Call once, before run().
  void arm();

  [[nodiscard]] const SplitSchedule& schedule() const { return schedule_; }

private:
  sim::Engine& engine_;
  BgpFeed& feed_;
  SplitSchedule schedule_;
  net::Asn origin_;
  bool armed_ = false;
};

} // namespace v6t::bgp
