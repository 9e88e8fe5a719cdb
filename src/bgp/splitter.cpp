#include "bgp/splitter.hpp"

#include <algorithm>

namespace v6t::bgp {

SplitSchedule SplitSchedule::make(const Params& params) {
  SplitSchedule schedule;
  schedule.params_ = params;

  // Cycle 0: the baseline — only the base prefix, no preceding withdraw.
  AnnouncementCycle baseline;
  baseline.index = 0;
  baseline.withdrawAt = params.start; // no gap before the first announcement
  baseline.announceAt = params.start;
  baseline.endsAt = params.start + params.baseline;
  baseline.announced = {params.base};
  schedule.cycles_.push_back(baseline);

  // The split chain: `chainHead` is the prefix that gets split next — by
  // construction the child that does not contain its parent's low-byte
  // address (the upper child, since the low-byte address ::1 sits in the
  // lower half).
  std::vector<net::Prefix> keep; // lower children, kept announced
  net::Prefix chainHead = params.base;
  sim::SimTime cursor = baseline.endsAt;

  for (int i = 1; i <= params.splits; ++i) {
    const auto [lower, upper] = chainHead.split();

    AnnouncementCycle cycle;
    cycle.index = i;
    cycle.withdrawAt = cursor;
    cycle.announceAt = cursor + params.withdrawGap;
    cycle.endsAt = cycle.announceAt + params.cycle;
    cycle.splitParent = chainHead;
    cycle.newChildren = {lower, upper};

    keep.push_back(lower);
    cycle.announced = keep;
    cycle.announced.push_back(upper);

    schedule.cycles_.push_back(std::move(cycle));
    chainHead = upper;
    cursor = schedule.cycles_.back().endsAt;
  }
  return schedule;
}

const AnnouncementCycle* SplitSchedule::cycleAt(sim::SimTime t) const {
  for (const AnnouncementCycle& c : cycles_) {
    if (t >= c.announceAt && t < c.endsAt) return &c;
  }
  return nullptr;
}

std::vector<net::Prefix> SplitSchedule::allPrefixesEverAnnounced() const {
  std::vector<net::Prefix> out;
  for (const AnnouncementCycle& c : cycles_) {
    for (const net::Prefix& p : c.announced) {
      if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
    }
  }
  return out;
}

sim::SimTime SplitSchedule::endOfExperiment() const {
  return cycles_.back().endsAt;
}

SplitController::SplitController(sim::Engine& engine, BgpFeed& feed,
                                 SplitSchedule schedule, net::Asn origin)
    : engine_(engine),
      feed_(feed),
      schedule_(std::move(schedule)),
      origin_(origin) {}

void SplitController::arm() {
  if (armed_) return;
  armed_ = true;
  // Actions capture the cycle index, not a copy of the cycle: a cycle's
  // prefix vector would not fit an engine action (DESIGN.md §11).
  const std::vector<AnnouncementCycle>& cycles = schedule_.cycles();
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    if (i > 0) {
      // Withdraw-day: pull everything announced during the previous cycle.
      engine_.schedule(cycles[i].withdrawAt, [this, i]() {
        for (const net::Prefix& p : schedule_.cycles()[i - 1].announced) {
          feed_.withdraw(p);
        }
      });
    }
    engine_.schedule(cycles[i].announceAt, [this, i]() {
      for (const net::Prefix& p : schedule_.cycles()[i].announced) {
        feed_.announce(p, origin_);
      }
    });
  }
}

} // namespace v6t::bgp
