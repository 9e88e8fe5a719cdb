// Tests for the BGP substrate: RIB, update feed, the Fig. 2 split
// schedule, hitlist service, and IRR/RPKI registries.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/hitlist.hpp"
#include "bgp/rib.hpp"
#include "bgp/route_object.hpp"
#include "bgp/splitter.hpp"

namespace v6t::bgp {
namespace {

using net::Ipv6Address;
using net::Prefix;

TEST(Rib, AnnounceWithdrawLookup) {
  Rib rib;
  rib.announce(Prefix::mustParse("2001:db8::/32"), net::Asn{65001},
               sim::SimTime{0});
  rib.announce(Prefix::mustParse("2001:db8:5::/48"), net::Asn{65002},
               sim::SimTime{10});

  auto route = rib.lookup(Ipv6Address::mustParse("2001:db8:5::1"));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->first.length(), 48u);
  EXPECT_EQ(route->second.origin, net::Asn{65002});

  route = rib.lookup(Ipv6Address::mustParse("2001:db8:6::1"));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->second.origin, net::Asn{65001});

  EXPECT_FALSE(rib.isRoutable(Ipv6Address::mustParse("2001:db9::1")));

  rib.withdraw(Prefix::mustParse("2001:db8:5::/48"));
  route = rib.lookup(Ipv6Address::mustParse("2001:db8:5::1"));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->second.origin, net::Asn{65001}); // falls back to /32
  EXPECT_EQ(rib.announceCount(), 2u);
  EXPECT_EQ(rib.withdrawCount(), 1u);
}

TEST(Rib, WithdrawUnknownIsNoop) {
  Rib rib;
  rib.withdraw(Prefix::mustParse("2001:db8::/32"));
  EXPECT_EQ(rib.withdrawCount(), 0u);
  EXPECT_EQ(rib.size(), 0u);
}

TEST(Rib, AnnouncedRoutesOrderedByAddressThenLength) {
  // Routes announced at one instant: the scanners' bootstrap stable-sorts
  // by announcement time, so this listing order is what reaches them. A
  // covering route comes before the routes it covers (nested ones), and
  // disjoint routes go in address order (siblings) — so a /32 can come
  // last, after a more specific /48.
  Rib rib;
  const sim::SimTime t{5};
  for (const char* text : {"2001:db9::/32", "2001:db8:1::/48",
                           "2001:db8:8000::/33", "2001:db8::/48",
                           "2001:db8::/32", "2001:db8::/33"}) {
    rib.announce(Prefix::mustParse(text), net::Asn{65001}, t);
  }
  std::vector<std::string> listed;
  for (const auto& [prefix, entry] : rib.announcedRoutes()) {
    EXPECT_EQ(entry.announcedAt, t);
    listed.push_back(prefix.toString());
  }
  EXPECT_EQ(listed, (std::vector<std::string>{
                        "2001:db8::/32", "2001:db8::/33", "2001:db8::/48",
                        "2001:db8:1::/48", "2001:db8:8000::/33",
                        "2001:db9::/32"}));
}

TEST(BgpFeed, DelayedDelivery) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 1};
  std::vector<sim::SimTime> arrivals;
  feed.subscribe(PropagationModel{sim::minutes(10), sim::minutes(5)},
                 [&](const BgpUpdate& u) {
                   EXPECT_EQ(u.kind, UpdateKind::Announce);
                   arrivals.push_back(engine.now());
                 });
  engine.schedule(sim::SimTime{0}, [&] {
    feed.announce(Prefix::mustParse("2001:db8::/32"), net::Asn{65001});
  });
  engine.runAll();
  // RIB changes immediately; the subscriber sees it after its lag.
  EXPECT_TRUE(rib.isRoutable(Ipv6Address::mustParse("2001:db8::1")));
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_GE(arrivals[0], sim::kEpoch + sim::minutes(10));
  EXPECT_LE(arrivals[0], sim::kEpoch + sim::minutes(15));
}

TEST(BgpFeed, CallbackMaySubscribeOthers) {
  // The first subscriber's first delivery subscribes 64 newcomers — enough
  // to move every element of a reallocating container — while a later
  // subscriber's delivery of the same update is still pending. The running
  // callback must survive that (the sanitizer build checks its captures
  // are still live), the pending delivery must still arrive, the
  // newcomers hear only later updates, and same-instant notifications
  // arrive in subscription order.
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 4};
  struct State {
    BgpFeed* feed = nullptr;
    std::vector<BgpFeed::SubscriberId> newcomers;
    std::vector<std::string> log;
  } state{&feed, {}, {}};
  const PropagationModel oneMinute{sim::minutes(1), {}};
  // Captures one pointer, so std::function keeps it inside the subscriber
  // record itself.
  const BgpFeed::SubscriberId first =
      feed.subscribe(oneMinute, [s = &state](const BgpUpdate&) {
        if (s->newcomers.empty()) {
          for (int i = 0; i < 64; ++i) {
            s->newcomers.push_back(s->feed->subscribe(
                PropagationModel{sim::minutes(1), {}},
                [s, i](const BgpUpdate&) {
                  s->log.push_back("new" + std::to_string(i));
                }));
          }
        }
        s->log.push_back("first");
      });
  const BgpFeed::SubscriberId second = feed.subscribe(
      PropagationModel{sim::minutes(2), {}},
      [s = &state](const BgpUpdate&) { s->log.push_back("second"); });
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 2u);

  feed.announce(Prefix::mustParse("2001:db8::/32"), net::Asn{65001});
  engine.run(sim::kEpoch + sim::minutes(10));
  ASSERT_EQ(state.newcomers.size(), 64u);
  EXPECT_EQ(state.newcomers.front(), 3u); // ids stay dense
  EXPECT_EQ(state.log, (std::vector<std::string>{"first", "second"}));

  // Every subscriber but the second draws the same one-minute lag, so the
  // second update reaches them at one instant, in id order.
  feed.withdraw(Prefix::mustParse("2001:db8::/32"));
  engine.runAll();
  std::vector<std::string> expected{"first", "second", "first"};
  for (int i = 0; i < 64; ++i) expected.push_back("new" + std::to_string(i));
  expected.push_back("second");
  EXPECT_EQ(state.log, expected);
}

TEST(BgpFeed, WithdrawCarriesOrigin) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 3};
  std::vector<BgpUpdate> seen;
  feed.subscribe(PropagationModel{sim::seconds(1), {}},
                 [&](const BgpUpdate& u) { seen.push_back(u); });
  feed.announce(Prefix::mustParse("2001:db8::/32"), net::Asn{65009});
  feed.withdraw(Prefix::mustParse("2001:db8::/32"));
  engine.runAll();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].kind, UpdateKind::Withdraw);
  EXPECT_EQ(seen[1].origin, net::Asn{65009});
}

// ------------------------------------------- fan-out differential check

/// One engine event per subscriber per update, scheduled in id order at
/// publish. It delivers everything and never asks a subscriber's `ignores`
/// predicate: the callback itself does nothing for what it ignores. BgpFeed
/// leaves those deliveries out at publish and must reproduce this delivery
/// for delivery, including the order against unrelated events at the same
/// instant.
class OneEventPerDeliveryFeed {
public:
  using SubscriberId = std::uint64_t;

  OneEventPerDeliveryFeed(sim::Engine& engine, Rib& rib, std::uint64_t seed)
      : engine_(engine), rib_(rib), seed_(seed) {}

  SubscriberId subscribe(PropagationModel model, std::uint64_t streamKey,
                         BgpFeed::Callback cb, BgpFeed::Ignores = nullptr) {
    subscribers_.push_back(
        Subscriber{model, std::move(cb),
                   sim::Rng{sim::deriveStreamSeed(seed_, streamKey)}});
    return subscribers_.size();
  }
  void bindMetrics(obs::Registry& registry) {
    deliveries_ = &registry.counter("bgp.feed.deliveries_total");
  }
  void announce(const Prefix& prefix, net::Asn origin) {
    const sim::SimTime now = engine_.now();
    rib_.announce(prefix, origin, now);
    publish(BgpUpdate{UpdateKind::Announce, prefix, origin, now, now,
                      updateSeq_++, 0});
  }
  void withdraw(const Prefix& prefix) {
    const sim::SimTime now = engine_.now();
    const RouteEntry* entry = rib_.findExact(prefix);
    const net::Asn origin = entry != nullptr ? entry->origin : net::Asn{};
    rib_.withdraw(prefix);
    publish(BgpUpdate{UpdateKind::Withdraw, prefix, origin, now, now,
                      updateSeq_++, 0});
  }

private:
  struct Subscriber {
    PropagationModel model;
    BgpFeed::Callback cb;
    sim::Rng rng;
  };

  void publish(const BgpUpdate& update) {
    const std::size_t index = published_.size();
    published_.push_back(update);
    for (std::size_t sub = 0; sub < subscribers_.size(); ++sub) {
      Subscriber& s = subscribers_[sub];
      const sim::SimTime ts = engine_.now() + s.model.sample(s.rng);
      deliveries_->inc();
      engine_.schedule(ts, [this, sub, index, ts] {
        BgpUpdate delivered = published_[index];
        delivered.ts = ts;
        subscribers_[sub].cb(delivered);
      });
    }
  }

  sim::Engine& engine_;
  Rib& rib_;
  std::uint64_t seed_;
  std::uint64_t updateSeq_ = 0;
  std::deque<Subscriber> subscribers_;
  std::vector<BgpUpdate> published_;
  obs::Counter* deliveries_ = nullptr;
};

/// One seeded scenario against feed type `Feed`, returning its dispatch
/// log. Lags are a few milliseconds (half the subscribers have no jitter)
/// and every action lands on a handful of instants, so deliveries tie with
/// each other and with unrelated events scheduled before, during and after
/// each publish. One callback publishes (two updates at a time, so the
/// update log grows mid-callback) and one subscribes. Some subscribers
/// ignore prefixes: each keeps a set that only grows, from its own
/// callback, and passes it as its `ignores` predicate; its callback does
/// nothing for those prefixes.
template <typename Feed>
class FeedScenario {
public:
  explicit FeedScenario(std::uint64_t seed)
      : feed_{engine_, rib_, seed}, rng_{seed ^ 0x5ca1ab1eULL} {
    feed_.bindMetrics(metrics_);
  }

  std::vector<std::string> run() {
    const std::size_t n = rng_.below(120);
    for (std::size_t i = 0; i < n; ++i) subscribeOne(i + 1);
    publisher_ = rng_.below(n + 1); // == n: nobody
    joiner_ = rng_.below(n + 1);
    for (int k = 0; k < 30; ++k) {
      unrelatedAt(sim::SimTime{static_cast<std::int64_t>(rng_.below(30))});
    }
    for (int k = 0; k < 8; ++k) {
      engine_.schedule(
          sim::SimTime{static_cast<std::int64_t>(rng_.below(20))},
          [this] { publish(); });
    }
    engine_.runAll();
    return std::move(log_);
  }

  [[nodiscard]] double counter(std::string_view name) const {
    return metrics_.value(name).value_or(0.0);
  }

private:
  void subscribeOne(std::uint64_t key) {
    const sim::Duration jitter =
        rng_.chance(0.5) ? sim::Duration{}
                         : sim::millis(static_cast<std::int64_t>(
                               1 + rng_.below(4)));
    const PropagationModel model{
        sim::millis(static_cast<std::int64_t>(rng_.below(3))), jitter};
    const std::size_t tag = ignored_.size();
    ignored_.emplace_back();
    BgpFeed::Ignores ignores;
    if (rng_.chance(0.4)) {
      ignoring_.insert(tag);
      ignores = [this, tag](const Prefix& p) {
        return ignored_[tag].contains(p);
      };
    }
    feed_.subscribe(
        model, key, [this, tag](const BgpUpdate& u) { onDelivery(tag, u); },
        std::move(ignores));
  }

  void publish() {
    const std::uint64_t slot = rng_.below(4);
    const Prefix prefix{Ipv6Address{0x2001'0db8'0000'0000ULL | slot << 16, 0},
                        48};
    if (rng_.chance(0.3)) {
      feed_.withdraw(prefix);
    } else {
      feed_.announce(prefix, net::Asn{static_cast<std::uint32_t>(65000 + slot)});
    }
    for (int k = 0; k < 3; ++k) {
      unrelatedAt(engine_.now() +
                  sim::millis(static_cast<std::int64_t>(rng_.below(6))));
    }
  }

  void unrelatedAt(sim::SimTime when) {
    const std::uint64_t tag = events_++;
    engine_.schedule(when, [this, tag] {
      log_.push_back(stamp() + " event " + std::to_string(tag));
    });
  }

  void onDelivery(std::size_t tag, const BgpUpdate& u) {
    if (ignored_[tag].contains(u.prefix)) return;
    log_.push_back(stamp() + " sub " + std::to_string(tag) + " " +
                   u.toString() + " seq " + std::to_string(u.seq));
    // From the next publish on, the fan-out leaves this prefix's
    // deliveries to `tag` out.
    if (ignoring_.contains(tag) && rng_.chance(0.25)) {
      ignored_[tag].insert(u.prefix);
    }
    if (tag == publisher_ && publishedFromCallback_ < 6) {
      ++publishedFromCallback_;
      publish();
      publish();
    }
    if (tag == joiner_ && joined_ < 4) {
      ++joined_;
      subscribeOne(10'000 + joined_);
    }
    if (rng_.chance(0.2)) unrelatedAt(engine_.now());
  }

  [[nodiscard]] std::string stamp() const {
    return "t=" + std::to_string(engine_.now().millis());
  }

  sim::Engine engine_;
  Rib rib_;
  obs::Registry metrics_;
  Feed feed_;
  sim::Rng rng_;
  std::set<std::size_t> ignoring_; // tags that passed a predicate
  std::vector<std::set<Prefix>> ignored_; // tag -> prefixes it ignores
  std::vector<std::string> log_;
  std::size_t publisher_ = 0;
  std::size_t joiner_ = 0;
  int publishedFromCallback_ = 0;
  int joined_ = 0;
  std::uint64_t events_ = 0;
};

TEST(BgpFeed, RunFanOutMatchesOneEventPerDeliveryReference) {
  std::size_t deliveries = 0;
  double skipped = 0.0;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    FeedScenario<BgpFeed> fanOut{seed};
    FeedScenario<OneEventPerDeliveryFeed> reference{seed};
    const std::vector<std::string> got = fanOut.run();
    const std::vector<std::string> want = reference.run();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " line " << i;
    }
    // A skipped delivery still counts: its lag was drawn.
    EXPECT_EQ(fanOut.counter("bgp.feed.deliveries_total"),
              reference.counter("bgp.feed.deliveries_total"))
        << "seed " << seed;
    skipped += fanOut.counter("bgp.feed.deliveries_skipped_total");
    deliveries += static_cast<std::size_t>(
        std::count_if(got.begin(), got.end(), [](const std::string& line) {
          return line.find(" sub ") != std::string::npos;
        }));
  }
  EXPECT_GT(deliveries, 10'000u); // the scenarios are not vacuous
  EXPECT_GT(skipped, 1'000.0); // nor is the skipping
}

// ------------------------------------------------------------ SplitSchedule

SplitSchedule::Params scheduleParams() {
  SplitSchedule::Params params;
  params.base = Prefix::mustParse("2001:db8::/32");
  params.start = sim::kEpoch;
  params.baseline = sim::weeks(12);
  params.cycle = sim::weeks(2);
  params.withdrawGap = sim::days(1);
  params.splits = 16;
  return params;
}

TEST(SplitSchedule, PaperShape) {
  const SplitSchedule schedule = SplitSchedule::make(scheduleParams());
  ASSERT_EQ(schedule.cycles().size(), 17u); // baseline + 16 splits

  // Final cycle: 17 prefixes, most specific /48.
  const AnnouncementCycle& last = schedule.cycles().back();
  EXPECT_EQ(last.announced.size(), 17u);
  unsigned maxLen = 0;
  for (const Prefix& p : last.announced) maxLen = std::max(maxLen, p.length());
  EXPECT_EQ(maxLen, 48u);

  // Each cycle adds exactly one prefix.
  for (std::size_t i = 1; i < schedule.cycles().size(); ++i) {
    EXPECT_EQ(schedule.cycles()[i].announced.size(), i + 1);
  }
}

TEST(SplitSchedule, SplitsAvoidLowByteChild) {
  // The child containing the parent's low-byte (::1) address is kept; the
  // other child is split next (§3.1).
  const SplitSchedule schedule = SplitSchedule::make(scheduleParams());
  for (std::size_t i = 1; i + 1 < schedule.cycles().size(); ++i) {
    const AnnouncementCycle& cycle = schedule.cycles()[i];
    const AnnouncementCycle& next = schedule.cycles()[i + 1];
    const auto [lower, upper] = cycle.splitParent.split();
    EXPECT_TRUE(lower.contains(cycle.splitParent.lowByteAddress()));
    EXPECT_EQ(next.splitParent, upper); // the non-low-byte child is split
  }
}

TEST(SplitSchedule, AllButTwoDifferInSize) {
  const SplitSchedule schedule = SplitSchedule::make(scheduleParams());
  const auto& last = schedule.cycles().back().announced;
  std::map<unsigned, int> byLength;
  for (const Prefix& p : last) ++byLength[p.length()];
  int pairs = 0;
  for (const auto& [len, count] : byLength) {
    if (count == 2) ++pairs;
    else EXPECT_EQ(count, 1);
  }
  EXPECT_EQ(pairs, 1); // exactly the two /48s share a size
}

TEST(SplitSchedule, Timing) {
  const SplitSchedule schedule = SplitSchedule::make(scheduleParams());
  const auto& cycles = schedule.cycles();
  EXPECT_EQ(cycles[0].announceAt, sim::kEpoch);
  EXPECT_EQ(cycles[0].endsAt, sim::kEpoch + sim::weeks(12));
  EXPECT_EQ(cycles[1].withdrawAt, cycles[0].endsAt);
  EXPECT_EQ(cycles[1].announceAt, cycles[0].endsAt + sim::days(1));
  EXPECT_EQ(cycles[1].endsAt, cycles[1].announceAt + sim::weeks(2));
  // cycleAt: inside a cycle, in the withdraw gap, before start.
  EXPECT_EQ(schedule.cycleAt(sim::kEpoch + sim::weeks(1)), &cycles[0]);
  EXPECT_EQ(schedule.cycleAt(cycles[1].withdrawAt + sim::hours(2)), nullptr);
  EXPECT_EQ(schedule.cycleAt(cycles[1].announceAt), &cycles[1]);
}

TEST(SplitSchedule, AllPrefixesEverAnnounced) {
  const SplitSchedule schedule = SplitSchedule::make(scheduleParams());
  // 1 (/32) + 2 new per cycle except they share... base + 16 cycles à 2 new
  // children = 33 distinct prefixes.
  EXPECT_EQ(schedule.allPrefixesEverAnnounced().size(), 33u);
}

TEST(SplitController, DrivesRib) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 4};
  SplitSchedule::Params params = scheduleParams();
  params.splits = 3;
  SplitController controller{engine, feed, SplitSchedule::make(params),
                             net::Asn{65001}};
  controller.arm();

  // During the baseline: only the /32.
  engine.run(sim::kEpoch + sim::weeks(1));
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_TRUE(rib.isRoutable(Ipv6Address::mustParse("2001:db8::1")));

  // On the withdraw day: nothing routable.
  engine.run(sim::kEpoch + sim::weeks(12) + sim::hours(2));
  EXPECT_EQ(rib.size(), 0u);
  EXPECT_FALSE(rib.isRoutable(Ipv6Address::mustParse("2001:db8::1")));

  // First split cycle: two /33s.
  engine.run(sim::kEpoch + sim::weeks(13));
  EXPECT_EQ(rib.size(), 2u);
  EXPECT_TRUE(rib.isRoutable(Ipv6Address::mustParse("2001:db8::1")));
  EXPECT_TRUE(rib.isRoutable(Ipv6Address::mustParse("2001:db8:8000::1")));

  // Last cycle of this shortened schedule: 4 prefixes.
  engine.run(controller.schedule().endOfExperiment());
  EXPECT_EQ(rib.size(), 4u);
}

// ------------------------------------------------------------- Hitlist

TEST(Hitlist, ListsAfterDelay) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 5};
  HitlistService::Params params;
  params.listingDelay = sim::days(5);
  params.jitter = sim::days(2);
  HitlistService hitlist{engine, feed, params, 6};

  std::vector<std::pair<Prefix, sim::SimTime>> listed;
  hitlist.onListed([&](const Prefix& p, sim::SimTime t) {
    listed.emplace_back(p, t);
  });

  const Prefix p = Prefix::mustParse("2001:db8::/32");
  engine.schedule(sim::SimTime{0}, [&] { feed.announce(p, net::Asn{65001}); });
  engine.run(sim::kEpoch + sim::days(4));
  EXPECT_FALSE(hitlist.listings().contains(p));
  engine.run(sim::kEpoch + sim::days(10));
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_GE(listed[0].second, sim::kEpoch + sim::days(5));
  EXPECT_LE(listed[0].second, sim::kEpoch + sim::days(7) + sim::hours(1));
  ASSERT_TRUE(hitlist.listings().contains(p));
  EXPECT_EQ(hitlist.listings().at(p), listed[0].second);
}

TEST(Hitlist, ReannouncementKeepsEntry) {
  sim::Engine engine;
  Rib rib;
  BgpFeed feed{engine, rib, 7};
  HitlistService hitlist{engine, feed, {}, 8};
  const Prefix p = Prefix::mustParse("2001:db8::/32");
  engine.schedule(sim::SimTime{0}, [&] { feed.announce(p, net::Asn{65001}); });
  engine.run(sim::kEpoch + sim::days(14));
  ASSERT_TRUE(hitlist.listings().contains(p));
  const sim::SimTime first = hitlist.listings().at(p);
  // Withdraw + re-announce: the listing time must not change.
  feed.withdraw(p);
  feed.announce(p, net::Asn{65001});
  engine.run(sim::kEpoch + sim::days(30));
  EXPECT_EQ(hitlist.listings().at(p), first);
  EXPECT_EQ(hitlist.listings().size(), 1u);
}

// ------------------------------------------------------------ IRR / RPKI

TEST(Irr, Route6Lookup) {
  IrrRegistry irr;
  const Prefix p = Prefix::mustParse("2001:db8::/33");
  irr.addRoute6(p, net::Asn{65001}, sim::SimTime{100});
  EXPECT_FALSE(irr.hasRoute6(p, net::Asn{65001}, sim::SimTime{50}));
  EXPECT_TRUE(irr.hasRoute6(p, net::Asn{65001}, sim::SimTime{100}));
  EXPECT_FALSE(irr.hasRoute6(p, net::Asn{65002}, sim::SimTime{100}));
  // A covering route object validates the more-specific announcement too.
  EXPECT_TRUE(irr.hasRoute6(Prefix::mustParse("2001:db8:0:1::/64"),
                            net::Asn{65001}, sim::SimTime{200}));
}

TEST(Irr, RpkiValidation) {
  IrrRegistry irr;
  EXPECT_EQ(irr.validate(Prefix::mustParse("2001:db8::/32"), net::Asn{65001},
                         sim::SimTime{0}),
            RpkiValidity::NotFound);
  irr.addRoa(Prefix::mustParse("2001:db8::/32"), 40, net::Asn{65001},
             sim::SimTime{0});
  EXPECT_EQ(irr.validate(Prefix::mustParse("2001:db8::/32"), net::Asn{65001},
                         sim::SimTime{1}),
            RpkiValidity::Valid);
  // Too specific for maxLength.
  EXPECT_EQ(irr.validate(Prefix::mustParse("2001:db8:5::/48"),
                         net::Asn{65001}, sim::SimTime{1}),
            RpkiValidity::Invalid);
  // Wrong origin.
  EXPECT_EQ(irr.validate(Prefix::mustParse("2001:db8::/32"), net::Asn{65002},
                         sim::SimTime{1}),
            RpkiValidity::Invalid);
  // Uncovered space.
  EXPECT_EQ(irr.validate(Prefix::mustParse("2001:db9::/32"), net::Asn{65001},
                         sim::SimTime{1}),
            RpkiValidity::NotFound);
}

} // namespace
} // namespace v6t::bgp

