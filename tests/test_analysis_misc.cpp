// Tests for DBSCAN, autocorrelation period detection (against a dense
// integer oracle), descriptive stats (the membership fold against the
// std::set UpSet it replaced), report rendering, and heavy-hitter
// detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "analysis/autocorr.hpp"
#include "analysis/dbscan.hpp"
#include "analysis/heavy_hitter.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "sim/rng.hpp"

namespace v6t::analysis {
namespace {

// ---------------------------------------------------------------- DBSCAN

TEST(Dbscan, TwoBlobsAndNoise) {
  // 1-D points: blob at ~0, blob at ~100, one lonely point at 50.
  std::vector<double> xs{0.0, 0.1, 0.2, 0.3, 100.0, 100.1, 100.2, 50.0};
  const auto result =
      dbscan(xs.size(), 1.0, 3, [&](std::size_t a, std::size_t b) {
        return std::abs(xs[a] - xs[b]);
      });
  EXPECT_EQ(result.clusterCount, 2);
  EXPECT_EQ(result.label[0], result.label[1]);
  EXPECT_EQ(result.label[1], result.label[2]);
  EXPECT_EQ(result.label[4], result.label[5]);
  EXPECT_NE(result.label[0], result.label[4]);
  EXPECT_EQ(result.label[7], kDbscanNoise);
  EXPECT_EQ(result.noiseCount(), 1u);
}

TEST(Dbscan, ChainsThroughDensity) {
  // A dense chain should become one cluster via expansion.
  std::vector<double> xs;
  for (int i = 0; i < 20; ++i) xs.push_back(i * 0.5);
  const auto result =
      dbscan(xs.size(), 0.6, 2, [&](std::size_t a, std::size_t b) {
        return std::abs(xs[a] - xs[b]);
      });
  EXPECT_EQ(result.clusterCount, 1);
  EXPECT_EQ(result.noiseCount(), 0u);
}

TEST(Dbscan, AllNoiseWhenSparse) {
  std::vector<double> xs{0, 10, 20, 30};
  const auto result =
      dbscan(xs.size(), 1.0, 2, [&](std::size_t a, std::size_t b) {
        return std::abs(xs[a] - xs[b]);
      });
  EXPECT_EQ(result.clusterCount, 0);
  EXPECT_EQ(result.noiseCount(), 4u);
}

TEST(Dbscan, EmptyInput) {
  const auto result = dbscan(0, 1.0, 2, [](std::size_t, std::size_t) {
    return 0.0;
  });
  EXPECT_EQ(result.clusterCount, 0);
  EXPECT_TRUE(result.label.empty());
}

TEST(Dbscan, MinPtsOneMakesEverythingCore) {
  std::vector<double> xs{0, 10, 20};
  const auto result =
      dbscan(xs.size(), 1.0, 1, [&](std::size_t a, std::size_t b) {
        return std::abs(xs[a] - xs[b]);
      });
  EXPECT_EQ(result.clusterCount, 3);
  EXPECT_EQ(result.noiseCount(), 0u);
}

// ----------------------------------------------------------- autocorr

TEST(Autocorr, DetectsDailyPeriod) {
  std::vector<sim::SimTime> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(sim::kEpoch + sim::days(i));
  }
  const auto period = detectPeriod(events);
  ASSERT_TRUE(period.has_value());
  EXPECT_NEAR(period->hours(), 24.0, 2.0);
}

TEST(Autocorr, DetectsJitteredPeriod) {
  sim::Rng rng{51};
  std::vector<sim::SimTime> events;
  for (int i = 0; i < 30; ++i) {
    const auto jitter =
        static_cast<std::int64_t>((rng.uniform() - 0.5) * 2 * 3.6e6);
    events.push_back(sim::kEpoch + sim::hours(12 * i) + sim::millis(jitter));
  }
  const auto period = detectPeriod(events);
  ASSERT_TRUE(period.has_value());
  EXPECT_NEAR(period->hours(), 12.0, 2.0);
}

TEST(Autocorr, NoPeriodInPoissonArrivals) {
  sim::Rng rng{52};
  std::vector<sim::SimTime> events;
  sim::SimTime t = sim::kEpoch;
  for (int i = 0; i < 60; ++i) {
    t += sim::millis(static_cast<std::int64_t>(rng.exponential(8.64e7)));
    events.push_back(t);
  }
  EXPECT_FALSE(detectPeriod(events).has_value());
}

TEST(Autocorr, TooFewEvents) {
  EXPECT_FALSE(detectPeriod({}).has_value());
  const std::vector<sim::SimTime> two{sim::kEpoch, sim::kEpoch + sim::days(1)};
  EXPECT_FALSE(detectPeriod(two).has_value());
}

TEST(Autocorr, ConstantSeriesHasNoPeriod) {
  // Two starts 1 ms apart in each of 12 hourly bins: the median gap is
  // 1 ms, so the gap test declines, and the binned series is constant,
  // with no autocorrelation to peak.
  std::vector<sim::SimTime> events;
  for (int h = 0; h < 12; ++h) {
    events.push_back(sim::kEpoch + sim::hours(h));
    events.push_back(sim::kEpoch + sim::hours(h) + sim::millis(1));
  }
  EXPECT_FALSE(detectPeriod(events).has_value());
}

TEST(Autocorr, TieAtThresholdIsPeriodic) {
  // Starts in bins 0, 23 and 44 of 45: r_21 = 1701/5670, exactly 3/10, and
  // a local maximum. Two gaps are too few for the gap test, so this is the
  // binned test's tie rule: a tie qualifies.
  const std::vector<sim::SimTime> events{sim::kEpoch,
                                         sim::kEpoch + sim::hours(23),
                                         sim::kEpoch + sim::hours(44)};
  const auto period = detectPeriod(events);
  ASSERT_TRUE(period.has_value());
  EXPECT_EQ(period->millis(), sim::hours(21).millis());
}

TEST(Autocorr, TieWithNeighbourIsPeriodic) {
  // Whole-hour starts (bin numbers, repeats share a bin) whose first
  // qualifying lag equals its neighbour exactly: r_1 = r_2 in the first
  // series, r_3 = r_4 in the second. A tie counts as a local maximum.
  const auto starts = [](std::initializer_list<int> bins) {
    std::vector<sim::SimTime> events;
    for (const int b : bins) events.push_back(sim::kEpoch + sim::hours(b));
    return events;
  };
  const auto left = detectPeriod(starts({0, 5, 5, 6, 7, 7, 8, 8, 9, 10, 10}));
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(left->millis(), sim::hours(2).millis());
  const auto right = detectPeriod(starts({0, 0, 1, 3, 4, 4, 7, 7}));
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(right->millis(), sim::hours(3).millis());
}

TEST(Autocorr, GapAtExactlyThirtyPercentTakesFastPath) {
  // Median gap m with 3m/10 an integer; the gap test returns m itself,
  // which is no whole number of hours, so no binned result can match it.
  const std::int64_t m = sim::hours(10).millis() + 10;
  const std::int64_t tol = 3 * m / 10;
  ASSERT_EQ(10 * tol, 3 * m);
  for (const std::int64_t extra : {tol, -tol}) {
    std::vector<sim::SimTime> events{sim::kEpoch};
    for (const std::int64_t gap : {m, m + extra, m, m}) {
      events.push_back(events.back() + sim::millis(gap));
    }
    const auto period = detectPeriod(events);
    ASSERT_TRUE(period.has_value()) << "extra " << extra;
    EXPECT_EQ(period->millis(), m) << "extra " << extra;
  }
  // One millisecond further out fails the gap test.
  std::vector<sim::SimTime> events{sim::kEpoch};
  for (const std::int64_t gap : {m, m + tol + 1, m, m}) {
    events.push_back(events.back() + sim::millis(gap));
  }
  const auto period = detectPeriod(events);
  EXPECT_TRUE(!period.has_value() || period->millis() != m);
}

/// The detector written the textbook way, as the oracle: the same gap
/// test, then the dense ACF over the whole hourly count series with every
/// term scaled by n² so it is an integer,
///   num_k = Σ_{i<n-k} (n·x_i - N)(n·x_{i+k} - N),  den = Σ (n·x_i - N)²,
/// and the first k in [2, n/2) with 10·num_k >= 3·den and num_k no smaller
/// than either neighbor. `binned` reports whether the gap test declined.
std::optional<std::int64_t> oraclePeriodMillis(std::vector<sim::SimTime> ev,
                                               bool& binned) {
  binned = false;
  if (ev.size() < 3) return std::nullopt;
  std::sort(ev.begin(), ev.end());
  std::vector<std::int64_t> gaps;
  for (std::size_t i = 1; i < ev.size(); ++i) {
    gaps.push_back((ev[i] - ev[i - 1]).millis());
  }
  std::vector<std::int64_t> byValue = gaps;
  std::sort(byValue.begin(), byValue.end());
  const std::int64_t median = byValue[byValue.size() / 2];
  bool within = median > 0 && gaps.size() >= 3;
  for (const std::int64_t g : gaps) {
    within = within && 10 * std::abs(g - median) <= 3 * median;
  }
  if (within) return median;

  binned = true;
  using Wide = __int128;
  const std::int64_t hour = sim::hours(1).millis();
  const auto n = static_cast<std::size_t>(
      (ev.back().millis() - ev.front().millis()) / hour + 1);
  std::vector<Wide> c(n, 0); // n·x_i - N
  for (const sim::SimTime t : ev) {
    c[static_cast<std::size_t>((t.millis() - ev.front().millis()) / hour)] +=
        static_cast<Wide>(n);
  }
  for (Wide& x : c) x -= static_cast<Wide>(ev.size());
  Wide den = 0;
  for (const Wide x : c) den += x * x;
  const std::size_t lags = n / 2;
  if (den == 0 || lags < 3) return std::nullopt;
  std::vector<Wide> num(lags + 1, 0);
  for (std::size_t k = 1; k <= lags; ++k) {
    for (std::size_t i = 0; i + k < n; ++i) num[k] += c[i] * c[i + k];
  }
  for (std::size_t k = 2; k < lags; ++k) {
    if (10 * num[k] >= 3 * den && num[k] >= num[k - 1] &&
        num[k] >= num[k + 1]) {
      return static_cast<std::int64_t>(k) * hour;
    }
  }
  return std::nullopt;
}

TEST(Autocorr, ExactKernelMatchesDenseIntegerOracle) {
  sim::Rng rng{2025};
  const std::int64_t hour = sim::hours(1).millis();
  std::size_t binnedCases = 0;
  std::size_t binnedPeriodic = 0;
  for (int trial = 0; trial < 1600; ++trial) {
    std::vector<sim::SimTime> events;
    const auto at = [&](std::int64_t ms) { events.emplace_back(ms); };
    const std::int64_t span = hour * (8 + static_cast<std::int64_t>(
                                              rng.below(400)));
    switch (trial % 4) {
      case 0: // sparse: a few starts anywhere in the span
        for (std::uint64_t i = 0, k = 3 + rng.below(10); i < k; ++i) {
          at(static_cast<std::int64_t>(rng.below(
              static_cast<std::uint64_t>(span))));
        }
        break;
      case 1: // bursty: clusters of starts, several sharing a bin
        for (std::uint64_t b = 0, k = 1 + rng.below(4); b < k; ++b) {
          const auto center = static_cast<std::int64_t>(
              rng.below(static_cast<std::uint64_t>(span)));
          for (std::uint64_t i = 0, m = 2 + rng.below(5); i < m; ++i) {
            at(center + static_cast<std::int64_t>(rng.below(
                            static_cast<std::uint64_t>(3 * hour))));
          }
        }
        at(0);
        break;
      case 2: { // jittered period with dropouts and stray starts
        const std::int64_t period =
            hour * (2 + static_cast<std::int64_t>(rng.below(40)));
        const std::uint64_t jitter =
            1 + rng.below(static_cast<std::uint64_t>(period));
        for (std::int64_t t = 0; t < span; t += period) {
          if (rng.chance(0.2)) continue;
          at(t + static_cast<std::int64_t>(rng.below(jitter)));
        }
        for (std::uint64_t i = 0, k = rng.below(3); i < k; ++i) {
          at(static_cast<std::int64_t>(rng.below(
              static_cast<std::uint64_t>(span))));
        }
        break;
      }
      default: // whole-hour starts, where exact ties are common
        for (std::uint64_t i = 0, k = 3 + rng.below(6); i < k; ++i) {
          at(hour * static_cast<std::int64_t>(rng.below(
                        static_cast<std::uint64_t>(span / hour))));
        }
        break;
    }
    bool binned = false;
    const auto want = oraclePeriodMillis(events, binned);
    const auto got = detectPeriod(events);
    ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
    if (got) {
      EXPECT_EQ(got->millis(), *want) << "trial " << trial;
    }
    if (binned) {
      ++binnedCases;
      if (want) ++binnedPeriodic;
    }
  }
  EXPECT_GE(binnedCases, 1000u);
  EXPECT_GE(binnedPeriodic, 100u);
}

TEST(PeriodDetector, SortedFastPathMatchesShuffledInput) {
  sim::Rng rng{7};
  for (int trial = 0; trial < 30; ++trial) {
    // A periodic source with jitter plus occasional noise events; also
    // pure-noise sources that must stay aperiodic.
    std::vector<sim::SimTime> events;
    const bool periodic = trial % 2 == 0;
    const std::int64_t period = 3'600'000 + static_cast<std::int64_t>(
                                                rng.below(7'200'000));
    std::int64_t t = 0;
    for (int k = 0; k < 40; ++k) {
      t += periodic ? period + static_cast<std::int64_t>(rng.below(60'000))
                    : 1 + static_cast<std::int64_t>(rng.below(2 * period));
      events.emplace_back(t);
    }
    std::vector<sim::SimTime> shuffled = events;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
    }
    const auto fast = detectPeriod(events);   // sorted fast path
    const auto slow = detectPeriod(shuffled); // copy + sort path
    ASSERT_EQ(fast.has_value(), slow.has_value()) << "trial " << trial;
    if (fast) {
      EXPECT_EQ(fast->millis(), slow->millis()) << "trial " << trial;
    }
  }
}

// ------------------------------------------------------------- stats

TEST(Stats, Cumulative) {
  std::map<std::int64_t, std::uint64_t> buckets{{0, 5}, {2, 3}, {7, 2}};
  const auto series = cumulative(buckets);
  ASSERT_EQ(series.points.size(), 3u);
  EXPECT_EQ(series.points[0], (std::pair<std::int64_t, std::uint64_t>{0, 5}));
  EXPECT_EQ(series.points[2].second, 10u);
  EXPECT_EQ(series.total(), 10u);
  const auto normalized = series.normalized();
  EXPECT_DOUBLE_EQ(normalized[0].second, 0.5);
  EXPECT_DOUBLE_EQ(normalized[2].second, 1.0);
}

TEST(Stats, CumulativeDistinct) {
  std::vector<std::pair<std::int64_t, int>> observations{
      {0, 1}, {0, 2}, {1, 1}, {2, 3}, {2, 3}};
  const auto series = cumulativeDistinct(observations);
  EXPECT_EQ(series.total(), 3u); // ids 1, 2, 3
  ASSERT_EQ(series.points.size(), 2u); // buckets 0 and 2 add new ids
  EXPECT_EQ(series.points[0].second, 2u);
}

TEST(Stats, Upset) {
  // Window 0 saw {1, 2, 3}, window 1 {2, 3, 4}, window 2 {3}.
  const Membership<int> m{3, {{1, 0b001}, {2, 0b011}, {3, 0b111},
                              {4, 0b010}}};
  const auto result = upset(m);
  EXPECT_EQ(result.setTotals, (std::vector<std::uint64_t>{3, 3, 1}));
  // Combos: {0}: {1}; {0,1}: {2}; {0,1,2}: {3}; {1}: {4}.
  std::uint64_t total = 0;
  for (const auto& row : result.rows) total += row.count;
  EXPECT_EQ(total, 4u);
  const std::vector<std::string> names{"T1", "T2", "T3"};
  bool sawTriple = false;
  for (const auto& row : result.rows) {
    if (row.key(names) == "T1+T2+T3") {
      sawTriple = true;
      EXPECT_EQ(row.count, 1u);
    }
  }
  EXPECT_TRUE(sawTriple);
}

/// The std::set UpSet the membership fold replaced: a std::map over
/// membership vectors (lexicographic order), then a sort by count.
template <typename Id>
UpsetResult setUpset(std::span<const std::set<Id>> sets) {
  UpsetResult result;
  result.setTotals.resize(sets.size());
  std::map<std::vector<bool>, std::uint64_t> combos;
  std::set<Id> universe;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    result.setTotals[i] = sets[i].size();
    universe.insert(sets[i].begin(), sets[i].end());
  }
  for (const Id& id : universe) {
    std::vector<bool> membership(sets.size());
    for (std::size_t i = 0; i < sets.size(); ++i) {
      membership[i] = sets[i].contains(id);
    }
    ++combos[membership];
  }
  for (auto& [membership, count] : combos) {
    result.rows.push_back(UpsetRow{membership, count});
  }
  std::sort(result.rows.begin(), result.rows.end(),
            [](const UpsetRow& a, const UpsetRow& b) {
              return a.count > b.count;
            });
  return result;
}

TEST(Stats, MembershipUpsetMatchesSetReference) {
  // 1-4 windows over 24 keys (port 0 is skipped by the key function):
  // small enough that equal counts and all 15 four-window combinations
  // occur, so the row order of ties is checked too.
  std::size_t ties = 0;
  std::set<std::vector<bool>> fourWindowCombos;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng{seed};
    const std::size_t n = 1 + seed % 4;
    std::vector<std::vector<net::Packet>> packets(n);
    std::vector<std::set<std::uint16_t>> sets(n);
    for (std::size_t w = 0; w < n; ++w) {
      const std::uint64_t count = rng.below(40);
      for (std::uint64_t i = 0; i < count; ++i) {
        net::Packet p;
        p.dstPort = static_cast<std::uint16_t>(rng.below(25));
        packets[w].push_back(p);
        if (p.dstPort != 0) sets[w].insert(p.dstPort);
      }
    }
    const std::vector<std::span<const net::Packet>> windows(packets.begin(),
                                                            packets.end());
    const auto m = membership(windows, [](const net::Packet& p) {
      return p.dstPort == 0 ? std::nullopt : std::optional{p.dstPort};
    });
    ASSERT_EQ(m.windowCount, n);
    for (std::size_t i = 0; i < m.entries.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(m.entries[i - 1].key, m.entries[i].key);
      }
      for (std::size_t w = 0; w < n; ++w) {
        EXPECT_EQ((m.entries[i].mask >> w) & 1u,
                  sets[w].contains(m.entries[i].key) ? 1u : 0u);
      }
    }

    const UpsetResult got = upset(m);
    const UpsetResult want =
        setUpset(std::span<const std::set<std::uint16_t>>{sets});
    EXPECT_EQ(got.setTotals, want.setTotals) << "seed " << seed;
    ASSERT_EQ(got.rows.size(), want.rows.size()) << "seed " << seed;
    for (std::size_t r = 0; r < got.rows.size(); ++r) {
      EXPECT_EQ(got.rows[r].membership, want.rows[r].membership)
          << "seed " << seed << " row " << r;
      EXPECT_EQ(got.rows[r].count, want.rows[r].count)
          << "seed " << seed << " row " << r;
      if (r > 0 && got.rows[r].count == got.rows[r - 1].count) ++ties;
      if (n == 4) fourWindowCombos.insert(got.rows[r].membership);
    }
  }
  EXPECT_GT(ties, 100u);
  EXPECT_EQ(fourWindowCombos.size(), 15u);
}

TEST(Stats, TopPortsCountsOncePerSession) {
  std::vector<net::Packet> packets;
  auto push = [&](sim::SimTime ts, const char* src, net::Protocol proto,
                  std::uint16_t port) {
    net::Packet p;
    p.ts = ts;
    p.src = net::Ipv6Address::mustParse(src);
    p.dst = net::Ipv6Address::mustParse("3fff::1");
    p.proto = proto;
    p.dstPort = port;
    packets.push_back(p);
  };
  // Session A: port 80 three times and 443 once.
  push(sim::kEpoch, "2400::1", net::Protocol::Tcp, 80);
  push(sim::kEpoch + sim::seconds(1), "2400::1", net::Protocol::Tcp, 80);
  push(sim::kEpoch + sim::seconds(2), "2400::1", net::Protocol::Tcp, 80);
  push(sim::kEpoch + sim::seconds(3), "2400::1", net::Protocol::Tcp, 443);
  // Session B: port 80 once; UDP traceroute spread over the range.
  push(sim::kEpoch, "2400:1::1", net::Protocol::Tcp, 80);
  push(sim::kEpoch + sim::seconds(1), "2400:1::1", net::Protocol::Udp, 33434);
  push(sim::kEpoch + sim::seconds(2), "2400:1::1", net::Protocol::Udp, 33500);

  const auto sessions =
      telescope::sessionize(packets, telescope::SourceAgg::Net64);
  const auto tcp = topPorts(packets, sessions, net::Protocol::Tcp, 5);
  ASSERT_GE(tcp.size(), 2u);
  EXPECT_EQ(tcp[0].port, 80);
  EXPECT_EQ(tcp[0].sessions, 2u); // once per session despite 4 packets
  EXPECT_DOUBLE_EQ(tcp[0].share, 100.0);
  EXPECT_EQ(tcp[1].port, 443);
  EXPECT_EQ(tcp[1].sessions, 1u);

  const auto udp = topPorts(packets, sessions, net::Protocol::Udp, 5);
  ASSERT_EQ(udp.size(), 1u);
  EXPECT_TRUE(udp[0].tracerouteRange); // both packets fold into one bucket
  EXPECT_EQ(udp[0].sessions, 1u);
}

// ------------------------------------------------------------- report

TEST(Report, TableRendersAligned) {
  TextTable table{{"name", "value"}};
  table.addRow({"alpha", "1"});
  table.addSeparator();
  table.addRow({"beta", "22"});
  const std::string out = table.toString();
  EXPECT_NE(out.find("| alpha"), std::string::npos);
  EXPECT_NE(out.find("| beta "), std::string::npos);
  EXPECT_EQ(table.rowCount(), 3u);
}

TEST(Report, Numbers) {
  EXPECT_EQ(withThousands(0), "0");
  EXPECT_EQ(withThousands(999), "999");
  EXPECT_EQ(withThousands(1000), "1,000");
  EXPECT_EQ(withThousands(51000000), "51,000,000");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(bar(5, 10, 10), "#####");
  EXPECT_EQ(bar(0, 10, 10), "");
  EXPECT_EQ(bar(20, 10, 10), "##########"); // clamped
}

// --------------------------------------------------------- heavy hitters

TEST(HeavyHitter, FindsDominantSource) {
  std::vector<net::Packet> packets;
  sim::Rng rng{61};
  auto push = [&](const char* src, int count, sim::SimTime start) {
    for (int i = 0; i < count; ++i) {
      net::Packet p;
      p.ts = start + sim::seconds(i);
      p.src = net::Ipv6Address::mustParse(src);
      p.dst = net::Ipv6Address{0x3fff000000000000ULL, rng.next()};
      p.srcAsn = net::Asn{65001};
      packets.push_back(p);
    }
  };
  push("2400::1", 800, sim::kEpoch); // 80% of traffic
  push("2400::2", 100, sim::kEpoch);
  push("2400::3", 100, sim::kEpoch);

  const auto hitters = findHeavyHitters(packets, 10.0);
  ASSERT_EQ(hitters.size(), 1u);
  EXPECT_EQ(hitters[0].source.toString(), "2400::1");
  EXPECT_NEAR(hitters[0].shareOfTelescope, 80.0, 0.1);
  EXPECT_EQ(hitters[0].packets, 800u);
  EXPECT_EQ(hitters[0].sessions, 1u);

  const auto sessions =
      telescope::sessionize(packets, telescope::SourceAgg::Addr128);
  const auto impact = heavyHitterImpact(packets, sessions, hitters);
  EXPECT_EQ(impact.packets, 800u);
  EXPECT_NEAR(impact.packetShare, 80.0, 0.1);
  EXPECT_EQ(impact.sessions, 1u);
}

TEST(HeavyHitter, NoneBelowThreshold) {
  std::vector<net::Packet> packets;
  for (int s = 0; s < 20; ++s) {
    for (int i = 0; i < 10; ++i) {
      net::Packet p;
      p.ts = sim::kEpoch + sim::seconds(i);
      p.src = net::Ipv6Address{0x2400000000000000ULL,
                               static_cast<std::uint64_t>(s)};
      p.dst = net::Ipv6Address::mustParse("3fff::1");
      packets.push_back(p);
    }
  }
  EXPECT_TRUE(findHeavyHitters(packets, 10.0).empty());
  EXPECT_TRUE(findHeavyHitters(std::span<const net::Packet>{}, 10.0).empty());
}

} // namespace
} // namespace v6t::analysis
