// Property tests for net::PrefixTable's longest-prefix match: random prefix
// sets checked against a brute-force oracle, plus the exact shadowing
// configuration the paper's telescopes depend on — a /48 inside a covering
// /29, where LPM must pick the /48 while the /29 still covers the rest.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "bgp/rib.hpp"
#include "fault/invariants.hpp"
#include "net/prefix.hpp"
#include "net/prefix_table.hpp"
#include "sim/rng.hpp"

namespace v6t::net {
namespace {

/// Reference implementation: scan every stored prefix, keep the longest
/// that contains the address.
class OracleLpm {
public:
  void insert(const Prefix& prefix, int value) {
    for (auto& [p, v] : entries_) {
      if (p == prefix) {
        v = value;
        return;
      }
    }
    entries_.emplace_back(prefix, value);
  }

  bool erase(const Prefix& prefix) {
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [&](const auto& e) { return e.first == prefix; });
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }

  [[nodiscard]] std::optional<std::pair<Prefix, int>> longestMatch(
      const Ipv6Address& addr) const {
    std::optional<std::pair<Prefix, int>> best;
    for (const auto& [p, v] : entries_) {
      if (!p.contains(addr)) continue;
      if (!best || p.length() > best->first.length()) best = {p, v};
    }
    return best;
  }

  [[nodiscard]] const int* findExact(const Prefix& prefix) const {
    for (const auto& [p, v] : entries_) {
      if (p == prefix) return &v;
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<std::pair<Prefix, int>>& entries() const {
    return entries_;
  }

private:
  std::vector<std::pair<Prefix, int>> entries_;
};

Ipv6Address randomAddress(sim::Rng& rng) {
  return Ipv6Address{rng.next(), rng.next()};
}

/// Random prefix biased toward realistic BGP lengths, and clustered into a
/// narrow space so prefixes actually overlap (a uniformly random pair of
/// /32s virtually never nests).
Prefix randomPrefix(sim::Rng& rng) {
  static constexpr unsigned kLengths[] = {16, 24, 29, 32, 33,
                                          40, 48, 56, 64, 128};
  const unsigned len = kLengths[rng.below(std::size(kLengths))];
  // Confine the top bits to 16 patterns so nesting is common.
  const std::uint64_t hi =
      (0x3fffULL << 48) | (rng.below(16) << 44) | (rng.next() & 0xfffffffffffULL);
  return Prefix{Ipv6Address{hi, rng.next()}, len};
}

/// A uniformly random address inside `p`: p's first len bits, random rest.
Ipv6Address insideOf(const Prefix& p, sim::Rng& rng) {
  const unsigned len = p.length();
  std::uint64_t hi = rng.next();
  std::uint64_t lo = rng.next();
  const std::uint64_t hiMask =
      len >= 64 ? ~0ULL : (len == 0 ? 0ULL : ~0ULL << (64 - len));
  const unsigned loLen = len > 64 ? len - 64 : 0;
  const std::uint64_t loMask =
      loLen >= 64 ? ~0ULL : (loLen == 0 ? 0ULL : ~0ULL << (64 - loLen));
  hi = (p.address().hi64() & hiMask) | (hi & ~hiMask);
  lo = (p.address().lo64() & loMask) | (lo & ~loMask);
  return Ipv6Address{hi, lo};
}

void checkAgainstOracle(const PrefixTable<int>& table, const OracleLpm& oracle,
                        const Ipv6Address& addr) {
  const auto got = table.longestMatch(addr);
  const auto want = oracle.longestMatch(addr);
  ASSERT_EQ(got.has_value(), want.has_value()) << addr.toString();
  if (got.has_value()) {
    // The table reports the match as (addr masked to length); compare prefix
    // length and stored value.
    EXPECT_EQ(got->first.length(), want->first.length()) << addr.toString();
    EXPECT_EQ(*got->second, want->second) << addr.toString();
  }
}

TEST(PrefixTriePropertyTest, RandomSetsMatchBruteForceOracle) {
  sim::Rng rng{0x7219e};
  for (int round = 0; round < 30; ++round) {
    PrefixTable<int> table;
    OracleLpm oracle;
    const int prefixes = 1 + static_cast<int>(rng.below(40));
    for (int i = 0; i < prefixes; ++i) {
      const Prefix p = randomPrefix(rng);
      table.insert(p, i);
      oracle.insert(p, i);
    }
    ASSERT_EQ(table.size(), oracle.size());

    // Probe addresses inside stored prefixes (the interesting cases) and
    // fully random ones (mostly misses).
    for (const auto& [p, v] : oracle.entries()) {
      checkAgainstOracle(table, oracle, insideOf(p, rng));
      checkAgainstOracle(table, oracle, p.address());
    }
    for (int i = 0; i < 50; ++i) {
      checkAgainstOracle(table, oracle, randomAddress(rng));
    }
  }
}

TEST(PrefixTriePropertyTest, EraseKeepsTrieConsistentWithOracle) {
  sim::Rng rng{0xe5a5e};
  for (int round = 0; round < 20; ++round) {
    PrefixTable<int> table;
    OracleLpm oracle;
    std::vector<Prefix> inserted;
    for (int i = 0; i < 25; ++i) {
      const Prefix p = randomPrefix(rng);
      table.insert(p, i);
      oracle.insert(p, i);
      inserted.push_back(p);
    }
    // Erase half, in random order; check equivalence after each removal.
    for (int i = 0; i < 12; ++i) {
      const Prefix victim = inserted[rng.below(inserted.size())];
      EXPECT_EQ(table.erase(victim), oracle.erase(victim));
      ASSERT_EQ(table.size(), oracle.size());
      for (int probe = 0; probe < 20; ++probe) {
        checkAgainstOracle(table, oracle, randomAddress(rng));
      }
      for (const auto& [p, v] : oracle.entries()) {
        checkAgainstOracle(table, oracle, p.address());
      }
    }
  }
}

TEST(PrefixTriePropertyTest, ChurnAcrossLengthsKeepsOrderAndCoverage) {
  // Random insert/erase churn over 24 lengths in a narrow space, so each
  // length's table fills, empties (dropping the length from the probe
  // order) and refills. After every step, entries() must be the oracle's
  // entries in (address, length) order — the order the scanners'
  // bootstrap inherits through Rib::announcedRoutes — and covers() must
  // agree with the oracle's longest match.
  static constexpr unsigned kLengths[] = {0,  8,  16, 20, 24, 28,  29,  30,
                                          32, 33, 36, 40, 44, 47,  48,  52,
                                          56, 60, 63, 64, 65, 96, 127, 128};
  sim::Rng rng{0xc4a2};
  for (int round = 0; round < 10; ++round) {
    PrefixTable<int> table;
    OracleLpm oracle;
    // Few distinct addresses per length, so erasing a length's last
    // prefix and re-inserting it happens often.
    auto drawPrefix = [&] {
      const unsigned len = kLengths[rng.below(std::size(kLengths))];
      const std::uint64_t hi = (0x3fffULL << 48) | (rng.below(4) << 40) |
                               (rng.below(2) << 8);
      return Prefix{Ipv6Address{hi, rng.below(2) << 63}, len};
    };
    std::size_t lengthsEmptied = 0;
    for (int step = 0; step < 400; ++step) {
      const Prefix p = drawPrefix();
      if (rng.chance(0.45)) {
        const bool lastOfLength =
            std::count_if(oracle.entries().begin(), oracle.entries().end(),
                          [&](const auto& e) {
                            return e.first.length() == p.length();
                          }) == 1;
        const bool erased = oracle.erase(p);
        ASSERT_EQ(table.erase(p), erased) << p.toString();
        if (erased && lastOfLength) ++lengthsEmptied;
      } else {
        const int value = step;
        ASSERT_EQ(table.insert(p, value), oracle.findExact(p) == nullptr);
        oracle.insert(p, value);
      }
      ASSERT_EQ(table.size(), oracle.size());

      std::vector<std::pair<Prefix, int>> want = oracle.entries();
      std::sort(want.begin(), want.end());
      const auto got = table.entries();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].first, want[i].first) << "step " << step;
        ASSERT_EQ(*got[i].second, want[i].second) << "step " << step;
      }
      for (int probe = 0; probe < 8; ++probe) {
        const Ipv6Address addr = probe % 2 == 0
                                     ? drawPrefix().address()
                                     : insideOf(drawPrefix(), rng);
        ASSERT_EQ(table.covers(addr), oracle.longestMatch(addr).has_value())
            << addr.toString();
        checkAgainstOracle(table, oracle, addr);
      }
    }
    EXPECT_GT(lengthsEmptied, 10u) << "round " << round;
  }
}

TEST(PrefixTriePropertyTest, CoveringSlash29VsShadowingSlash48) {
  // The telescope configuration of §3.1: a third party announces a /29;
  // our silent T3 and reactive T4 are /48s inside it. LPM must return the
  // /48 for addresses in T3/T4 and the /29 for the rest of its space.
  const Prefix covering = Prefix::mustParse("3fff:e00::/29");
  const Prefix t3 = Prefix::mustParse("3fff:e03:3::/48");
  const Prefix t4 = Prefix::mustParse("3fff:e05:7::/48");
  ASSERT_TRUE(covering.contains(t3.address()));
  ASSERT_TRUE(covering.contains(t4.address()));

  PrefixTable<int> table;
  table.insert(covering, 29);
  table.insert(t3, 3);
  table.insert(t4, 4);

  const auto inT3 = table.longestMatch(Ipv6Address::mustParse("3fff:e03:3::1"));
  ASSERT_TRUE(inT3.has_value());
  EXPECT_EQ(inT3->first.length(), 48u);
  EXPECT_EQ(*inT3->second, 3);

  const auto inT4 =
      table.longestMatch(Ipv6Address::mustParse("3fff:e05:7:ffff::42"));
  ASSERT_TRUE(inT4.has_value());
  EXPECT_EQ(*inT4->second, 4);

  // Covered-but-unowned space: the /29 wins (the packet then disappears
  // into the void in the delivery fabric's terms).
  const auto inVoid = table.longestMatch(Ipv6Address::mustParse("3fff:e01::1"));
  ASSERT_TRUE(inVoid.has_value());
  EXPECT_EQ(inVoid->first.length(), 29u);
  EXPECT_EQ(*inVoid->second, 29);

  // Outside the /29 entirely: no match.
  EXPECT_FALSE(
      table.longestMatch(Ipv6Address::mustParse("3fff:100::1")).has_value());

  // Withdrawing the /48 reveals the /29 underneath — exactly the withdraw
  // day's routing state.
  table.erase(t3);
  const auto afterErase =
      table.longestMatch(Ipv6Address::mustParse("3fff:e03:3::1"));
  ASSERT_TRUE(afterErase.has_value());
  EXPECT_EQ(afterErase->first.length(), 29u);
}

// ------------------------------------------------- RIB churn vs oracle

/// Fuzz the full bgp::Rib (table + route metadata) through heavy churn —
/// random interleavings of announces, origin changes, withdraws, and
/// rapid flap bursts — checking LPM against the brute-force oracle after
/// every mutation, and letting fault::InvariantChecker's RIB rule audit
/// each round end (the checker's ground truth IS the oracle's entry list,
/// so this doubles as its integration test under churn).
TEST(RibChurnProperty, LpmMatchesOracleThroughAnnounceWithdrawFlapStorms) {
  sim::Rng rng{20260805};
  for (int round = 0; round < 8; ++round) {
    // A fixed pool of overlapping prefixes so announce/withdraw hits both
    // fresh and already-routed entries, and shadowing is common.
    std::vector<Prefix> pool;
    for (int i = 0; i < 24; ++i) pool.push_back(randomPrefix(rng));

    bgp::Rib rib;
    OracleLpm oracle;
    sim::SimTime now = sim::kEpoch;

    auto check = [&](const Ipv6Address& addr) {
      const auto got = rib.lookup(addr);
      const auto want = oracle.longestMatch(addr);
      ASSERT_EQ(got.has_value(), want.has_value()) << addr.toString();
      if (!got) return;
      EXPECT_EQ(got->first, want->first) << addr.toString();
      // Origins may differ between equal-length distinct prefixes only if
      // the table picked a different same-length match — impossible; assert
      // the stored origin survived the churn too.
      EXPECT_EQ(got->second.origin.value(),
                static_cast<std::uint32_t>(want->second))
          << addr.toString();
    };

    for (int step = 0; step < 400; ++step) {
      now += sim::minutes(1 + static_cast<std::int64_t>(rng.below(120)));
      const Prefix& p = pool[rng.below(pool.size())];
      const std::uint32_t asn =
          65000 + static_cast<std::uint32_t>(rng.below(8));
      switch (rng.below(4)) {
      case 0: // announce (fresh or origin change)
      case 1:
        rib.announce(p, Asn{asn}, now);
        oracle.insert(p, static_cast<int>(asn));
        break;
      case 2: // withdraw (possibly of an unrouted prefix — must be a no-op)
        rib.withdraw(p);
        oracle.erase(p);
        break;
      case 3: { // flap burst: down/up several times in quick succession
        const int cycles = 1 + static_cast<int>(rng.below(3));
        for (int c = 0; c < cycles; ++c) {
          rib.withdraw(p);
          oracle.erase(p);
          check(insideOf(p, rng));
          now += sim::minutes(5);
          rib.announce(p, Asn{asn}, now);
          oracle.insert(p, static_cast<int>(asn));
        }
        break;
      }
      }
      check(insideOf(p, rng));
      check(p.address());
      check(randomAddress(rng));
    }

    // Round-end audit through the invariant rule, with probes aimed both
    // inside every live route and at random space.
    std::vector<std::pair<Prefix, Asn>> routes;
    std::vector<Ipv6Address> probes;
    for (const auto& [p, v] : oracle.entries()) {
      routes.emplace_back(p, Asn{static_cast<std::uint32_t>(v)});
      probes.push_back(insideOf(p, rng));
      probes.push_back(p.address());
    }
    for (int i = 0; i < 32; ++i) probes.push_back(randomAddress(rng));
    v6t::fault::InvariantChecker checker;
    EXPECT_TRUE(checker.checkRibAgainstLinearScan(rib, routes, probes))
        << checker.violations().front();
  }
}

} // namespace
} // namespace v6t::net
