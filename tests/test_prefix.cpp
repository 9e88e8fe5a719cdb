// Unit and property tests for v6t::net::Prefix and PrefixTable.
#include <gtest/gtest.h>

#include <vector>

#include "net/prefix.hpp"
#include "net/prefix_table.hpp"
#include "sim/rng.hpp"

namespace v6t::net {
namespace {

TEST(Prefix, ParseAndCanonicalize) {
  auto p = Prefix::parse("2001:db8:ffff::/32");
  ASSERT_TRUE(p.has_value());
  // Host bits beyond /32 are cleared.
  EXPECT_EQ(p->toString(), "2001:db8::/32");
  EXPECT_EQ(p->length(), 32u);
}

TEST(Prefix, ParseRejects) {
  EXPECT_FALSE(Prefix::parse("2001:db8::").has_value());
  EXPECT_FALSE(Prefix::parse("2001:db8::/129").has_value());
  EXPECT_FALSE(Prefix::parse("2001:db8::/x").has_value());
  EXPECT_FALSE(Prefix::parse("/32").has_value());
  EXPECT_FALSE(Prefix::parse("2001:db8::/").has_value());
  EXPECT_TRUE(Prefix::parse("::/0").has_value());
}

TEST(Prefix, Contains) {
  Prefix p = Prefix::mustParse("2001:db8::/32");
  EXPECT_TRUE(p.contains(Ipv6Address::mustParse("2001:db8::1")));
  EXPECT_TRUE(p.contains(Ipv6Address::mustParse("2001:db8:ffff:ffff::1")));
  EXPECT_FALSE(p.contains(Ipv6Address::mustParse("2001:db9::1")));
  Prefix all = Prefix::mustParse("::/0");
  EXPECT_TRUE(all.contains(Ipv6Address::mustParse("ff02::1")));
}

TEST(Prefix, Covers) {
  Prefix p32 = Prefix::mustParse("2001:db8::/32");
  Prefix p48 = Prefix::mustParse("2001:db8:5::/48");
  EXPECT_TRUE(p32.covers(p48));
  EXPECT_TRUE(p32.covers(p32));
  EXPECT_FALSE(p48.covers(p32));
  EXPECT_FALSE(p48.covers(Prefix::mustParse("2001:db8:6::/48")));
}

TEST(Prefix, Split) {
  Prefix p = Prefix::mustParse("2001:db8::/32");
  auto [lower, upper] = p.split();
  EXPECT_EQ(lower.toString(), "2001:db8::/33");
  EXPECT_EQ(upper.toString(), "2001:db8:8000::/33");
  EXPECT_TRUE(p.covers(lower));
  EXPECT_TRUE(p.covers(upper));
  // The two halves partition the parent.
  EXPECT_FALSE(lower.contains(upper.address()));
  EXPECT_TRUE(lower.contains(p.lowByteAddress()));
}

TEST(Prefix, SplitProperty) {
  sim::Rng rng{5};
  for (int i = 0; i < 300; ++i) {
    const unsigned len = static_cast<unsigned>(rng.below(127));
    Prefix p{Ipv6Address{rng.next(), rng.next()}, len};
    auto [lower, upper] = p.split();
    EXPECT_EQ(lower.length(), len + 1);
    EXPECT_EQ(upper.length(), len + 1);
    EXPECT_EQ(lower.address(), p.address());
    EXPECT_TRUE(p.covers(lower));
    EXPECT_TRUE(p.covers(upper));
    EXPECT_NE(lower, upper);
    EXPECT_FALSE(lower.covers(upper));
  }
}

TEST(Prefix, LowByteAddress) {
  EXPECT_EQ(Prefix::mustParse("2001:db8::/32").lowByteAddress().toString(),
            "2001:db8::1");
  EXPECT_EQ(
      Prefix::mustParse("2001:db8:8000::/33").lowByteAddress().toString(),
      "2001:db8:8000::1");
}

TEST(Prefix, LastAddress) {
  EXPECT_EQ(Prefix::mustParse("2001:db8::/32").lastAddress().toString(),
            "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff");
  EXPECT_EQ(Prefix::mustParse("::1/128").lastAddress().toString(), "::1");
}

TEST(Prefix, SubPrefix) {
  Prefix p = Prefix::mustParse("2001:db8::/32");
  EXPECT_EQ(p.subPrefix(0, 48).toString(), "2001:db8::/48");
  EXPECT_EQ(p.subPrefix(1, 48).toString(), "2001:db8:1::/48");
  EXPECT_EQ(p.subPrefix(0xffff, 48).toString(), "2001:db8:ffff::/48");
}

TEST(Prefix, AddressAt) {
  Prefix p = Prefix::mustParse("2001:db8::/32");
  EXPECT_EQ(p.addressAt(1).toString(), "2001:db8::1");
  // Offsets wrap within the host bits.
  EXPECT_TRUE(p.contains(p.addressAt(~static_cast<u128>(0))));
}

// ------------------------------------------------------------ PrefixTable

TEST(PrefixTrie, InsertFindErase) {
  PrefixTable<int> table;
  EXPECT_TRUE(table.insert(Prefix::mustParse("2001:db8::/32"), 1));
  EXPECT_FALSE(table.insert(Prefix::mustParse("2001:db8::/32"), 2)); // update
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.findExact(Prefix::mustParse("2001:db8::/32")), nullptr);
  EXPECT_EQ(*table.findExact(Prefix::mustParse("2001:db8::/32")), 2);
  EXPECT_EQ(table.findExact(Prefix::mustParse("2001:db8::/33")), nullptr);
  EXPECT_TRUE(table.erase(Prefix::mustParse("2001:db8::/32")));
  EXPECT_FALSE(table.erase(Prefix::mustParse("2001:db8::/32")));
  EXPECT_TRUE(table.empty());
}

TEST(PrefixTrie, LongestMatchPrefersMoreSpecific) {
  PrefixTable<int> table;
  table.insert(Prefix::mustParse("2001:db8::/32"), 32);
  table.insert(Prefix::mustParse("2001:db8:5::/48"), 48);
  table.insert(Prefix::mustParse("2001:db8:5:1::/64"), 64);

  auto m = table.longestMatch(Ipv6Address::mustParse("2001:db8:5:1::9"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->second, 64);
  EXPECT_EQ(m->first.length(), 64u);

  m = table.longestMatch(Ipv6Address::mustParse("2001:db8:5:2::9"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->second, 48);

  m = table.longestMatch(Ipv6Address::mustParse("2001:db8:6::9"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->second, 32);

  EXPECT_FALSE(table.longestMatch(Ipv6Address::mustParse("2001:db9::1"))
                   .has_value());
}

TEST(PrefixTrie, DefaultRoute) {
  PrefixTable<int> table;
  table.insert(Prefix::mustParse("::/0"), 0);
  auto m = table.longestMatch(Ipv6Address::mustParse("ff02::1"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->second, 0);
}

TEST(PrefixTrie, Entries) {
  PrefixTable<int> table;
  table.insert(Prefix::mustParse("2001:db8:8000::/33"), 2);
  table.insert(Prefix::mustParse("2001:db8::/32"), 1);
  const auto entries = table.entries();
  ASSERT_EQ(entries.size(), 2u);
  // (address, length) order: a covering prefix before what it covers.
  EXPECT_EQ(entries[0].first.toString(), "2001:db8::/32");
  EXPECT_EQ(entries[1].first.toString(), "2001:db8:8000::/33");
}

TEST(PrefixTrie, LpmMatchesLinearScanProperty) {
  // Compare table LPM against a brute-force linear scan on random data.
  sim::Rng rng{17};
  PrefixTable<std::size_t> table;
  std::vector<Prefix> prefixes;
  for (int i = 0; i < 120; ++i) {
    const unsigned len = 8 + static_cast<unsigned>(rng.below(57));
    Prefix p{Ipv6Address{rng.next() & 0x3f00ffffffffffffULL, rng.next()},
             len};
    prefixes.push_back(p);
    table.insert(p, prefixes.size() - 1);
  }
  for (int i = 0; i < 2000; ++i) {
    Ipv6Address addr;
    if (rng.chance(0.7) && !prefixes.empty()) {
      // Bias toward addresses inside some stored prefix.
      const Prefix& p = prefixes[rng.below(prefixes.size())];
      addr = p.addressAt((static_cast<u128>(rng.next()) << 64) | rng.next());
    } else {
      addr = Ipv6Address{rng.next(), rng.next()};
    }
    // Linear scan: longest covering prefix (ties impossible: same
    // address+length collapse in both structures).
    int bestLen = -1;
    for (const Prefix& p : prefixes) {
      if (p.contains(addr) && static_cast<int>(p.length()) > bestLen) {
        bestLen = static_cast<int>(p.length());
      }
    }
    const auto m = table.longestMatch(addr);
    if (bestLen < 0) {
      EXPECT_FALSE(m.has_value());
    } else {
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(static_cast<int>(m->first.length()), bestLen);
    }
  }
}

} // namespace
} // namespace v6t::net
