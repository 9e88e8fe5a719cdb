// Tests for the wordy address category.
#include <gtest/gtest.h>

#include "analysis/addr_class.hpp"
#include "scanner/target_gen.hpp"
#include "sim/rng.hpp"

namespace v6t::analysis {
namespace {

using net::Ipv6Address;
using net::Prefix;

// -------------------------------------------------------------- wordy

TEST(Wordy, ClassicExamplesClassify) {
  EXPECT_EQ(classifyAddress(Ipv6Address::mustParse("2001:db8::cafe")),
            AddressType::Wordy);
  EXPECT_EQ(classifyAddress(Ipv6Address::mustParse("2001:db8::dead:beef")),
            AddressType::Wordy);
  EXPECT_EQ(classifyAddress(Ipv6Address::mustParse("2001:db8::cafe:babe")),
            AddressType::Wordy);
  EXPECT_EQ(classifyAddress(Ipv6Address::mustParse("2001:db8::f00d")),
            AddressType::Wordy);
}

TEST(Wordy, NonWordsStayInTheirCategories) {
  // Ordinary low-byte values must not turn wordy.
  EXPECT_EQ(classifyAddress(Ipv6Address::mustParse("2001:db8::1")),
            AddressType::LowByte);
  EXPECT_EQ(classifyAddress(Ipv6Address::mustParse("2001:db8::abcd")),
            AddressType::LowByte);
  // Partial word with trailing junk: not decomposable.
  EXPECT_EQ(classifyAddress(Ipv6Address::mustParse("2001:db8::caf1")),
            AddressType::LowByte);
  EXPECT_EQ(classifyAddress(Ipv6Address::mustParse("2001:db8::1:cafe")),
            AddressType::PatternBytes); // leading '1' breaks decomposition
}

TEST(Wordy, RandomIidsRarelyWordy) {
  sim::Rng rng{203};
  int wordy = 0;
  for (int i = 0; i < 5000; ++i) {
    if (classifyAddress(Ipv6Address{0x20010db800000000ULL, rng.next()}) ==
        AddressType::Wordy) {
      ++wordy;
    }
  }
  EXPECT_LT(wordy, 10); // < 0.2% false positives
}

TEST(Wordy, GeneratorRecovered) {
  sim::Rng rng{204};
  scanner::TargetGenerator gen{scanner::TargetStrategy::Wordy,
                               Prefix::mustParse("3fff:100::/32"), rng};
  for (int i = 0; i < 50; ++i) {
    const auto a = gen.next();
    EXPECT_EQ(classifyAddress(a), AddressType::Wordy) << a.toString();
  }
}

} // namespace
} // namespace v6t::analysis
