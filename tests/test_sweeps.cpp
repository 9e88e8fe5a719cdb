// Parameterized property sweeps: NIST test power across bit biases,
// sessionizer behavior across timeouts, and TGA invariants across
// exploration settings.
#include <gtest/gtest.h>

#include <map>

#include "analysis/nist.hpp"
#include "scanner/tga.hpp"
#include "sim/rng.hpp"
#include "telescope/session.hpp"

namespace v6t {
namespace {

// --------------------------------------------- NIST power vs. bit bias

struct BiasCase {
  double onesProbability;
  bool expectRandomVerdict; // should the battery call it random?
};

class NistBiasSweep : public ::testing::TestWithParam<BiasCase> {};

TEST_P(NistBiasSweep, FrequencyAndCusumTrackBias) {
  sim::Rng rng{501};
  analysis::BitSequence bits(4096);
  for (auto& b : bits) b = rng.chance(GetParam().onesProbability) ? 1 : 0;
  const auto summary = analysis::runAllNistTests(bits);
  if (GetParam().expectRandomVerdict) {
    EXPECT_TRUE(summary.frequency.pass());
    EXPECT_TRUE(summary.cusumForward.pass());
    EXPECT_TRUE(summary.cusumBackward.pass());
  } else {
    EXPECT_FALSE(summary.frequency.pass());
    EXPECT_FALSE(summary.cusumForward.pass());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Biases, NistBiasSweep,
    ::testing::Values(BiasCase{0.50, true}, BiasCase{0.49, true},
                      BiasCase{0.51, true}, BiasCase{0.56, false},
                      BiasCase{0.44, false}, BiasCase{0.65, false},
                      BiasCase{0.80, false}, BiasCase{0.20, false}));

// ------------------------------------------ sessionizer timeout sweep

class TimeoutSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TimeoutSweep, InvariantsHoldAtEveryTimeout) {
  const sim::Duration timeout = sim::minutes(GetParam());
  sim::Rng rng{502};
  std::vector<net::Packet> packets;
  sim::SimTime t = sim::kEpoch;
  for (int i = 0; i < 2500; ++i) {
    t += sim::millis(static_cast<std::int64_t>(rng.exponential(700'000.0)));
    net::Packet p;
    p.ts = t;
    p.src = net::Ipv6Address{0x2400000000000000ULL, rng.below(8)};
    packets.push_back(p);
  }
  const auto sessions =
      telescope::sessionize(packets, telescope::SourceAgg::Addr128, timeout);
  std::size_t total = 0;
  for (const auto& s : sessions) {
    total += s.packetCount();
    // Intra-session gaps bounded by the timeout.
    for (std::size_t k = 1; k < s.packetIdx.size(); ++k) {
      ASSERT_LE(packets[s.packetIdx[k]].ts - packets[s.packetIdx[k - 1]].ts,
                timeout);
    }
    // Session bounds match first/last packet.
    ASSERT_EQ(s.start, packets[s.packetIdx.front()].ts);
    ASSERT_EQ(s.end, packets[s.packetIdx.back()].ts);
  }
  EXPECT_EQ(total, packets.size());
  // Inter-session gap property: consecutive sessions of the same source
  // are separated by more than the timeout.
  std::map<net::Ipv6Address, sim::SimTime> lastEnd;
  for (const auto& s : sessions) {
    const auto it = lastEnd.find(s.source.addr);
    if (it != lastEnd.end()) {
      EXPECT_GT(s.start - it->second, timeout);
    }
    lastEnd[s.source.addr] = s.end;
  }
}

INSTANTIATE_TEST_SUITE_P(Timeouts, TimeoutSweep,
                         ::testing::Values(5, 15, 30, 60, 120, 360));

// ------------------------------------------------ TGA exploration sweep

class TgaExploreSweep : public ::testing::TestWithParam<double> {};

TEST_P(TgaExploreSweep, CandidatesAlwaysInBaseAndCountersConsistent) {
  scanner::DynamicTga::Params params;
  params.exploreShare = GetParam();
  const net::Prefix base = net::Prefix::mustParse("3fff:100::/32");
  scanner::DynamicTga tga{base, params, 503};
  sim::Rng rng{504};
  for (int i = 0; i < 50; ++i) {
    tga.addSeed(base.addressAt(rng.next()));
  }
  std::size_t issued = 0;
  for (int round = 0; round < 10; ++round) {
    const auto batch = tga.nextCandidates(100);
    issued += batch.size();
    for (const auto& a : batch) {
      ASSERT_TRUE(base.contains(a));
      tga.feedback(a, false);
    }
  }
  EXPECT_EQ(tga.probesIssued(), issued);
  EXPECT_EQ(tga.hitsSeen(), 0u);
  EXPECT_DOUBLE_EQ(tga.hitRate(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Explore, TgaExploreSweep,
                         ::testing::Values(0.0, 0.05, 0.25, 0.5, 1.0));

} // namespace
} // namespace v6t
