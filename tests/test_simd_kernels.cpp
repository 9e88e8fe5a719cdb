// Property battery proving the columnar/SIMD analysis kernels bit-identical
// to their scalar references (DESIGN.md §16): packed-bit NIST tests at every
// word-boundary length, the word classifier over corpora covering all nine
// address types, the CaptureIndex bit/lane columns against row-major
// extraction, and the full pipeline digest with the kernels toggled both
// ways. Every double is compared bitwise — "close" is a failure.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <string_view>
#include <vector>

#include "analysis/addr_class.hpp"
#include "analysis/capture_index.hpp"
#include "analysis/nist.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/simd.hpp"
#include "net/ipv6.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "telescope/session.hpp"

namespace v6t::analysis {
namespace {

::testing::AssertionResult bitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits 0x" << std::hex
         << std::bit_cast<std::uint64_t>(a) << " vs 0x"
         << std::bit_cast<std::uint64_t>(b) << ")";
}

/// The word-boundary lengths every packed kernel must get right, plus a
/// spread of interior ones.
const std::size_t kBoundaryLengths[] = {0,  1,   2,   63,  64,  65, 100,
                                        127, 128, 129, 191, 192, 193, 1000};

BitSequence randomBits(sim::Rng& rng, std::size_t n, double pOne) {
  BitSequence bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = rng.chance(pOne) ? 1 : 0;
  return bits;
}

// --- pack / unpack -------------------------------------------------------

TEST(PackedBits, RoundTripsAtWordBoundaries) {
  sim::Rng rng{1};
  for (const std::size_t n : kBoundaryLengths) {
    for (const double p : {0.0, 0.5, 1.0}) {
      const BitSequence bits = randomBits(rng, n, p);
      const std::vector<std::uint64_t> words = packBits(bits);
      ASSERT_EQ(words.size(), (n + 63) / 64);
      const BitSequence back = unpackBits({words, n});
      EXPECT_EQ(back, bits) << "n=" << n << " p=" << p;
    }
  }
}

TEST(PackedBits, MsbFirstConvention) {
  // Bit 0 of the sequence is the TOP bit of word 0 — the convention that
  // makes an address's lo64 lane its own packed IID sequence.
  BitSequence bits(64, 0);
  bits[0] = 1;
  EXPECT_EQ(packBits(bits)[0], 1ULL << 63);
  bits.assign(64, 0);
  bits[63] = 1;
  EXPECT_EQ(packBits(bits)[0], 1ULL);
}

TEST(PackedBits, KernelsMaskArbitraryPaddingBits) {
  // Padding below the last valid bit may hold anything; the packed kernels
  // must produce identical p-values regardless.
  sim::Rng rng{2};
  for (const std::size_t n : {1u, 63u, 65u, 100u, 129u}) {
    const BitSequence bits = randomBits(rng, n, 0.5);
    std::vector<std::uint64_t> clean = packBits(bits);
    std::vector<std::uint64_t> dirty = clean;
    const std::size_t rem = n % 64;
    if (rem != 0) dirty.back() |= ~(~0ULL << (64 - rem)); // set all padding
    EXPECT_TRUE(bitEqual(frequencyTestPacked({clean, n}).pValue,
                         frequencyTestPacked({dirty, n}).pValue))
        << "n=" << n;
    EXPECT_TRUE(bitEqual(runsTestPacked({clean, n}).pValue,
                         runsTestPacked({dirty, n}).pValue))
        << "n=" << n;
  }
}

// --- packed NIST kernels vs scalar reference -----------------------------

TEST(PackedNist, FrequencyAndRunsBitIdenticalToScalar) {
  sim::Rng rng{3};
  for (const std::size_t n : kBoundaryLengths) {
    // Balanced, biased both ways, constant-0, constant-1.
    for (const double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      const BitSequence bits = randomBits(rng, n, p);
      const std::vector<std::uint64_t> words = packBits(bits);
      const PackedBits packed{words, n};
      EXPECT_TRUE(bitEqual(frequencyTestPacked(packed).pValue,
                           frequencyTest(bits).pValue))
          << "frequency n=" << n << " p=" << p;
      EXPECT_TRUE(
          bitEqual(runsTestPacked(packed).pValue, runsTest(bits).pValue))
          << "runs n=" << n << " p=" << p;
    }
    // Alternating bits maximize the runs count (vObs == n).
    BitSequence alt(n);
    for (std::size_t i = 0; i < n; ++i) alt[i] = i % 2;
    const std::vector<std::uint64_t> words = packBits(alt);
    EXPECT_TRUE(bitEqual(runsTestPacked({words, n}).pValue,
                         runsTest(alt).pValue))
        << "alternating n=" << n;
  }
}

TEST(PackedNist, FullBatteryBitIdenticalForEveryBlockAndToggle) {
  sim::Rng rng{4};
  for (const std::size_t n : {100u, 129u, 512u, 1000u}) {
    const BitSequence bits = randomBits(rng, n, 0.5);
    const std::vector<std::uint64_t> words = packBits(bits);
    for (const NistBlock block :
         {NistBlock::All, NistBlock::Spectral, NistBlock::NonSpectral}) {
      const NistSummary want = runNistTests(bits, block);
      for (const bool simd : {false, true}) {
        ScopedSimdKernels toggle{simd};
        const NistSummary got = runNistTestsPacked({words, n}, block);
        EXPECT_TRUE(bitEqual(got.frequency.pValue, want.frequency.pValue));
        EXPECT_TRUE(bitEqual(got.runs.pValue, want.runs.pValue));
        EXPECT_TRUE(bitEqual(got.spectral.pValue, want.spectral.pValue));
        EXPECT_TRUE(
            bitEqual(got.cusumForward.pValue, want.cusumForward.pValue));
        EXPECT_TRUE(
            bitEqual(got.cusumBackward.pValue, want.cusumBackward.pValue));
      }
    }
  }
}

// --- word classifier vs scalar reference ---------------------------------

std::vector<net::Ipv6Address> classifierCorpus() {
  // Exemplars covering every addr6 category (mirrors test_addr_class.cpp).
  std::vector<net::Ipv6Address> corpus;
  for (const std::string_view text : {
           "2001:db8::",                          // subnet-anycast
           "2001:db8::5efe:c000:201",             // isatap
           "2001:db8::200:5efe:c000:201",         // isatap (02 variant)
           "2001:db8::211:22ff:fe33:4455",        // ieee-derived
           "2001:db8::80", "2001:db8::443",       // embedded-port (hex)
           "2001:db8::50", "2001:db8::22",        // embedded-port (dec-as-hex)
           "2001:db8::1", "2001:db8::ff",         // low-byte
           "2001:db8::1234",                      // low-byte
           "2001:db8::c000:0201",                 // embedded-ipv4 (packed)
           "2001:db8::192:0:2:1",                 // embedded-ipv4 (spread)
           "2001:db8::aaaa:aaaa:aaaa:aaaa",       // pattern-bytes
           "2001:db8::bbbb:0:bbbb:0",             // pattern-bytes
           "2001:db8::dead:dead:dead:dead",       // wordy
           "2001:db8::9c4f:1e83:b2d7:064a",       // randomized
           "2001:db8::71e2:fa0d:38c9:552b",       // randomized
       }) {
    corpus.push_back(net::Ipv6Address::mustParse(text));
  }
  // Structured fuzz: generators aimed at each branch's neighborhood, where
  // the precedence order and the prefilters earn their keep.
  sim::Rng rng{5};
  const std::uint64_t hi = 0x2001'0db8'0000'0000ULL;
  for (int i = 0; i < 4000; ++i) {
    switch (rng.below(10)) {
      case 0: corpus.emplace_back(hi, 0); break;
      case 1: // isatap, both flag variants
        corpus.emplace_back(
            hi, ((rng.chance(0.5) ? 0x00005efeULL : 0x02005efeULL) << 32) |
                    rng.below(1ULL << 32));
        break;
      case 2: // ieee-derived: bits 24..39 == fffe
        corpus.emplace_back(hi, (rng.next() & ~(0xffffULL << 24)) |
                                    (0xfffeULL << 24));
        break;
      case 3: // low 16 bits only: embedded-port or low-byte
        corpus.emplace_back(hi, rng.below(1ULL << 16));
        break;
      case 4: // low 32 bits: packed v4 / low-byte boundary
        corpus.emplace_back(hi, rng.below(1ULL << 32));
        break;
      case 5: { // spread v4: one octet per 16-bit group
        const std::uint64_t o0 = rng.below(256), o1 = rng.below(256);
        const std::uint64_t o2 = rng.below(256), o3 = rng.below(256);
        corpus.emplace_back(hi, (o0 << 48) | (o1 << 32) | (o2 << 16) | o3);
        break;
      }
      case 6: { // repeated bytes: pattern-bytes via distinct count
        const std::uint64_t b1 = rng.below(256), b2 = rng.below(256);
        std::uint64_t v = 0;
        for (int k = 0; k < 8; ++k) {
          v = (v << 8) | (rng.chance(0.5) ? b1 : b2);
        }
        corpus.emplace_back(hi, v);
        break;
      }
      case 7: // repeated 16-bit group pattern
        corpus.emplace_back(hi, 0x0001000100010001ULL * rng.below(1ULL << 16));
        break;
      case 8: { // hex-letter soup around the wordy prefilter
        std::uint64_t v = 0;
        for (int k = 0; k < 16; ++k) {
          const std::uint64_t nib =
              rng.chance(0.7) ? 0xa + rng.below(6) : rng.below(16);
          v = (v << 4) | nib;
        }
        corpus.emplace_back(hi, v);
        break;
      }
      default: corpus.emplace_back(hi, rng.next()); break;
    }
  }
  return corpus;
}

TEST(WordClassifier, BitIdenticalToScalarOverFullCorpus) {
  const std::vector<net::Ipv6Address> corpus = classifierCorpus();
  bool seen[kAddressTypeCount] = {};
  for (const net::Ipv6Address& a : corpus) {
    const AddressType want = classifyAddress(a);
    seen[static_cast<std::size_t>(want)] = true;
    EXPECT_EQ(classifyAddressWord(a.lo64()), want) << a.toString();
  }
  // The corpus must actually exercise every category, or the equality
  // above proves less than it claims.
  for (std::size_t t = 0; t < kAddressTypeCount; ++t) {
    EXPECT_TRUE(seen[t]) << "corpus never produced "
                         << toString(static_cast<AddressType>(t));
  }
}

TEST(WordClassifier, ClassifyAllMatchesLanesUnderBothToggles) {
  const std::vector<net::Ipv6Address> corpus = classifierCorpus();
  std::vector<std::uint64_t> hi(corpus.size());
  std::vector<std::uint64_t> lo(corpus.size());
  net::gatherLanes(corpus, hi, lo);
  const AddressTypeHistogram lanes = classifyLanes(lo);
  for (const bool simd : {false, true}) {
    ScopedSimdKernels toggle{simd};
    const AddressTypeHistogram rows = classifyAll(corpus);
    for (std::size_t t = 0; t < kAddressTypeCount; ++t) {
      EXPECT_EQ(rows.count[t], lanes.count[t])
          << "simd=" << simd << " type " << t;
    }
  }
}

// --- CaptureIndex columns vs row-major extraction ------------------------

std::vector<net::Packet> syntheticCapture(std::uint64_t seed, std::size_t n) {
  sim::Rng rng{seed};
  std::vector<net::Packet> packets;
  std::int64_t now = 0;
  while (packets.size() < n) {
    now += 1 + static_cast<std::int64_t>(rng.below(1500));
    net::Packet p;
    p.ts = sim::SimTime{now};
    p.src = net::Ipv6Address{0x2001'0db8'0000'0000ULL + rng.below(24),
                             rng.below(4)};
    p.dst = net::Ipv6Address{0x2001'0db8'ffff'0000ULL | rng.below(1ULL << 16),
                             rng.next()};
    p.dstPort = static_cast<std::uint16_t>(rng.below(65536));
    if (rng.chance(0.3)) {
      p.payload.resize(1 + rng.below(16));
      for (std::size_t i = 0; i < p.payload.size(); ++i) {
        p.payload[i] = static_cast<std::uint8_t>(rng.below(256));
      }
    }
    packets.push_back(p);
  }
  return packets;
}

TEST(IndexColumns, BitColumnsAndLanesMatchRowMajorExtraction) {
  const std::vector<net::Packet> packets = syntheticCapture(8, 6000);
  const std::vector<telescope::Session> sessions = telescope::sessionize(
      packets, telescope::SourceAgg::Addr128, sim::minutes(30), nullptr, {});
  const CaptureIndex index{packets, sessions};
  ASSERT_GT(sessions.size(), 10u);
  for (std::uint32_t s = 0; s < sessions.size(); ++s) {
    const std::span<const net::Ipv6Address> targets = index.targetsOf(s);

    // Bit columns == the scalar per-bit extraction, axis by axis.
    const PackedBits iid = index.iidBitsOf(s);
    EXPECT_EQ(iid.bitCount, targets.size() * 64);
    EXPECT_EQ(unpackBits(iid), bitsFromAddresses(targets, 64, 64))
        << "session " << s;
    const PackedBits subnet = index.subnetBitsOf(s);
    EXPECT_EQ(subnet.bitCount, targets.size() * 32);
    EXPECT_EQ(unpackBits(subnet), bitsFromAddresses(targets, 32, 32))
        << "session " << s;

    // Lane/ts/port/payload columns == the session's packets, field-wise.
    const CaptureIndex::TargetColumns cols = index.columnsOf(s);
    ASSERT_EQ(cols.hi.size(), sessions[s].packetIdx.size());
    for (std::size_t k = 0; k < cols.hi.size(); ++k) {
      const net::Packet& p = packets[sessions[s].packetIdx[k]];
      EXPECT_EQ(cols.hi[k], p.dst.hi64());
      EXPECT_EQ(cols.lo[k], p.dst.lo64());
      EXPECT_EQ(cols.ts[k], p.ts);
      EXPECT_EQ(cols.srcHi[k], p.src.hi64());
      EXPECT_EQ(cols.srcLo[k], p.src.lo64());
      EXPECT_EQ(cols.port[k], p.dstPort);
      EXPECT_EQ(cols.payloadLen[k], p.payload.size());
    }
  }
}

// --- end to end: the pipeline digest must not see the toggle -------------

TEST(SimdDispatch, PipelineDigestIdenticalWithKernelsOnAndOff) {
  const std::vector<net::Packet> packets = syntheticCapture(9, 12000);
  const std::vector<telescope::Session> sessions = telescope::sessionize(
      packets, telescope::SourceAgg::Addr128, sim::minutes(30), nullptr, {});
  std::uint64_t digests[2] = {};
  for (const bool simd : {false, true}) {
    ScopedSimdKernels toggle{simd};
    PipelineOptions opts;
    opts.threads = 2;
    opts.nistBattery = true;
    const PipelineResult result =
        Pipeline::analyze(packets, sessions, nullptr, opts);
    digests[simd ? 1 : 0] = result.digest();
    EXPECT_FALSE(result.nist.empty());
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(SimdDispatch, RuntimeToggleRespectsCompileTimeSwitch) {
  setSimdKernelsEnabled(true);
  EXPECT_EQ(simdKernelsEnabled(), kSimdCompiledIn);
  {
    ScopedSimdKernels off{false};
    EXPECT_FALSE(simdKernelsEnabled());
  }
  EXPECT_EQ(simdKernelsEnabled(), kSimdCompiledIn); // restored
}

} // namespace
} // namespace v6t::analysis
