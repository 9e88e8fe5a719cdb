// google-benchmark microbenches for the measurement instruments themselves:
// address parsing/formatting, longest-prefix match, sessionization, the
// NIST tests, DBSCAN, and the addr6 classifier — plus scalar-vs-columnar
// before/after pairs for every kernel DESIGN.md §16 vectorizes.
#include <benchmark/benchmark.h>

#include <sstream>

#include "analysis/addr_class.hpp"
#include "analysis/dbscan.hpp"
#include "analysis/nist.hpp"
#include "net/pcap.hpp"
#include "net/prefix_trie.hpp"
#include "sim/rng.hpp"
#include "telescope/session.hpp"

namespace {

using namespace v6t;

void BM_Ipv6Parse(benchmark::State& state) {
  const std::string text = "2001:db8:1234::5678:9abc";
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Ipv6Address::parse(text));
  }
}
BENCHMARK(BM_Ipv6Parse);

void BM_Ipv6Format(benchmark::State& state) {
  const net::Ipv6Address a =
      net::Ipv6Address::mustParse("2001:db8:1234::5678:9abc");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.toString());
  }
}
BENCHMARK(BM_Ipv6Format);

void BM_TrieLongestMatch(benchmark::State& state) {
  sim::Rng rng{1};
  net::PrefixTrie<int> trie;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    trie.insert(net::Prefix{net::Ipv6Address{rng.next(), 0},
                            static_cast<unsigned>(16 + rng.below(49))},
                i);
  }
  net::Ipv6Address probe{rng.next(), rng.next()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.longestMatch(probe));
    probe = probe.plus(0x10000000000ULL);
  }
}
BENCHMARK(BM_TrieLongestMatch)->Arg(16)->Arg(256)->Arg(4096);

void BM_Sessionize(benchmark::State& state) {
  sim::Rng rng{2};
  std::vector<net::Packet> packets;
  sim::SimTime t = sim::kEpoch;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    t += sim::millis(static_cast<std::int64_t>(rng.exponential(30000.0)));
    net::Packet p;
    p.ts = t;
    p.src = net::Ipv6Address{0x2400ULL << 48, rng.below(64)};
    p.dst = net::Ipv6Address{0x3fffULL << 48, rng.next()};
    packets.push_back(std::move(p));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        telescope::sessionize(packets, telescope::SourceAgg::Addr128));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sessionize)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_NistSuite(benchmark::State& state) {
  sim::Rng rng{3};
  analysis::BitSequence bits(static_cast<std::size_t>(state.range(0)));
  for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::runAllNistTests(bits));
  }
}
BENCHMARK(BM_NistSuite)->Arg(6400)->Arg(64000);

// --- §16 kernel pairs: the scalar reference vs the word/vector path -----

void BM_NistFrequencyScalar(benchmark::State& state) {
  sim::Rng rng{7};
  analysis::BitSequence bits(static_cast<std::size_t>(state.range(0)));
  for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::frequencyTest(bits));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NistFrequencyScalar)->Arg(6400)->Arg(64000);

void BM_NistFrequencyPacked(benchmark::State& state) {
  sim::Rng rng{7};
  analysis::BitSequence bits(static_cast<std::size_t>(state.range(0)));
  for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
  const std::vector<std::uint64_t> words = analysis::packBits(bits);
  const analysis::PackedBits packed{words, bits.size()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::frequencyTestPacked(packed));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NistFrequencyPacked)->Arg(6400)->Arg(64000);

void BM_NistRunsScalar(benchmark::State& state) {
  sim::Rng rng{8};
  analysis::BitSequence bits(static_cast<std::size_t>(state.range(0)));
  for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::runsTest(bits));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NistRunsScalar)->Arg(6400)->Arg(64000);

void BM_NistRunsPacked(benchmark::State& state) {
  sim::Rng rng{8};
  analysis::BitSequence bits(static_cast<std::size_t>(state.range(0)));
  for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
  const std::vector<std::uint64_t> words = analysis::packBits(bits);
  const analysis::PackedBits packed{words, bits.size()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::runsTestPacked(packed));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NistRunsPacked)->Arg(6400)->Arg(64000);

std::vector<net::Ipv6Address> classifierAddrs(std::size_t n) {
  sim::Rng rng{5};
  std::vector<net::Ipv6Address> addrs;
  addrs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    addrs.emplace_back(rng.next(), rng.chance(0.5) ? rng.next()
                                                   : rng.below(65536));
  }
  return addrs;
}

void BM_AddrClassifyScalarRows(benchmark::State& state) {
  const auto addrs = classifierAddrs(8192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classifyAll(addrs));
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_AddrClassifyScalarRows);

void BM_AddrClassifyWordLanes(benchmark::State& state) {
  const auto addrs = classifierAddrs(8192);
  std::vector<std::uint64_t> hi(addrs.size());
  std::vector<std::uint64_t> lo(addrs.size());
  net::gatherLanes(addrs, hi, lo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classifyLanes(lo));
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_AddrClassifyWordLanes);

void BM_Dbscan(benchmark::State& state) {
  sim::Rng rng{4};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.uniform() * 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::dbscan(n, 0.5, 3, [&](std::size_t a, std::size_t b) {
          return std::abs(xs[a] - xs[b]);
        }));
  }
}
BENCHMARK(BM_Dbscan)->Arg(256)->Arg(1024);

void BM_AddrClassify(benchmark::State& state) {
  sim::Rng rng{5};
  std::vector<net::Ipv6Address> addrs;
  for (int i = 0; i < 1024; ++i) {
    addrs.emplace_back(rng.next(), rng.chance(0.5) ? rng.next()
                                                   : rng.below(65536));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classifyAll(addrs));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_AddrClassify);

void BM_CaptureSerialize(benchmark::State& state) {
  sim::Rng rng{6};
  std::vector<net::Packet> packets;
  for (int i = 0; i < 4096; ++i) {
    net::Packet p;
    p.ts = sim::SimTime{i};
    p.src = net::Ipv6Address{rng.next(), rng.next()};
    p.dst = net::Ipv6Address{rng.next(), rng.next()};
    p.payload.assign(12, static_cast<std::uint8_t>(i));
    packets.push_back(std::move(p));
  }
  for (auto _ : state) {
    std::ostringstream out;
    net::CaptureWriter writer{out};
    for (const auto& p : packets) writer.write(p);
    benchmark::DoNotOptimize(out.str());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_CaptureSerialize);

} // namespace

BENCHMARK_MAIN();
