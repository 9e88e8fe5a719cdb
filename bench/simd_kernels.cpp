// bench/simd_kernels — the tracked perf baseline for the columnar/SIMD
// analysis kernels (DESIGN.md §16): scalar reference vs word/vector path
// for the two hot kernels, plus the bit-identity gate the whole design
// rests on — the full pipeline digest must be equal at every thread count
// with the kernels toggled both ways.
//
// All legs run in ONE binary: the vectorized kernels are compiled in
// (V6T_SIMD=ON) and toggled at runtime via ScopedSimdKernels, so "before"
// and "after" share the same build, workload, and memory layout. With
// V6T_SIMD=OFF both legs run the scalar reference and every speedup
// gauge reports ~1x (simd_compiled_in = 0 flags that in the artifact).
//
// Measured kernel pairs (best of V6T_BENCH_REPS, default 5):
//   freq_runs   frequencyTest+runsTest per bit (scalar) vs the packed
//               popcount kernels on the same sequences
//   classify    classifyAll per row (scalar) vs classifyLanes on the
//               contiguous IID lane column
//
// Digest gate: a synthetic capture (sessionized per the paper's 1-hour
// timeout) analyzed with the full stage set including the NIST battery,
// at threads {1,2,8} x simd {off,on}. All six PipelineResult digests must
// be identical; digest_match gates the exit code and the digest hex is
// exported as a JSON label so CI can compare it across build flavors
// (the V6T_SIMD=OFF cross-check build must reproduce it bit for bit).
//
// Output: one JSONL metrics snapshot (BENCH_simd_kernels.json, override
// with V6T_BENCH_OUT or argv[1]).
//
//   bench.simd_kernels.freq_runs_scalar_seconds / _simd_seconds / _speedup
//   bench.simd_kernels.classify_scalar_seconds  / _simd_seconds / _speedup
//   bench.simd_kernels.digest_match             1 = all six digests equal
//   bench.simd_kernels.simd_compiled_in         V6T_SIMD at build time
//   bench.simd_kernels.cores_available          hardware_concurrency
//
// Workload scale: V6T_BENCH_SCALE (default 1.0; CI perf-smoke uses a
// fraction so the job stays fast).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/addr_class.hpp"
#include "analysis/nist.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/simd.hpp"
#include "bench/env.hpp"
#include "net/ipv6.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "telescope/session.hpp"

namespace {

using namespace v6t;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

volatile std::uint64_t g_sink = 0;

/// Best-of-reps wall time of `fn` (the standard bench discipline: the
/// minimum is the least-noisy estimator on a shared host).
template <typename Fn>
double bestOf(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, secondsSince(t0));
  }
  return best;
}

std::vector<net::Packet> syntheticCapture(std::uint64_t seed, std::size_t n) {
  sim::Rng rng{seed};
  std::vector<net::Packet> packets;
  packets.reserve(n);
  std::int64_t now = 0;
  // A few hundred sources, some of them heavy with >= 100 packets per
  // session so the NIST battery and the columnar taxonomy path both get
  // real work.
  while (packets.size() < n) {
    now += 1 + static_cast<std::int64_t>(rng.below(900));
    net::Packet p;
    p.ts = sim::SimTime{now};
    p.src = net::Ipv6Address{0x2001'0db8'0000'0000ULL + rng.below(200),
                             rng.below(8)};
    p.dst = net::Ipv6Address{0x2001'0db8'ffff'0000ULL | rng.below(1ULL << 16),
                             rng.chance(0.5) ? rng.next() : rng.below(65536)};
    p.dstPort = static_cast<std::uint16_t>(rng.below(65536));
    if (rng.chance(0.25)) {
      p.payload.resize(1 + rng.below(12));
      for (std::size_t i = 0; i < p.payload.size(); ++i) {
        p.payload[i] = static_cast<std::uint8_t>(rng.below(256));
      }
    }
    packets.push_back(p);
  }
  return packets;
}

} // namespace

int main(int argc, char** argv) {
  std::string outPath = "BENCH_simd_kernels.json";
  if (const char* s = std::getenv("V6T_BENCH_OUT")) outPath = s;
  if (argc > 1) outPath = argv[1];
  const double scale = bench::envPositive("V6T_BENCH_SCALE", 1.0);
  const int reps =
      static_cast<int>(bench::envInt("V6T_BENCH_REPS", 5, 1, 50));

  std::cout << "== simd_kernels: columnar kernels vs scalar reference ==\n"
            << "scale=" << scale << " reps=" << reps << " simd_compiled_in="
            << (analysis::kSimdCompiledIn ? 1 : 0) << "\n";

  // --- kernel pair 1: frequency + runs, per-bit vs packed ---------------
  sim::Rng rng{42};
  const auto seqCount = static_cast<std::size_t>(2000 * scale) + 4;
  const std::size_t seqBits = 4096 + 17; // odd tail exercises the masks
  std::vector<analysis::BitSequence> sequences(seqCount);
  std::vector<std::vector<std::uint64_t>> packed(seqCount);
  for (std::size_t i = 0; i < seqCount; ++i) {
    sequences[i].resize(seqBits);
    for (auto& b : sequences[i]) b = rng.chance(0.5) ? 1 : 0;
    packed[i] = analysis::packBits(sequences[i]);
  }
  double freqRunsCheck = 0;
  const double freqRunsScalar = bestOf(reps, [&] {
    double acc = 0;
    for (const auto& bits : sequences) {
      acc += analysis::frequencyTest(bits).pValue;
      acc += analysis::runsTest(bits).pValue;
    }
    freqRunsCheck = acc;
  });
  double freqRunsPackedCheck = 0;
  const double freqRunsSimd = bestOf(reps, [&] {
    double acc = 0;
    for (std::size_t i = 0; i < seqCount; ++i) {
      const analysis::PackedBits bits{packed[i], seqBits};
      acc += analysis::frequencyTestPacked(bits).pValue;
      acc += analysis::runsTestPacked(bits).pValue;
    }
    freqRunsPackedCheck = acc;
  });
  const bool freqRunsEqual = freqRunsCheck == freqRunsPackedCheck;
  const double freqRunsSpeedup =
      freqRunsSimd > 0 ? freqRunsScalar / freqRunsSimd : 0;
  std::cout << "freq+runs: scalar " << freqRunsScalar << "s, packed "
            << freqRunsSimd << "s -> " << freqRunsSpeedup << "x"
            << (freqRunsEqual ? "" : " (P-VALUE MISMATCH)") << "\n";

  // --- kernel pair 2: address classification, rows vs lanes -------------
  const auto addrCount = static_cast<std::size_t>(2'000'000 * scale) + 64;
  std::vector<net::Ipv6Address> addrs;
  addrs.reserve(addrCount);
  for (std::size_t i = 0; i < addrCount; ++i) {
    addrs.emplace_back(0x2001'0db8'0000'0000ULL,
                       rng.chance(0.5) ? rng.next() : rng.below(1ULL << 16));
  }
  std::vector<std::uint64_t> laneHi(addrCount);
  std::vector<std::uint64_t> laneLo(addrCount);
  net::gatherLanes(addrs, laneHi, laneLo);
  analysis::AddressTypeHistogram rowsHist;
  const double classifyScalar = bestOf(reps, [&] {
    analysis::ScopedSimdKernels off{false};
    rowsHist = analysis::classifyAll(addrs);
    g_sink = g_sink + rowsHist.total();
  });
  analysis::AddressTypeHistogram lanesHist;
  const double classifySimd = bestOf(reps, [&] {
    lanesHist = analysis::classifyLanes(laneLo);
    g_sink = g_sink + lanesHist.total();
  });
  bool classifyEqual = true;
  for (std::size_t t = 0; t < analysis::kAddressTypeCount; ++t) {
    classifyEqual = classifyEqual && rowsHist.count[t] == lanesHist.count[t];
  }
  const double classifySpeedup =
      classifySimd > 0 ? classifyScalar / classifySimd : 0;
  std::cout << "classify: rows " << classifyScalar << "s, lanes "
            << classifySimd << "s -> " << classifySpeedup << "x"
            << (classifyEqual ? "" : " (HISTOGRAM MISMATCH)") << "\n";

  // --- the bit-identity gate: pipeline digest across threads x toggle ---
  const auto packetCount = static_cast<std::size_t>(120'000 * scale) + 2000;
  const std::vector<net::Packet> packets = syntheticCapture(7, packetCount);
  const std::vector<telescope::Session> sessions = telescope::sessionize(
      packets, telescope::SourceAgg::Addr128, sim::hours(1));
  std::cout << "digest workload: " << packets.size() << " packets, "
            << sessions.size() << " sessions\n";
  std::uint64_t referenceDigest = 0;
  bool digestMatch = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const bool simd : {false, true}) {
      analysis::ScopedSimdKernels toggle{simd};
      analysis::PipelineOptions opts;
      opts.threads = threads;
      opts.nistBattery = true;
      const analysis::PipelineResult result =
          analysis::Pipeline::analyze(packets, sessions, nullptr, opts);
      const std::uint64_t digest = result.digest();
      if (referenceDigest == 0) referenceDigest = digest;
      const bool match = digest == referenceDigest;
      digestMatch = digestMatch && match;
      std::cout << "digest threads=" << threads << " simd=" << simd << ": "
                << std::hex << digest << std::dec
                << (match ? "" : " (MISMATCH)") << "\n";
    }
  }
  const bool allEqual = digestMatch && freqRunsEqual && classifyEqual;

  obs::Registry registry;
  auto gauge = [&](const char* name, double v) {
    registry.gauge(std::string{"bench.simd_kernels."} + name).set(v);
  };
  const unsigned hw = std::thread::hardware_concurrency();
  gauge("cores_available", static_cast<double>(hw == 0 ? 1u : hw));
  gauge("scale", scale);
  gauge("reps", reps);
  gauge("simd_compiled_in", analysis::kSimdCompiledIn ? 1.0 : 0.0);
  gauge("nist_sequences", static_cast<double>(seqCount));
  gauge("classify_addrs", static_cast<double>(addrCount));
  gauge("digest_packets", static_cast<double>(packets.size()));
  gauge("digest_sessions", static_cast<double>(sessions.size()));
  gauge("freq_runs_scalar_seconds", freqRunsScalar);
  gauge("freq_runs_simd_seconds", freqRunsSimd);
  gauge("freq_runs_speedup", freqRunsSpeedup);
  gauge("classify_scalar_seconds", classifyScalar);
  gauge("classify_simd_seconds", classifySimd);
  gauge("classify_speedup", classifySpeedup);
  gauge("digest_match", allEqual ? 1.0 : 0.0);

  std::ostringstream digestHex;
  digestHex << std::hex << referenceDigest;
  std::ofstream out{outPath};
  if (!out) {
    std::cerr << "cannot open " << outPath << " for writing\n";
    return 1;
  }
  registry.writeJsonLine(
      out, {{"bench", "simd_kernels"}, {"digest", digestHex.str()}});
  std::cout << "wrote " << outPath
            << (allEqual ? "" : " — EQUIVALENCE FAILURE") << "\n";
  return allEqual ? 0 : 1;
}
