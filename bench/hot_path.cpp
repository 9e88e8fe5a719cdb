// bench/hot_path — the repo's tracked perf baseline for the three hottest
// memory paths: engine event scheduling/dispatch, capture append plus its
// statistics pass, and the canonical shard merge. Unlike the table/figure
// benches this one does not run the calibrated experiment; it drives the
// three subsystems directly at a fixed synthetic workload so successive
// commits can be compared number-to-number on the same machine.
//
// Output: one JSONL metrics snapshot (through the obs registry, the same
// channel --metrics-out uses) written to BENCH_hot_path.json (override
// with V6T_BENCH_OUT or argv[1]). Scale the workload with
// V6T_HOT_PATH_SCALE (default 1.0; CI uses a small fraction).
//
//   bench.hot_path.engine_events_per_sec   schedule+dispatch rate
//   bench.hot_path.append_packets_per_sec  build+copy+append rate, with one
//                                          captureStats pass over the store
//   bench.hot_path.merge_packets_per_sec   8-shard consuming merge rate
//   bench.hot_path.peak_rss_bytes          getrusage high-water mark
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/env.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "telescope/capture_store.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Keep a live value out of the optimizer's reach.
volatile std::uint64_t g_sink = 0;

// ------------------------------------------------------------------ engine
//
// Schedule/dispatch workload in waves of 4096 pending events. The lambda
// capture is sized like the scanner's session lambdas (a pointer plus a
// few counters), i.e. larger than std::function's 16-byte SBO — the exact
// shape that used to cost one heap allocation per scheduled event.
double benchEngine(std::uint64_t events, std::uint64_t& executed) {
  v6t::sim::Engine engine;
  v6t::sim::Rng rng{42};
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  std::uint64_t scheduled = 0;
  std::int64_t horizon = 0;
  while (scheduled < events) {
    // Fill a wave of pending events, then drain it.
    const std::uint64_t wave = 4096;
    for (std::uint64_t i = 0; i < wave && scheduled < events; ++i) {
      const std::int64_t when = horizon + static_cast<std::int64_t>(rng.below(10'000));
      const std::uint64_t a = rng.next();
      const std::uint64_t b = scheduled;
      const std::uint64_t c = i;
      std::uint64_t* accPtr = &acc;
      engine.schedule(v6t::sim::SimTime{when},
                      [accPtr, a, b, c] { *accPtr += a ^ b ^ c; });
      ++scheduled;
    }
    horizon += 10'000;
    engine.run(v6t::sim::SimTime{horizon});
  }
  engine.runAll();
  const double elapsed = secondsSince(t0);
  executed = engine.executedEvents();
  g_sink = g_sink + acc;
  return elapsed;
}

// ------------------------------------------------------------------ append
//
// The per-packet append in miniature — what a v6tcap read pays for every
// packet: build a probe with a 12-byte payload, copy it once, append it
// into a store — followed by one captureStats pass over the store, the
// statistics a reader of those values computes. Sources cycle through a
// warm working set so the hash-set counting behaves like a capture mid-run,
// not like first contact.
double benchAppend(std::uint64_t packets, std::size_t& distinctSources) {
  v6t::telescope::CaptureStore store;
  v6t::sim::Rng rng{43};
  std::vector<v6t::net::Ipv6Address> sources;
  sources.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    sources.emplace_back(0x2001'0db8'0000'0000ULL | rng.below(1 << 20), rng.next());
  }
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < packets; ++i) {
    v6t::net::Packet p;
    p.ts = v6t::sim::SimTime{static_cast<std::int64_t>(i / 16)};
    p.src = sources[i % sources.size()];
    p.dst = v6t::net::Ipv6Address{0x2001'0db8'ffff'0000ULL, i};
    p.proto = v6t::net::Protocol::Icmpv6;
    p.icmpType = v6t::net::kIcmpEchoRequest;
    p.originId = static_cast<std::uint32_t>(i % 512);
    p.originSeq = i;
    for (int b = 0; b < 12; ++b) {
      p.payload.push_back(static_cast<std::uint8_t>(i + static_cast<std::uint64_t>(b)));
    }
    v6t::net::Packet copy = p;
    store.append(std::move(copy));
  }
  distinctSources = v6t::telescope::captureStats(store.packets()).sources128;
  return secondsSince(t0);
}

// ------------------------------------------------------------------- merge
//
// 8 shards, each individually time-ordered with equal-timestamp runs whose
// (originId, originSeq) interleave across shards — the exact shape the
// sharded runner merges after every run. The shard buffers are built
// outside the timed region and handed over by move, as the runner does.
double benchMerge(std::uint64_t perShard, unsigned shardCount,
                  std::uint64_t& merged) {
  v6t::sim::Rng rng{44};
  std::vector<std::vector<v6t::net::Packet>> shards(shardCount);
  for (unsigned s = 0; s < shardCount; ++s) {
    shards[s].reserve(perShard);
    for (std::uint64_t i = 0; i < perShard; ++i) {
      v6t::net::Packet p;
      p.ts = v6t::sim::SimTime{static_cast<std::int64_t>(i / 4)};
      p.src = v6t::net::Ipv6Address{0x2001'0db8'0000'0000ULL + s, i};
      p.dst = v6t::net::Ipv6Address{0x2001'0db8'ffff'0000ULL, rng.next()};
      p.originId = s + 8 * static_cast<std::uint32_t>(i % 64);
      p.originSeq = i;
      shards[s].push_back(p);
    }
  }
  v6t::telescope::CaptureStore out;
  const auto t0 = Clock::now();
  out.mergeFrom(std::move(shards));
  const double elapsed = secondsSince(t0);
  merged = out.packetCount();
  g_sink = g_sink + out.digest();
  return elapsed;
}

} // namespace

int main(int argc, char** argv) {
  const double scale = v6t::bench::envPositive("V6T_HOT_PATH_SCALE", 1.0);
  std::string outPath = "BENCH_hot_path.json";
  if (const char* s = std::getenv("V6T_BENCH_OUT")) outPath = s;
  if (argc > 1) outPath = argv[1];

  const auto events = static_cast<std::uint64_t>(2'000'000 * scale);
  const auto packets = static_cast<std::uint64_t>(2'000'000 * scale);
  const auto perShard = static_cast<std::uint64_t>(250'000 * scale);

  std::cout << "== hot_path (scale " << scale << ") ==\n";

  std::uint64_t executed = 0;
  const double engineSeconds = benchEngine(events, executed);
  const double eventsPerSec =
      engineSeconds > 0 ? static_cast<double>(events) / engineSeconds : 0;
  std::cout << "engine: " << events << " events scheduled, " << executed
            << " executed in " << engineSeconds << "s -> " << eventsPerSec
            << " events/s\n";

  std::size_t distinctSources = 0;
  const double appendSeconds = benchAppend(packets, distinctSources);
  const double packetsPerSec =
      appendSeconds > 0 ? static_cast<double>(packets) / appendSeconds : 0;
  std::cout << "append: " << packets << " packets in " << appendSeconds
            << "s -> " << packetsPerSec << " packets/s (distinct /128 "
            << distinctSources << ")\n";

  std::uint64_t mergedPackets = 0;
  const double mergeSeconds = benchMerge(perShard, 8, mergedPackets);
  const double mergePerSec =
      mergeSeconds > 0 ? static_cast<double>(mergedPackets) / mergeSeconds : 0;
  std::cout << "merge: " << mergedPackets << " packets over 8 shards in "
            << mergeSeconds << "s -> " << mergePerSec << " packets/s\n";

  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peakRssBytes =
      static_cast<double>(usage.ru_maxrss) * 1024.0; // Linux: KiB
  std::cout << "peak RSS: " << peakRssBytes / (1024.0 * 1024.0) << " MiB\n";

  v6t::obs::Registry registry;
  registry.gauge("bench.hot_path.scale").set(scale);
  registry.gauge("bench.hot_path.engine_events").set(static_cast<double>(events));
  registry.gauge("bench.hot_path.engine_events_executed")
      .set(static_cast<double>(executed));
  registry.gauge("bench.hot_path.engine_seconds").set(engineSeconds);
  registry.gauge("bench.hot_path.engine_events_per_sec").set(eventsPerSec);
  registry.gauge("bench.hot_path.append_packets").set(static_cast<double>(packets));
  registry.gauge("bench.hot_path.append_seconds").set(appendSeconds);
  registry.gauge("bench.hot_path.append_packets_per_sec").set(packetsPerSec);
  registry.gauge("bench.hot_path.merge_packets")
      .set(static_cast<double>(mergedPackets));
  registry.gauge("bench.hot_path.merge_shards").set(8);
  registry.gauge("bench.hot_path.merge_seconds").set(mergeSeconds);
  registry.gauge("bench.hot_path.merge_packets_per_sec").set(mergePerSec);
  registry.gauge("bench.hot_path.peak_rss_bytes").set(peakRssBytes);

  std::ofstream out{outPath};
  if (!out) {
    std::cerr << "cannot open " << outPath << " for writing\n";
    return 1;
  }
  registry.writeJsonLine(out, {{"bench", "hot_path"}});
  std::cout << "wrote " << outPath << "\n";
  return 0;
}
