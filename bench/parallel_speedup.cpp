// parallel_speedup — measure the sharded runner against the serial
// reference on an identical configuration, and prove on the way that the
// merged captures are bitwise-identical for every thread count.
//
// The shard counts compared default to {1, 2, 4} plus the host's hardware
// concurrency; V6T_THREADS pins a single additional count. Speedup is
// reported against the 1-shard runner wall time. On a single-core host
// the threaded runs cannot beat serial (the workers time-slice one CPU);
// the bench prints hardware_concurrency so the numbers read honestly.
#include <array>
#include <chrono>
#include <iostream>
#include <set>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "core/runner.hpp"

int main() {
  using namespace v6t;
  using Clock = std::chrono::steady_clock;

  std::cout << "== parallel_speedup ==\n";
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "hardware_concurrency=" << hw << "\n";

  std::set<unsigned> counts{1, 2, 4, hw};
  counts.insert(
      static_cast<unsigned>(bench::envInt("V6T_THREADS", 1, 1, 64)));

  core::ExperimentConfig base = bench::standardConfig();

  struct Row {
    unsigned threads = 0;
    double wallSeconds = 0;
    std::uint64_t packets = 0;
    std::array<std::uint64_t, 4> digests{};
  };
  std::vector<Row> rows;

  for (unsigned threads : counts) {
    core::RunnerConfig config;
    config.experiment = base;
    config.experiment.threads = threads;
    core::ExperimentRunner runner{config};
    const auto start = Clock::now();
    runner.run();
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    Row row;
    row.threads = threads;
    row.wallSeconds = elapsed.count();
    row.packets = runner.stats().packetsMerged;
    for (std::size_t t = 0; t < 4; ++t) {
      row.digests[t] = runner.capture(t).digest();
    }
    rows.push_back(row);
    std::cout << "threads=" << threads << " wall=" << row.wallSeconds
              << "s packets=" << row.packets << "\n";
  }

  bool identical = true;
  for (const Row& row : rows) {
    identical &= row.digests == rows.front().digests &&
                 row.packets == rows.front().packets;
  }
  std::cout << "merged captures identical across thread counts: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";

  const double serial = rows.front().wallSeconds;
  for (const Row& row : rows) {
    if (row.threads == 1) continue;
    std::cout << "speedup threads=" << row.threads << ": "
              << (row.wallSeconds > 0 ? serial / row.wallSeconds : 0.0)
              << "x\n";
  }
  if (hw == 1) {
    std::cout << "(single-core host: threaded shards time-slice one CPU, so"
                 " speedup <= 1 is expected here)\n";
  }
  return identical ? 0 : 1;
}
