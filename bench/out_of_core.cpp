// bench/out_of_core — RSS-vs-spill-budget bench for the out-of-core
// capture store (DESIGN.md §15). Two processes over the identical
// synthetic capture:
//
//   child   the in-memory reference: CaptureStore append + canonical
//           merge + analyzeOneShot. Peak RSS grows with capture size —
//           this is the path that exceeds 0.9 GB at full scale.
//   parent  the spilled path: SegmentStore under V6T_OOC_BUDGET_BYTES,
//           sealed by a final spill, then StreamingAnalyzer over the merge
//           of its segments (telescope::mergeSegments). Peak RSS must
//           stay bounded by the budget (plus a fixed slack for the
//           binary, the read buffers and open sessions) no matter how
//           large the capture is.
//
// The child reports (digest, peak RSS, packet count) over a pipe; the
// bench FAILS (nonzero exit) when the streamed digest differs from the
// in-memory one or the parent's RSS escapes the budget bound — so the CI
// job that runs it gates the §15 equivalence and memory contracts, not
// just throughput.
//
// Output: one JSONL snapshot (same channel as --metrics-out) to
// BENCH_out_of_core.json (override: V6T_BENCH_OUT or argv[1]). Scale the
// workload with V6T_OOC_SCALE (default 1.0 = 8M packets; CI uses a small
// fraction) and the budget with V6T_OOC_BUDGET_BYTES (default 64 MiB).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/streaming.hpp"
#include "bench/env.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "telescope/capture_store.hpp"
#include "telescope/segment_store.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peakRssBytes() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0; // Linux: KiB
}

/// Deterministic packet stream both processes replay independently: a
/// 4096-source pool (per-source gaps stay under the session timeout, so
/// summary count stays O(sources), not O(packets)), one dominant source
/// (a guaranteed heavy hitter), ~200 ms mean pace so a full-scale capture
/// spans weeks of simulated time, and a >1h global silence every ~500k
/// packets to exercise session closure mid-stream.
class PacketGen {
public:
  explicit PacketGen(std::uint64_t seed) : rng_{seed} {}

  v6t::net::Packet next(std::uint64_t i) {
    if (rng_.below(500'000) == 0) {
      ts_ += 2 * 3'600'000; // 2h silence: closes every open session
    } else {
      ts_ += static_cast<std::int64_t>(rng_.below(400)); // ~200ms mean
    }
    v6t::net::Packet p;
    p.ts = v6t::sim::SimTime{ts_};
    const std::uint64_t source =
        rng_.below(100) < 20 ? 0 : 1 + rng_.below(4095);
    p.src = v6t::net::Ipv6Address{0x2001'0db8'0000'0000ULL | (source >> 8),
                                  source & 0xff};
    p.dst = v6t::net::Ipv6Address{0x2a00ULL << 48, rng_.next()};
    p.proto = static_cast<v6t::net::Protocol>(rng_.below(3));
    p.srcPort = static_cast<std::uint16_t>(rng_.below(65536));
    p.dstPort = static_cast<std::uint16_t>(rng_.below(65536));
    p.hopLimit = static_cast<std::uint8_t>(64 + rng_.below(64));
    p.srcAsn = v6t::net::Asn{static_cast<std::uint32_t>(64500 + source % 40)};
    p.originId = static_cast<std::uint32_t>(i % 256);
    p.originSeq = i;
    if (rng_.below(4) == 0) {
      const std::size_t len = 1 + rng_.below(12);
      for (std::size_t b = 0; b < len; ++b) {
        p.payload.push_back(static_cast<std::uint8_t>(rng_.below(256)));
      }
    }
    return p;
  }

private:
  v6t::sim::Rng rng_;
  std::int64_t ts_ = 0;
};

constexpr std::uint64_t kSeed = 0x00C0FFEE;

struct ChildReport {
  std::uint64_t digest = 0;
  std::uint64_t peakRss = 0;
  std::uint64_t packets = 0;
};

} // namespace

int main(int argc, char** argv) {
  const double scale = v6t::bench::envPositive("V6T_OOC_SCALE", 1.0);
  const std::uint64_t budget =
      v6t::bench::envInt("V6T_OOC_BUDGET_BYTES", 64ull << 20, 1);
  std::string outPath = "BENCH_out_of_core.json";
  if (const char* s = std::getenv("V6T_BENCH_OUT")) outPath = s;
  if (argc > 1) outPath = argv[1];

  const auto packets = static_cast<std::uint64_t>(8'000'000 * scale);
  std::cout << "== out_of_core (scale " << scale << ", " << packets
            << " packets, budget " << (budget >> 20) << " MiB) ==\n";

  int fds[2];
  if (pipe(fds) != 0) {
    std::cerr << "pipe() failed\n";
    return 1;
  }
  const pid_t child = fork();
  if (child < 0) {
    std::cerr << "fork() failed\n";
    return 1;
  }
  if (child == 0) {
    // ---- child: in-memory reference --------------------------------
    close(fds[0]);
    std::vector<std::vector<v6t::net::Packet>> shards(1);
    shards[0].reserve(packets);
    {
      PacketGen gen{kSeed};
      for (std::uint64_t i = 0; i < packets; ++i) {
        shards[0].push_back(gen.next(i));
      }
    }
    v6t::telescope::CaptureStore canonical;
    canonical.mergeFrom(std::move(shards));
    const v6t::analysis::StreamingResult result =
        v6t::analysis::analyzeOneShot(canonical.packets());
    ChildReport report;
    report.digest = result.digest();
    report.peakRss = static_cast<std::uint64_t>(peakRssBytes());
    report.packets = result.totalPackets;
    const ssize_t written = write(fds[1], &report, sizeof(report));
    _exit(written == sizeof(report) ? 0 : 1);
  }

  // ---- parent: spilled + streamed path -----------------------------
  close(fds[1]);
  const std::filesystem::path spillDir =
      std::filesystem::temp_directory_path() /
      ("v6t-ooc-" + std::to_string(getpid()));
  std::filesystem::remove_all(spillDir);
  v6t::obs::Registry metrics;

  double ingestSeconds = 0;
  double analyzeSeconds = 0;
  std::uint64_t segments = 0;
  std::uint64_t spilledBytes = 0;
  v6t::analysis::StreamingResult streamed;
  {
    v6t::telescope::SegmentStoreOptions options;
    options.dir = spillDir;
    options.spillBytes = budget;
    options.metrics = &metrics;
    v6t::telescope::SegmentStore store{options};
    {
      PacketGen gen{kSeed};
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < packets; ++i) store.append(gen.next(i));
      store.spill(); // only sealed segments are readable
      ingestSeconds = secondsSince(t0);
    }
    segments = store.segmentCount();
    spilledBytes = store.spilledBytes();
    std::cout << "spilled: " << segments << " segments, "
              << spilledBytes / (1024.0 * 1024.0) << " MiB on disk, ingest "
              << ingestSeconds << "s\n";

    v6t::analysis::StreamingOptions opts;
    opts.metrics = &metrics;
    v6t::analysis::StreamingAnalyzer analyzer{opts};
    const auto t0 = Clock::now();
    auto merge = v6t::telescope::mergeSegments(store.segments());
    analyzer.ingestAll(merge);
    streamed = analyzer.finish();
    analyzeSeconds = secondsSince(t0);
  }
  const double parentRss = peakRssBytes();
  std::cout << "streamed: " << streamed.totalPackets << " packets, "
            << streamed.sources.size() << " sources, "
            << streamed.windows << " windows, analyze "
            << analyzeSeconds << "s, peak RSS "
            << parentRss / (1024.0 * 1024.0) << " MiB\n";

  ChildReport reference;
  ssize_t got = read(fds[0], &reference, sizeof(reference));
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  const bool childOk = got == sizeof(reference) && WIFEXITED(status) &&
                       WEXITSTATUS(status) == 0;
  if (!childOk) {
    std::cerr << "in-memory reference child failed\n";
    std::filesystem::remove_all(spillDir);
    return 1;
  }
  std::cout << "reference: digest 0x" << std::hex << reference.digest
            << std::dec << ", peak RSS "
            << static_cast<double>(reference.peakRss) / (1024.0 * 1024.0)
            << " MiB\n";

  const bool digestMatch = streamed.digest() == reference.digest &&
                           streamed.totalPackets == reference.packets;
  // The bound: a fixed floor for code + allocator + open sessions, plus 3x
  // the budget (the memtable and its canonical sort never hold more than a
  // few budgets' worth at once).
  const double rssBound = 256.0 * 1024.0 * 1024.0 + 3.0 * static_cast<double>(budget);
  const bool rssBounded = parentRss <= rssBound;

  v6t::obs::Registry summary;
  summary.gauge("bench.out_of_core.scale").set(scale);
  summary.gauge("bench.out_of_core.packets")
      .set(static_cast<double>(packets));
  summary.gauge("bench.out_of_core.spill_budget_bytes")
      .set(static_cast<double>(budget));
  summary.gauge("bench.out_of_core.segments").set(static_cast<double>(segments));
  summary.gauge("bench.out_of_core.spilled_bytes")
      .set(static_cast<double>(spilledBytes));
  summary.gauge("bench.out_of_core.ingest_seconds").set(ingestSeconds);
  summary.gauge("bench.out_of_core.analyze_seconds").set(analyzeSeconds);
  summary.gauge("bench.out_of_core.ingest_packets_per_sec")
      .set(ingestSeconds > 0 ? static_cast<double>(packets) / ingestSeconds
                             : 0);
  summary.gauge("bench.out_of_core.spilled_peak_rss_bytes").set(parentRss);
  summary.gauge("bench.out_of_core.inmem_peak_rss_bytes")
      .set(static_cast<double>(reference.peakRss));
  summary.gauge("bench.out_of_core.rss_bound_bytes").set(rssBound);
  summary.gauge("bench.out_of_core.rss_bound_ok").set(rssBounded ? 1 : 0);
  summary.gauge("bench.out_of_core.digest_match").set(digestMatch ? 1 : 0);
  summary.gauge("bench.out_of_core.windows")
      .set(static_cast<double>(streamed.windows));
  summary.gauge("bench.out_of_core.sources")
      .set(static_cast<double>(streamed.sources.size()));
  summary.aggregateFrom(metrics); // capture.spill.* / analysis.stream.*

  std::ofstream out{outPath};
  if (!out) {
    std::cerr << "cannot open " << outPath << " for writing\n";
    std::filesystem::remove_all(spillDir);
    return 1;
  }
  summary.writeJsonLine(out, {{"bench", "out_of_core"}});
  std::cout << "wrote " << outPath << "\n";
  std::filesystem::remove_all(spillDir);

  if (!digestMatch) {
    std::cerr << "FAIL: streamed digest diverged from the in-memory "
                 "reference\n";
    return 1;
  }
  if (!rssBounded) {
    std::cerr << "FAIL: spilled peak RSS " << parentRss
              << " exceeds bound " << rssBound << " (budget " << budget
              << ")\n";
    return 1;
  }
  std::cout << "OK: digest match, RSS bounded ("
            << parentRss / (1024.0 * 1024.0) << " MiB <= "
            << rssBound / (1024.0 * 1024.0) << " MiB)\n";
  return 0;
}
