// v6t_serve — event-driven query service over a recorded capture.
//
//   v6t_serve (--capture FILE | --spill-dir DIR) [config-file]
//             [--telescope NAME] [--port N] [--threads N]
//             [--analysis-threads N] [--cache-bytes N] [--no-schedule]
//
// Loads one telescope's capture — either an in-memory .v6tcap dump or the
// spill root a `v6t_run --spill-dir` run wrote, whose shard-<s>/NAME
// segments are merged in canonical order (telescope::mergeSegments) —
// builds the immutable analysis::CaptureIndex and every answer once (the
// taxonomy, the heavy-hitter ranking, the rendered report bodies), and
// serves the read-only JSON endpoints of DESIGN.md §17 over HTTP/1.1:
//
//   GET /reports/table6      taxonomy scanner/session counts (Table 6)
//   GET /heavy-hitters?k=N   top-k heavy hitters + their traffic impact
//   GET /sources/<addr>      one source's aggregates and temporal class
//   GET /reaction-delays     first capture vs announcement per cycle
//   GET /metrics             Prometheus text (serve.* instrumentation)
//   GET /healthz             liveness
//
// The config file (same format as v6t_run's) supplies both the split
// schedule that /reaction-delays is computed against and the serve.*
// tuning keys; command-line flags override. The schedule is rebuilt from
// the timeline parameters alone (SplitSchedule::make is pure), so serving
// does not re-run the experiment. --no-schedule drops it for captures
// taken outside the BGP experiment (T2/T3/T4): /reaction-delays then 404s.
//
// Responses are deterministic functions of the capture, which is what the
// sharded result cache (serve.cache_bytes; 0 disables) exploits — see
// bench/serve_load for the cached-vs-uncached contract.
//
// Numeric flags go through the config file's checked parser: "--port abc"
// or "--threads 4x" is a usage error (exit 2), never a silent default, and
// so is --telescope without --spill-dir. A --capture file that is not a
// v6tcap capture, ends in a torn record or has records that go back in
// time is refused (exit 1) instead of served. A spill root is read, never
// changed: `.tmp` and `.quarantined` files are ignored, and a root with no
// shard directory, no store of the telescope or a corrupt segment is
// refused (exit 1), naming what is wrong.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bgp/splitter.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "obs/metrics.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "sim/time.hpp"
#include "telescope/segment_store.hpp"
#include "telescope/session.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: v6t_serve (--capture FILE | --spill-dir DIR) [config-file]\n"
         "                 [--telescope NAME] [--port N] [--threads N]\n"
         "                 [--analysis-threads N] [--cache-bytes N]\n"
         "                 [--no-schedule]\n"
         "\n"
         "--capture FILE     .v6tcap dump (v6t_run --dump-captures)\n"
         "--spill-dir DIR    spill root of a v6t_run --spill-dir run\n"
         "--telescope NAME   telescope to load from the spill root\n"
         "                   (default T1; needs --spill-dir)\n"
         "--no-schedule      serve without a split schedule\n"
         "                   (/reaction-delays returns 404)\n";
  return 2;
}

std::atomic<bool> gStop{false};

void onSignal(int) { gStop.store(true, std::memory_order_relaxed); }

} // namespace

int main(int argc, char** argv) {
  using namespace v6t;

  std::string capturePath;
  std::string spillDir;
  std::string configPath;
  std::optional<std::string> telescopeName; // default T1
  bool noSchedule = false;
  std::optional<std::uint64_t> portOverride; // 0 = ephemeral
  std::uint64_t threadsOverride = 0;
  std::uint64_t analysisThreadsOverride = 0;
  std::optional<std::uint64_t> cacheBytesOverride; // 0 disables the cache
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t number = 0;
    if (arg == "--capture") {
      if (++i >= argc) return usage();
      capturePath = argv[i];
    } else if (arg == "--spill-dir") {
      if (++i >= argc) return usage();
      spillDir = argv[i];
    } else if (arg == "--telescope") {
      if (++i >= argc) return usage();
      telescopeName = argv[i];
    } else if (arg == "--port") {
      if (++i >= argc) return usage();
      if (!core::flagU64("--port", argv[i], 0, 65535, number)) return usage();
      portOverride = number;
    } else if (arg == "--threads") {
      if (++i >= argc) return usage();
      if (!core::flagU64("--threads", argv[i], 1, 64, threadsOverride)) {
        return usage();
      }
    } else if (arg == "--analysis-threads") {
      if (++i >= argc) return usage();
      if (!core::flagU64("--analysis-threads", argv[i], 1, 64,
                         analysisThreadsOverride)) {
        return usage();
      }
    } else if (arg == "--cache-bytes") {
      if (++i >= argc) return usage();
      if (!core::flagU64("--cache-bytes", argv[i], 0, UINT64_MAX, number)) {
        return usage();
      }
      cacheBytesOverride = number;
    } else if (arg == "--no-schedule") {
      noSchedule = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option " << arg << "\n";
      return usage();
    } else {
      configPath = arg;
    }
  }

  if (capturePath.empty() == spillDir.empty()) {
    std::cerr << "exactly one of --capture / --spill-dir is required\n";
    return usage();
  }
  if (telescopeName && spillDir.empty()) {
    std::cerr << "--telescope requires --spill-dir\n";
    return usage();
  }

  const std::optional<core::ExperimentConfig> loaded =
      core::loadConfigFile(configPath);
  if (!loaded) return 1;
  const core::ExperimentConfig& config = *loaded;

  // Load the capture into one canonical-order packet vector. The spill
  // path streams the same segment merge the analysis uses, so the packets
  // — and therefore every response — are identical to the in-memory path.
  std::vector<net::Packet> packets;
  std::string loadedFrom = capturePath;
  if (!capturePath.empty()) {
    std::ifstream in{capturePath, std::ios::binary};
    if (!in) {
      std::cerr << "cannot open " << capturePath << "\n";
      return 1;
    }
    net::CaptureReader reader{in};
    packets = reader.readAll();
    if (!reader.ok()) {
      std::cerr << "cannot load " << capturePath
                << ": not a v6tcap capture, or cut short after "
                << packets.size() << " packets\n";
      return 1;
    }
  } else {
    const std::string name = telescopeName.value_or("T1");
    loadedFrom = spillDir + " (" + name + ")";
    try {
      const std::vector<telescope::SegmentReader> segments =
          telescope::openSpilledSegments(spillDir, name);
      std::uint64_t total = 0;
      for (const telescope::SegmentReader& seg : segments) {
        total += seg.meta().recordCount;
      }
      packets.reserve(total);
      // Reading each segment to its end verifies its data checksum; a
      // mismatch or a torn record throws, naming the segment.
      for (auto merge = telescope::mergeSegments(segments); !merge.done();
           merge.pop()) {
        packets.push_back(merge.head());
      }
    } catch (const std::exception& e) {
      std::cerr << "cannot load " << loadedFrom << ": " << e.what() << "\n";
      return 1;
    }
  }
  // The sessionizer and the classifiers assume time order; a capture that
  // goes back in time would be answered with wrong sessions.
  const auto back = std::adjacent_find(
      packets.begin(), packets.end(),
      [](const net::Packet& a, const net::Packet& b) { return b.ts < a.ts; });
  if (back != packets.end()) {
    const auto record = static_cast<std::size_t>(back - packets.begin()) + 2;
    std::cerr << "cannot load " << loadedFrom << ": record " << record
              << " (ts " << (back + 1)->ts.millis()
              << " ms) is earlier than the record before it (ts "
              << back->ts.millis() << " ms); a capture must be time-ordered\n";
    return 1;
  }
  std::cout << "loaded " << packets.size() << " packets from " << loadedFrom
            << "\n";

  // Sessions at /128 — the unit of classification (§3.3) the index is
  // built over, same as the analysis pipeline's default.
  const std::vector<telescope::Session> sessions =
      telescope::sessionize(packets, telescope::SourceAgg::Addr128);

  // The schedule is pure data computed from the timeline parameters — no
  // experiment run needed to know when each child prefix went live.
  std::unique_ptr<bgp::SplitSchedule> schedule;
  if (!noSchedule) {
    bgp::SplitSchedule::Params params;
    params.base = config.t1Base;
    params.start = sim::kEpoch;
    params.baseline = config.baseline;
    params.cycle = config.cycle;
    params.withdrawGap = config.withdrawGap;
    params.splits = config.splits;
    schedule =
        std::make_unique<bgp::SplitSchedule>(bgp::SplitSchedule::make(params));
  }

  obs::Registry registry;
  serve::QueryEngineOptions engineOptions;
  engineOptions.analysisThreads =
      analysisThreadsOverride != 0
          ? static_cast<unsigned>(analysisThreadsOverride)
          : config.effectiveAnalysisThreads();
  engineOptions.minSplitCost = config.analysisMinSplitCost;
  std::cout << "building capture index (" << sessions.size()
            << " sessions) ...\n";
  const serve::QueryEngine engine{packets, sessions, schedule.get(),
                                  engineOptions, &registry};

  serve::ServerOptions serverOptions;
  serverOptions.port = portOverride
                           ? static_cast<std::uint16_t>(*portOverride)
                           : config.servePort;
  serverOptions.threads = threadsOverride != 0
                              ? static_cast<unsigned>(threadsOverride)
                              : config.serveThreads;
  serverOptions.cacheBytes =
      cacheBytesOverride.value_or(config.serveCacheBytes);
  serverOptions.cacheShards = config.serveCacheShards;
  serverOptions.maxConnections = config.serveMaxConnections;
  serverOptions.maxRequestBytes = config.serveMaxRequestBytes;
  serverOptions.idleTimeoutSeconds =
      static_cast<double>(config.serveIdleTimeoutSeconds);
  serverOptions.registry = &registry;

  serve::Server server{engine, serverOptions};
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "cannot start server: " << e.what() << "\n";
    return 1;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::cout << "serving on http://127.0.0.1:" << server.port() << " ("
            << serverOptions.threads << " workers, cache "
            << serverOptions.cacheBytes << " bytes)\n"
            << std::flush;

  while (!gStop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "shutting down after " << server.requestsServed()
            << " requests\n";
  server.stop();
  return 0;
}
