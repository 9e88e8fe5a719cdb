// v6t_run — run a telescope experiment from a configuration file.
//
//   v6t_run [config-file] [--out DIR] [--dump-captures] [--print-config]
//           [--threads N] [--analysis-threads N] [--faults SPEC]
//           [--fault-seed N] [--metrics-out FILE] [--metrics-prom FILE]
//           [--metrics-interval SEC] [--log-level LEVEL]
//
// Without a config file the paper's default configuration runs. The tool
// writes a summary report to stdout and, with --dump-captures, one
// .v6tcap file per telescope into the output directory. --from/--to
// restrict the dump to ts in [from, to) milliseconds; in spill mode the
// start position comes from the segments' sparse time index
// (SegmentReader::cursor(from)), so nothing before `from` is read off
// disk.
// --out, --from, --to and --source without --dump-captures,
// --metrics-interval without --metrics-out, and a spill budget
// (--spill-bytes or capture.spill_bytes) without a spill directory are
// usage errors (exit 2), never silently ignored.
//
// Every run goes through the ExperimentRunner: --threads N (or
// `threads = N` in the config file; default 1) executes the population
// across N worker shards and merges captures into canonical order, with
// results bitwise-identical for every N. An in-memory run reports the
// per-telescope table, the §8 operator guidance and the shard stats; a
// spilled run (--spill-dir) reports the streamed table instead of the
// guidance and leaves the whole capture sealed in the spill directory. A
// spill directory that already holds segment files is refused (exit 1)
// before anything is simulated.
//
// --analysis-threads N (or `analysis.threads = N` in the config file)
// fans the post-run analysis pipeline — summary sessionization plus the
// per-telescope taxonomy over the shared capture index — across N
// workers; the report is bitwise-identical for every N (DESIGN.md §12).
// Unset, it inherits the simulation's thread count.
//
// --faults takes a comma-separated fault spec (see fault/spec.hpp), e.g.
//   --faults "packet_loss=0.01,bgp_drop=0.1,gap=T1@2w+3d";
// --fault-seed replays the same spec under different draws. Faulty runs
// remain bitwise-reproducible for any --threads value.
//
// Numeric flags go through the config file's checked parsers: a value
// with trailing junk ("4x", "12x") or out of range is a usage error
// (exit 2), never silently truncated.
//
// --metrics-out streams one JSONL metrics snapshot per --metrics-interval
// seconds of wall time (plus a final post-analysis snapshot) and prints a
// live progress heartbeat to stderr; --metrics-prom writes a final
// Prometheus text dump. Both are pure observers: a run with metrics
// enabled produces bitwise-identical captures to one without.
//
// --trace-out FILE enables the flight recorder (implies trace.enabled and
// full event retention) and writes a Chrome trace-event JSON that loads in
// Perfetto / chrome://tracing: one "simulation" process on the simulated
// clock (byte-identical for any --threads value) and one "analysis
// scheduler" process on the wall clock. Tracing is observation-only —
// captures and the report stay bitwise-identical to an untraced run.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "analysis/report.hpp"
#include "analysis/streaming.hpp"
#include "analysis/taxonomy.hpp"
#include "core/config.hpp"
#include "core/guidance.hpp"
#include "core/metrics.hpp"
#include "core/runner.hpp"
#include "core/summary.hpp"
#include "fault/invariants.hpp"
#include "fault/spec.hpp"
#include "obs/exporter.hpp"
#include "obs/format.hpp"
#include "net/pcap.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telescope/kway_merge.hpp"

namespace {

int usage() {
  std::cerr << "usage: v6t_run [config-file] [--out DIR] [--dump-captures]"
               " [--print-config] [--threads N]\n"
               "               [--analysis-threads N] [--faults SPEC]"
               " [--fault-seed N] [--metrics-out FILE]\n"
               "               [--metrics-prom FILE] [--metrics-interval SEC]"
               " [--log-level LEVEL]\n"
               "               [--trace-out FILE] [--spill-dir DIR]"
               " [--spill-bytes N]\n"
               "               [--from MS] [--to MS] [--source ADDR]\n"
               "\n"
               "--from/--to restrict --dump-captures to packets with\n"
               "from <= ts < to (simulated milliseconds since epoch); in\n"
               "spill mode the start lands via the segments' sparse time\n"
               "index instead of a full scan.\n"
               "--source restricts --dump-captures to packets from one\n"
               "/128 source address; in spill mode segments that hold\n"
               "nothing from it (per their source tables) are never read.\n"
               "--out, --from, --to and --source need --dump-captures,\n"
               "--metrics-interval needs --metrics-out, and --spill-bytes\n"
               "needs a spill directory.\n";
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  using namespace v6t;

  std::string configPath;
  std::optional<std::string> outDir;
  std::string metricsOut;
  std::string metricsProm;
  std::string traceOut;
  std::optional<double> metricsInterval;
  bool dumpCaptures = false;
  bool printConfig = false;
  std::uint64_t threadsOverride = 0; // 0 = not given on the command line
  std::uint64_t analysisThreadsOverride = 0;
  std::string faultsSpec;
  std::optional<std::uint64_t> faultSeedOverride;
  std::string spillDir;
  std::uint64_t spillBytes = 0;
  std::optional<sim::SimTime> dumpFrom;
  std::optional<std::int64_t> dumpToMs;
  std::optional<net::Ipv6Address> dumpSource;
  constexpr std::uint64_t kU64Max = UINT64_MAX;
  constexpr std::uint64_t kMsMax = INT64_MAX;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t number = 0;
    if (arg == "--out") {
      if (++i >= argc) return usage();
      outDir = argv[i];
    } else if (arg == "--faults") {
      if (++i >= argc) return usage();
      faultsSpec = argv[i];
    } else if (arg == "--fault-seed") {
      if (++i >= argc) return usage();
      if (!core::flagU64("--fault-seed", argv[i], 0, kU64Max, number)) {
        return usage();
      }
      faultSeedOverride = number;
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
    } else if (arg == "--spill-dir") {
      if (++i >= argc) return usage();
      spillDir = argv[i];
    } else if (arg == "--spill-bytes") {
      if (++i >= argc) return usage();
      if (!core::flagU64("--spill-bytes", argv[i], 1, kU64Max, spillBytes)) {
        return usage();
      }
    } else if (arg == "--metrics-out") {
      if (++i >= argc) return usage();
      metricsOut = argv[i];
    } else if (arg == "--metrics-prom") {
      if (++i >= argc) return usage();
      metricsProm = argv[i];
    } else if (arg == "--trace-out") {
      if (++i >= argc) return usage();
      traceOut = argv[i];
    } else if (arg == "--metrics-interval") {
      if (++i >= argc) return usage();
      double seconds = 0.0;
      if (!core::parseDouble(argv[i], seconds) || !std::isfinite(seconds) ||
          !(seconds > 0.0)) {
        std::cerr << "--metrics-interval takes a number of seconds > 0, not '"
                  << argv[i] << "'\n";
        return usage();
      }
      metricsInterval = seconds;
    } else if (arg == "--log-level") {
      if (++i >= argc) return usage();
      const std::string name = argv[i];
      if (name != "trace" && name != "debug" && name != "info" &&
          name != "warn" && name != "error" && name != "off") {
        std::cerr << "--log-level must be trace|debug|info|warn|error|off\n";
        return usage();
      }
      obs::Logger::global().setLevel(obs::parseLevel(name));
    } else if (arg == "--from") {
      if (++i >= argc) return usage();
      if (!core::flagU64("--from", argv[i], 0, kMsMax, number)) return usage();
      dumpFrom = sim::SimTime{static_cast<std::int64_t>(number)};
    } else if (arg == "--to") {
      if (++i >= argc) return usage();
      if (!core::flagU64("--to", argv[i], 0, kMsMax, number)) return usage();
      dumpToMs = static_cast<std::int64_t>(number);
    } else if (arg == "--source") {
      if (++i >= argc) return usage();
      dumpSource = net::Ipv6Address::parse(argv[i]);
      if (!dumpSource) {
        std::cerr << "--source: not a valid IPv6 address: " << argv[i]
                  << "\n";
        return usage();
      }
    } else if (arg == "--dump-captures") {
      dumpCaptures = true;
    } else if (arg == "--print-config") {
      printConfig = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option " << arg << "\n";
      return usage();
    } else {
      configPath = arg;
    }
  }

  if (dumpFrom && dumpToMs && *dumpToMs <= dumpFrom->millis()) {
    std::cerr << "--to must be greater than --from\n";
    return usage();
  }

  std::optional<core::ExperimentConfig> loaded =
      core::loadConfigFile(configPath);
  if (!loaded) return 1;
  core::ExperimentConfig& config = *loaded;
  if (threadsOverride != 0) {
    config.threads = static_cast<unsigned>(threadsOverride);
  }
  if (analysisThreadsOverride != 0) {
    config.analysisThreads = static_cast<unsigned>(analysisThreadsOverride);
  }
  if (!faultsSpec.empty()) {
    const auto parsed = fault::FaultSpec::parse(faultsSpec);
    if (!parsed.ok()) {
      for (const auto& e : parsed.errors) std::cerr << "--faults: " << e << "\n";
      return 1;
    }
    config.faults = parsed.spec;
  }
  if (faultSeedOverride) config.faultSeed = *faultSeedOverride;
  if (!spillDir.empty()) config.captureSpillDir = spillDir;
  if (spillBytes != 0) config.captureSpillBytes = spillBytes;
  const bool spillMode = config.captureSpillEnabled();
  // Options that only act together with another one are refused alone
  // rather than ignored.
  if (config.captureSpillBytes != 0 && !spillMode) {
    std::cerr << (spillBytes != 0 ? "--spill-bytes" : "capture.spill_bytes")
              << " requires a spill directory (--spill-dir or "
                 "capture.spill_dir)\n";
    return usage();
  }
  if (!dumpCaptures && (outDir || dumpFrom || dumpToMs || dumpSource)) {
    std::cerr << (outDir       ? "--out"
                  : dumpFrom   ? "--from"
                  : dumpToMs   ? "--to"
                               : "--source")
              << " requires --dump-captures\n";
    return usage();
  }
  if (metricsInterval && metricsOut.empty()) {
    std::cerr << "--metrics-interval requires --metrics-out\n";
    return usage();
  }
  if (!traceOut.empty()) {
    // Export needs every sim-domain event, not just the bounded ring.
    config.traceEnabled = true;
    config.traceRetainAll = true;
    if (!obs::trace::kCompiledIn) {
      std::cerr << "--trace-out requires a build with V6T_TRACE=ON\n";
      return 1;
    }
  }
  if (printConfig) {
    std::cout << core::formatExperimentConfig(config);
    return 0;
  }

  const std::filesystem::path dumpDir = outDir.value_or(".");
  std::cout << "running experiment (seed " << config.seed << ", "
            << config.splits << " splits, threads " << config.threads
            << ") ...\n";
  core::RunnerConfig runnerConfig;
  runnerConfig.experiment = config;
  core::ExperimentRunner runner{runnerConfig};
  std::array<std::string, 4> names;
  for (std::size_t t = 0; t < 4; ++t) names[t] = runner.telescopeName(t);

  // Flight-recorder handles, one per shard. Fatal signals dump the
  // retained ring windows to stderr post-mortem.
  const std::vector<obs::trace::Tracer*> traceHandles =
      runner.tracersMutable();
  if (config.traceEnabled) {
    obs::trace::registerCrashDumpTracers(traceHandles);
    obs::trace::installCrashHandler();
  }

  std::unique_ptr<obs::PeriodicExporter> exporter;
  if (!metricsOut.empty()) {
    obs::ExporterOptions exporterOptions;
    exporterOptions.jsonlPath = metricsOut;
    if (metricsInterval) exporterOptions.intervalSeconds = *metricsInterval;
    // The exporter thread only reads relaxed-atomic metric values; it
    // cannot perturb the shards (DESIGN.md §9 determinism contract).
    exporter = std::make_unique<obs::PeriodicExporter>(
        exporterOptions,
        [&runner](std::ostream& out) {
          obs::Registry snapshot;
          runner.snapshotMetrics(snapshot);
          snapshot.writeJsonLine(
              out, {{"phase", "live"},
                    {"wall_time", obs::fmt::isoTimestampUtc()}});
        },
        [&runner] { return runner.progressLine(); });
  }
  try {
    runner.run();
  } catch (const std::exception& e) {
    std::cerr << "v6t_run: " << e.what() << "\n";
    return 1;
  }
  obs::Registry& metrics = runner.metrics();

  // Flush every observability artifact — last metrics snapshot, Prometheus
  // dump, trace file — used by both the normal-exit path and the
  // invariant-failure abort, so a run never dies between heartbeats with
  // its last interval lost.
  auto flushObservability = [&](const char* phase) {
    if (exporter) {
      exporter->stop();
      exporter.reset();
    }
    if (!metricsOut.empty()) {
      std::ofstream out{metricsOut, std::ios::app};
      if (!out) {
        std::cerr << "cannot write " << metricsOut << "\n";
        return false;
      }
      metrics.writeJsonLine(
          out, {{"phase", phase}, {"wall_time", obs::fmt::isoTimestampUtc()}});
    }
    if (!metricsProm.empty()) {
      std::ofstream out{metricsProm};
      if (!out) {
        std::cerr << "cannot write " << metricsProm << "\n";
        return false;
      }
      metrics.writePrometheus(out);
    }
    if (!traceOut.empty()) {
      const std::vector<const obs::trace::Tracer*> view(traceHandles.begin(),
                                                        traceHandles.end());
      const auto simEvents = obs::trace::collectCanonicalSimEvents(view);
      const auto wallEvents = obs::trace::collectWallEvents(view);
      std::ofstream out{traceOut};
      if (!out) {
        std::cerr << "cannot write " << traceOut << "\n";
        return false;
      }
      obs::trace::writeChromeTrace(out, simEvents, wallEvents);
      std::cout << "wrote " << traceOut << " (" << simEvents.size()
                << " sim events, " << wallEvents.size()
                << " scheduler events)\n";
    }
    return true;
  };

  auto printRunnerStats = [&] {
    const core::RunnerStats& stats = runner.stats();
    std::cout << "\nshards:\n";
    double maxWall = 0.0;
    double sumWall = 0.0;
    double sumBarrierWait = 0.0;
    for (const core::ShardStats& shard : stats.shards) {
      std::uint64_t minEpochEvents = 0;
      std::uint64_t maxEpochEvents = 0;
      if (!shard.epochEvents.empty()) {
        const auto [lo, hi] = std::minmax_element(shard.epochEvents.begin(),
                                                  shard.epochEvents.end());
        minEpochEvents = *lo;
        maxEpochEvents = *hi;
      }
      std::cout << "  shard " << shard.shardId << ": scanners="
                << shard.scanners << " events=" << shard.events
                << " captured=" << shard.packetsCaptured << " wall="
                << obs::fmt::fixed(shard.wallSeconds, 3) << "s barrier_wait="
                << obs::fmt::fixed(shard.barrierWaitSeconds, 3)
                << "s epoch_events=" << minEpochEvents << ".."
                << maxEpochEvents << " queue_hwm="
                << shard.queueDepthHighWater << "\n";
      maxWall = std::max(maxWall, shard.wallSeconds);
      sumWall += shard.wallSeconds;
      sumBarrierWait += shard.barrierWaitSeconds;
    }
    const double meanWall =
        stats.shards.empty() ? 0.0
                             : sumWall / static_cast<double>(stats.shards.size());
    std::cout << "imbalance: slowest/mean wall="
              << obs::fmt::fixed(meanWall > 0 ? maxWall / meanWall : 0.0, 2)
              << "x, total barrier wait="
              << obs::fmt::fixed(sumBarrierWait, 3) << "s\n";
    std::cout << "merged " << stats.packetsMerged << " packets in "
              << obs::fmt::fixed(stats.mergeWallSeconds, 3) << "s (run "
              << obs::fmt::fixed(stats.runWallSeconds, 3) << "s)\n";
  };

  // Canonical capture order is the anchor every downstream analysis
  // assumes. On a violation, dump the flight-recorder rings (the most
  // recent causal history) and flush a final "abort" snapshot instead of
  // dying between heartbeats.
  const auto orderGateFailed = [&](const fault::InvariantChecker& checker) {
    if (checker.ok()) return false;
    std::cerr << "FATAL: capture invariant violated\n";
    for (const std::string& v : checker.violations()) {
      std::cerr << "  " << v << "\n";
    }
    obs::trace::dumpRegisteredRings(std::cerr);
    flushObservability("abort");
    return true;
  };

  // Every dump, in both capture modes, goes through this loop: `cursorOf(t)`
  // starts at telescope t's first packet with ts >= --from, --to stops the
  // ts-ordered stream early, and --source filters per record. The bytes
  // written equal a full dump filtered to the range and the source.
  const auto writeDumps = [&](const auto& cursorOf) {
    std::filesystem::create_directories(dumpDir);
    for (std::size_t t = 0; t < 4; ++t) {
      const auto path = dumpDir / (names[t] + ".v6tcap");
      std::ofstream out{path, std::ios::binary};
      net::CaptureWriter writer{out};
      auto cursor = cursorOf(t);
      if (!cursor.empty()) {
        do {
          const net::Packet& p = cursor.head();
          if (dumpToMs && p.ts.millis() >= *dumpToMs) break;
          if (dumpSource && p.src != *dumpSource) continue;
          writer.write(p);
        } while (cursor.advance());
      }
      std::cout << "wrote " << path.string() << " ("
                << writer.recordsWritten() << " records)\n";
    }
  };

  // Spill mode: the captures drained to per-shard segment stores during
  // the run and were sealed, so every downstream consumer streams the one
  // merge of the sealed segments instead of touching runner.capture()
  // (which is empty). The
  // windowed analysis digest is bitwise-identical to the in-memory path
  // (DESIGN.md §15); the canonical-order gate applies the same rule to
  // each step of the stream.
  if (spillMode) {
    const unsigned analysisThreads = config.effectiveAnalysisThreads();
    std::array<analysis::StreamingResult, 4> results;
    fault::InvariantChecker checker;
    {
      obs::Span phaseSpan(metrics, "runner.phase.analyze_seconds");
      for (std::size_t t = 0; t < 4; ++t) {
        analysis::StreamingOptions opts;
        opts.threads = analysisThreads;
        opts.metrics = &metrics;
        opts.captureGaps = config.faults.gapWindowsFor(t);
        analysis::StreamingAnalyzer analyzer{opts};
        auto cursor = runner.streamCapture(t);
        net::Packet prev;
        std::uint64_t index = 0;
        if (!cursor.empty()) {
          do {
            const net::Packet& p = cursor.head();
            if (index > 0) checker.checkCanonicalStep(prev, p, index);
            prev = p;
            ++index;
            analyzer.ingest(p);
          } while (cursor.advance());
        }
        results[t] = analyzer.finish();
      }
    }
    if (orderGateFailed(checker)) return 1;
    if (!flushObservability("final")) return 1;

    analysis::TextTable table{{"telescope", "packets", "sources /128",
                               "sessions /128", "heavy hitters", "windows",
                               "segments"}};
    for (std::size_t t = 0; t < 4; ++t) {
      const analysis::StreamingResult& r = results[t];
      const bool inGap = !config.faults.gapWindowsFor(t).empty();
      table.addRow({analysis::gapFlagged(names[t], inGap),
                    analysis::withThousands(r.totalPackets),
                    analysis::withThousands(r.sources.size()),
                    analysis::withThousands(r.sessionStats.opened),
                    analysis::withThousands(r.heavyHitters.size()),
                    analysis::withThousands(r.windows),
                    analysis::withThousands(runner.spilledSegments(t).size())});
    }
    table.render(std::cout);
    std::cout << "\ncapture digests (streamed, canonical order):\n";
    for (std::size_t t = 0; t < 4; ++t) {
      std::cout << "  " << names[t] << ": 0x" << std::hex
                << results[t].digest() << std::dec << "\n";
    }

    printRunnerStats();

    if (dumpCaptures) {
      // The segments' sparse time index places the start, and with
      // --source the merge skips the segments whose source tables prove
      // they hold nothing from that address.
      writeDumps([&](std::size_t t) {
        return runner.streamCapture(t, dumpFrom, dumpSource);
      });
    }
    return 0;
  }

  // Post-run analysis inside the runner.phase.analyze_seconds span, so the
  // final snapshot carries its full cost and the analysis.* metrics: the
  // canonical-order gate, then (if it passed) summary sessionization and
  // the per-telescope pipelines.
  std::optional<core::ExperimentSummary> summary;
  std::array<analysis::PipelineResult, 4> reports;
  // Analysis scheduler slices land in tracer 0's wall-domain lane.
  if (config.traceEnabled && !traceHandles.empty()) {
    obs::trace::setWallTracer(traceHandles.front());
  }
  fault::InvariantChecker checker;
  {
    obs::Span phaseSpan(metrics, "runner.phase.analyze_seconds");
    for (std::size_t t = 0; t < 4; ++t) {
      checker.checkCanonicalOrder(runner.capture(t));
    }
    if (checker.ok()) {
      const unsigned analysisThreads = config.effectiveAnalysisThreads();
      {
        obs::Span analyzeSpan(metrics, "experiment.phase.analyze_seconds");
        summary = core::ExperimentSummary::compute(runner, analysisThreads);
      }
      core::collectSummaryMetrics(*summary, metrics);
      reports = core::analyzeTelescopes(runner, *summary, analysisThreads,
                                        &metrics);
    }
  }
  obs::trace::setWallTracer(nullptr);
  if (orderGateFailed(checker)) return 1;

  // §8 operator guidance, from the T1 and T2 taxonomies the pipeline just
  // built.
  std::vector<core::Finding> findings;
  {
    obs::Span phaseSpan(metrics, "runner.phase.report_seconds");
    findings = core::GuidanceEngine::derive(runner, *summary,
                                            reports[core::T1].taxonomy,
                                            reports[core::T2].taxonomy);
  }

  // The live exporter's ticks are done; the final post-analysis snapshot,
  // the Prometheus dump, and the trace file come from the fully aggregated
  // state.
  if (!flushObservability("final")) return 1;

  // Per-telescope overview.
  analysis::TextTable table{{"telescope", "packets", "sources /128",
                             "sessions /128", "one-off", "periodic",
                             "intermittent"}};
  for (std::size_t t = 0; t < 4; ++t) {
    const auto& sessions = summary->telescope(t).sessions128;
    const analysis::TaxonomyResult& taxonomy = reports[t].taxonomy;
    // A telescope whose observation window overlaps a declared capture
    // outage is flagged: its numbers are lower bounds, not measurements.
    const bool inGap = !config.faults.gapWindowsFor(t).empty();
    // Every packet lands in a /128 session and the taxonomy profiles each
    // session source once, so its profile count is the distinct /128
    // source count.
    table.addRow(
        {analysis::gapFlagged(names[t], inGap),
         analysis::withThousands(runner.capture(t).packetCount()),
         analysis::withThousands(taxonomy.profiles.size()),
         analysis::withThousands(sessions.size()),
         analysis::withThousands(
             taxonomy.scannersOf(analysis::TemporalClass::OneOff)),
         analysis::withThousands(
             taxonomy.scannersOf(analysis::TemporalClass::Periodic)),
         analysis::withThousands(
             taxonomy.scannersOf(analysis::TemporalClass::Intermittent))});
  }
  table.render(std::cout);

  std::cout << "\n";
  for (const core::Finding& finding : findings) {
    std::cout << "* " << finding.topic << ": " << finding.statement
              << "\n  (" << finding.evidence << ")\n";
  }

  printRunnerStats();

  if (dumpCaptures) {
    // The in-memory capture is ts-ordered: one lower bound finds --from.
    writeDumps([&](std::size_t t) {
      const std::vector<net::Packet>& packets = runner.capture(t).packets();
      const auto first =
          dumpFrom ? std::ranges::lower_bound(packets, *dumpFrom, {},
                                              &net::Packet::ts)
                   : packets.begin();
      return telescope::SpanCursor{{first, packets.end()}};
    });
  }
  return 0;
}
