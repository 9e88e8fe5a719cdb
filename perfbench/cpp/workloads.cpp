// perfbench — the three workloads.
//
//   experiment  the default paper config through core::ExperimentRunner
//               (1 shard, 1 analysis thread, in memory), then
//               ExperimentSummary::compute and one analysis::Pipeline per
//               telescope — what `v6t_run --threads 1` does.
//   spill       the same config with the capture spilled to segment
//               stores at a small budget and analysed by StreamingAnalyzer
//               — what `v6t_run --spill-dir DIR --spill-bytes N` does.
//   query_mix   an open-loop query mix against an in-process serve::Server
//               over the experiment's T1 capture, default ServerOptions.
//
// Each workload repeats its unit of work until --seconds have been
// measured and reports medians. Correctness checks run outside the timed
// window; every failed check counts in `failed`.
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <initializer_list>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>
#include <tuple>

#include "analysis/capture_index.hpp"
#include "analysis/heavy_hitter.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/streaming.hpp"
#include "analysis/taxonomy.hpp"
#include "common.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/runner.hpp"
#include "core/summary.hpp"
#include "fault/invariants.hpp"
#include "loadgen.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "telescope/session.hpp"

namespace perfbench {
namespace {

using namespace v6t;

constexpr std::array<const char*, 4> kNames{"T1", "T2", "T3", "T4"};
/// Runner constructions timed per run for setup_s (construction is
/// ~15 ms, so a median of many is cheap and steady).
constexpr int kSetupSamples = 15;

const char* scaleName(const Options& opts) {
  return opts.tiny ? "tiny" : "default";
}

/// Counter/gauge value or histogram sum from a flattened registry.
double metric(const std::map<std::string, double>& flat,
              const std::string& name) {
  if (const auto it = flat.find(name); it != flat.end()) return it->second;
  if (const auto it = flat.find(name + ".sum"); it != flat.end()) {
    return it->second;
  }
  return 0.0;
}

/// Median of each per-layer metric over the traced jobs.
Metrics medianOf(const std::vector<Metrics>& jobs) {
  Metrics out;
  if (jobs.empty()) return out;
  for (const auto& [name, m] : jobs.front()) {
    std::vector<double> values;
    for (const Metrics& job : jobs) {
      if (const auto it = job.find(name); it != job.end()) {
        values.push_back(it->second.value);
      }
    }
    out[name] = {median(values), m.unit};
  }
  return out;
}

/// The simulation layers' counters, as the runner exports them.
void simulationLayers(const core::ExperimentRunner& runner, Metrics& m) {
  const auto flat = runner.metrics().flatten();
  const double epochs = metric(flat, "runner.phase.epochs_seconds");
  const double events = metric(flat, "sim.events_total");
  const double sent = metric(flat, "fabric.packets_sent_total");
  const double captured = metric(flat, "runner.packets_merged_total");
  m["core.epochs_s"] = {epochs, "s"};
  m["core.merge_s"] = {metric(flat, "runner.phase.merge_seconds"), "s"};
  m["sim.events"] = {events, "count"};
  m["sim.events_per_s"] = {epochs > 0 ? events / epochs : 0.0, "1/s"};
  m["sim.queue_hwm"] = {metric(flat, "sim.queue_depth_high_water"), "count"};
  m["bgp.rib_lookups"] = {metric(flat, "bgp.rib.lpm_lookups_total"), "count"};
  m["bgp.feed_deliveries"] = {metric(flat, "bgp.feed.deliveries_total"),
                              "count"};
  m["telescope.packets_sent"] = {sent, "count"};
  m["telescope.packets_captured"] = {captured, "count"};
  m["telescope.capture_ratio"] = {sent > 0 ? captured / sent : 0.0, "ratio"};
}

/// Self time per layer and the uncovered rest over one traced window.
void selfTimes(const SpanRecorder& spans, double from, double to,
               Metrics& m) {
  for (const char* layer : {"core", "telescope", "analysis", "serve",
                            "loadgen"}) {
    m[std::string{layer} + ".self_s"] = {0.0, "s"};
  }
  for (const auto& [layer, self] : spans.selfTimeByLayer(from, to)) {
    m[layer + ".self_s"] = {self, "s"};
  }
  m["other_s"] = {(to - from) - spans.rootCovered(from, to), "s"};
}

/// Direct per-axis calls over built indexes (the traced run's breakdown
/// of the taxonomy, outside the timed window).
void axisProbes(const std::vector<const analysis::CaptureIndex*>& indexes,
                SpanRecorder& spans, std::uint64_t runId, Metrics& m) {
  std::uint64_t sources = 0;
  std::uint64_t periodic = 0;
  const double t0 = spans.now();
  {
    ScopedSpan span(spans, "analysis.temporal", runId);
    for (const analysis::CaptureIndex* idx : indexes) {
      for (std::size_t i = 0; i < idx->sourceCount(); ++i) {
        const auto r = analysis::classifyTemporal(idx->sessionStartsOf(i));
        ++sources;
        if (r.cls == analysis::TemporalClass::Periodic) ++periodic;
      }
    }
  }
  const double t1 = spans.now();
  std::uint64_t structured = 0;
  {
    ScopedSpan span(spans, "analysis.address", runId);
    for (const analysis::CaptureIndex* idx : indexes) {
      const auto n = static_cast<std::uint32_t>(idx->sessions().size());
      for (std::uint32_t s = 0; s < n; ++s) {
        if (analysis::classifyAddressSelection(*idx, s) ==
            analysis::AddressSelection::Structured) {
          ++structured;
        }
      }
    }
  }
  const double t2 = spans.now();
  m["analysis.temporal_s"] = {t1 - t0, "s"};
  m["analysis.temporal_sources"] = {static_cast<double>(sources), "count"};
  m["analysis.periodic_sources"] = {static_cast<double>(periodic), "count"};
  m["analysis.address_s"] = {t2 - t1, "s"};
  m["analysis.structured_sessions"] = {static_cast<double>(structured),
                                       "count"};
}

/// Per-layer metrics of the layers a workload does not exercise, set to 0
/// in one place per workload. Every other metric must be computed: run.py
/// fails a run whose output lacks a metric of BENCHMARK.json.
void notExercised(
    Metrics& m,
    std::initializer_list<std::pair<const char*, const char*>> metrics) {
  for (const auto& [name, unit] : metrics) m[name] = {0.0, unit};
}

/// One line per batch job: its world, size and where its time went.
void logJob(std::uint64_t job, std::uint64_t world,
            const core::ExperimentRunner& runner, double wall) {
  std::cout << "job " << job << " world " << world << ": "
            << runner.stats().packetsMerged << " packets, wall " << wall
            << " s, epochs "
            << metric(runner.metrics().flatten(),
                      "runner.phase.epochs_seconds")
            << " s\n";
}

/// Relative cost of tracing: traced against untraced medians, in percent.
void traceOverhead(const std::vector<double>& untraced,
                   const std::vector<double>& traced, Metrics& m) {
  const double base = median(untraced);
  m["trace.overhead_pct"] = {
      base > 0 ? 100.0 * (median(traced) - base) / base : 0.0, "%"};
}

/// Batch workloads: a job is runner construction -> report.
void batchEndToEnd(const std::vector<double>& walls,
                   const std::vector<double>& setups, Metrics& m) {
  m["wall_s"] = {median(walls), "s"};
  m["setup_s"] = {median(setups), "s"};
}

/// Runner constructions only (the plan phase), timed kSetupSamples times.
std::vector<double> constructionSamples(const core::RunnerConfig& rc) {
  std::vector<double> out;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    const core::ExperimentRunner runner{rc};
    out.push_back(secondsSince(t0));
  }
  return out;
}

double instantiateSeconds(const core::ExperimentRunner& runner) {
  return metric(runner.metrics().flatten(),
                "runner.phase.instantiate_seconds");
}

constexpr const char* kRssWindowFailure =
    "peak-RSS window not reset: /proc/self/clear_refs had no effect";

/// Compare a job's digests with the committed ones for its world, and log
/// them. World 42 at the default scale must have committed digests.
void checkDigests(Outcome& out, const Options& opts, std::uint64_t world,
                  std::string_view kind,
                  const std::array<std::uint64_t, 4>& got) {
  std::cout << "world " << world << " " << kind << " digests:";
  for (std::size_t t = 0; t < 4; ++t) {
    std::cout << " " << kNames[t] << " " << hex(got[t]);
    const std::uint64_t* want =
        opts.references.find(scaleName(opts), world, kind, kNames[t]);
    if (want != nullptr && *want != got[t]) {
      out.fail(std::string{kind} + " digest " + kNames[t] + " " +
               hex(got[t]) + " != committed " + hex(*want));
    } else if (want == nullptr && world == 42 && !opts.tiny) {
      out.fail(std::string{"no committed "} + std::string{kind} +
               " reference for " + kNames[t]);
    }
  }
  std::cout << "\n";
}

} // namespace

// ------------------------------------------------------------- experiment

Outcome runExperiment(const Options& opts, SpanRecorder& spans) {
  Outcome out;
  core::RunnerConfig rc;
  rc.experiment = benchConfig(opts.seed, opts.tiny);
  const auto& config = rc.experiment;

  const std::vector<double> ctorSamples = constructionSamples(rc);
  std::vector<double> walls, untracedWalls, tracedWalls, instantiates;
  std::vector<double> rssPeaks; // per job
  std::vector<Metrics> tracedJobs;
  double packets = 0.0;
  SpanRecorder off{false};

  const auto start = Clock::now();
  for (std::uint64_t job = 0;; ++job) {
    const bool traced = opts.trace && job % 2 == 1;
    if (job > 0 && secondsSince(start) >= opts.seconds &&
        (!opts.trace || !tracedJobs.empty())) {
      break;
    }
    SpanRecorder& rec = traced ? spans : off;
    const std::uint64_t runId = job + 1;
    // Traced runs pair an untraced and a traced job on each world, so the
    // tracing overhead compares equal work.
    const std::uint64_t world =
        worldSeed(opts.seed, opts.trace ? job / 2 : job);
    rc.experiment.seed = world;
    const bool rssWindow = startPeakRssWindow();
    const double from = rec.now();
    const auto t0 = Clock::now();

    std::unique_ptr<core::ExperimentRunner> runner;
    {
      ScopedSpan span(rec, "core.setup", runId);
      runner = std::make_unique<core::ExperimentRunner>(rc);
    }
    {
      ScopedSpan span(rec, "core.run", runId);
      runner->run();
    }
    obs::Registry& metrics = runner->metrics();
    std::optional<core::ExperimentSummary> summary;
    {
      ScopedSpan span(rec, "core.summary", runId);
      summary = core::ExperimentSummary::compute(
          *runner, config.effectiveAnalysisThreads());
    }
    core::collectSummaryMetrics(*summary, metrics);
    analysis::PipelineOptions pipelineOptions;
    pipelineOptions.threads = config.effectiveAnalysisThreads();
    pipelineOptions.minSplitCost = config.analysisMinSplitCost;
    pipelineOptions.fingerprint = false; // the report needs taxonomy + hitters
    std::array<std::unique_ptr<analysis::Pipeline>, 4> pipelines;
    std::array<std::uint64_t, 4> digests{};
    for (std::size_t t = 0; t < 4; ++t) {
      {
        ScopedSpan span(rec, "analysis.index", runId);
        pipelines[t] = std::make_unique<analysis::Pipeline>(
            runner->capture(t).packets(), summary->telescope(t).sessions128,
            &metrics);
      }
      ScopedSpan span(rec, "analysis.pipeline", runId);
      digests[t] = pipelines[t]
                       ->run(t == core::T1 ? &runner->schedule() : nullptr,
                             pipelineOptions)
                       .digest();
    }
    const double wall = secondsSince(t0);
    const double to = rec.now();

    // --- correctness, outside the timed window
    ++out.attempted;
    const std::uint64_t failedBefore = out.failed;
    if (!rssWindow) out.fail(kRssWindowFailure);
    fault::InvariantChecker checker;
    for (std::size_t t = 0; t < 4; ++t) {
      checker.checkCanonicalOrder(runner->capture(t));
    }
    for (const std::string& v : checker.violations()) out.fail(v);
    checkDigests(out, opts, world, "pipeline", digests);
    if (out.failed > failedBefore) out.failed = failedBefore + 1;

    walls.push_back(wall);
    rssPeaks.push_back(peakRssMib());
    instantiates.push_back(instantiateSeconds(*runner));
    packets = static_cast<double>(runner->stats().packetsMerged);
    logJob(job, world, *runner, wall);
    (traced ? tracedWalls : untracedWalls).push_back(wall);
    if (!traced) continue;

    Metrics m;
    simulationLayers(*runner, m);
    const auto flat = metrics.flatten();
    m["core.setup_s"] = {spans.total("core.setup", from, to) +
                             instantiateSeconds(*runner),
                         "s"};
    m["core.run_s"] = {spans.total("core.run", from, to), "s"};
    m["core.summary_s"] = {spans.total("core.summary", from, to), "s"};
    const double mergeSeconds = m["core.merge_s"].value;
    m["telescope.merge_packets_per_s"] = {
        mergeSeconds > 0 ? packets / mergeSeconds : 0.0, "1/s"};
    m["analysis.index_s"] = {spans.total("analysis.index", from, to), "s"};
    m["analysis.classify_s"] = {metric(flat, "analysis.classify_seconds"),
                                "s"};
    m["analysis.heavy_hitters_s"] = {
        metric(flat, "analysis.heavy_hitter_seconds"), "s"};
    selfTimes(spans, from, to, m);
    std::vector<const analysis::CaptureIndex*> indexes;
    for (const auto& p : pipelines) indexes.push_back(&p->index());
    axisProbes(indexes, spans, runId, m);
    tracedJobs.push_back(std::move(m));
  }

  std::vector<double> setups;
  for (double ctor : ctorSamples) setups.push_back(ctor + median(instantiates));
  batchEndToEnd(opts.trace ? untracedWalls : walls, setups, out.endToEnd);
  out.endToEnd["peak_rss_mib"] = {median(rssPeaks), "MiB"};
  out.perLayer = medianOf(tracedJobs);
  traceOverhead(untracedWalls, tracedWalls, out.perLayer);
  notExercised(out.perLayer, {{"telescope.spill_flush_s", "s"},
                              {"telescope.spill_compact_s", "s"},
                              {"telescope.spill_bytes", "bytes"},
                              {"telescope.spill_segments", "count"},
                              {"telescope.stream_read_s", "s"},
                              {"analysis.stream_s", "s"},
                              {"analysis.stream_records_per_s", "1/s"},
                              {"serve.evaluate_us.table6", "us"},
                              {"serve.evaluate_us.heavy_hitters", "us"},
                              {"serve.evaluate_us.sources", "us"},
                              {"serve.evaluate_us.reaction_delays", "us"},
                              {"serve.cache_hit_ratio", "ratio"},
                              {"serve.healthz_p50_us", "us"},
                              {"serve.rejected", "count"},
                              {"loadgen.p50_ms", "ms"},
                              {"loadgen.p99_ms", "ms"},
                              {"loadgen.max_rps", "1/s"},
                              {"loadgen.late_p99_ms", "ms"},
                              {"loadgen.backlog", "count"},
                              {"loadgen.busy", "ratio"}});
  std::cout << "experiment: " << packets << " packets captured; job walls";
  for (double w : walls) std::cout << " " << w;
  std::cout << " s\n";
  return out;
}

// ------------------------------------------------------------- spill

namespace {

/// In-memory reference digests (analyzeOneShot over the merged captures),
/// computed in a child process so the spilled run's peak RSS stays its
/// own. Must run before this process starts any thread.
std::optional<std::array<std::uint64_t, 4>> inMemoryStreamDigests(
    const core::RunnerConfig& rc) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  const pid_t child = ::fork();
  if (child < 0) return std::nullopt;
  if (child == 0) {
    ::close(fds[0]);
    core::ExperimentRunner runner{rc};
    runner.run();
    std::array<std::uint64_t, 4> digests{};
    for (std::size_t t = 0; t < 4; ++t) {
      analysis::StreamingOptions so;
      so.captureGaps = rc.experiment.faults.gapWindowsFor(t);
      digests[t] =
          analysis::analyzeOneShot(runner.capture(t).packets(), so).digest();
    }
    const ssize_t n = ::write(fds[1], digests.data(), sizeof digests);
    ::_exit(n == static_cast<ssize_t>(sizeof digests) ? 0 : 1);
  }
  ::close(fds[1]);
  std::array<std::uint64_t, 4> digests{};
  const ssize_t n = ::read(fds[0], digests.data(), sizeof digests);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(child, &status, 0);
  if (n != static_cast<ssize_t>(sizeof digests) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return digests;
}

} // namespace

Outcome runSpill(const Options& opts, SpanRecorder& spans) {
  Outcome out;
  core::RunnerConfig rc;
  rc.experiment = benchConfig(opts.seed, opts.tiny);
  const auto reference = inMemoryStreamDigests(rc);
  if (!reference) out.fail("in-memory reference run failed");

  // Segment directories a killed run may have left behind.
  const std::filesystem::path scratch{opts.scratchDir};
  for (const auto& entry : std::filesystem::directory_iterator{scratch}) {
    if (entry.path().filename().string().rfind("spill-", 0) == 0) {
      std::filesystem::remove_all(entry.path());
    }
  }
  rc.experiment.captureSpillDir = (scratch / "spill-ctor").string();
  rc.experiment.captureSpillBytes = opts.tiny ? 64ull << 10 : 8ull << 20;
  const auto& config = rc.experiment;
  const std::vector<double> ctorSamples = constructionSamples(rc);

  std::vector<double> walls, untracedWalls, tracedWalls, instantiates;
  std::vector<double> rssPeaks; // per job
  std::vector<Metrics> tracedJobs;
  double packets = 0.0;
  SpanRecorder off{false};

  const auto start = Clock::now();
  for (std::uint64_t job = 0;; ++job) {
    const bool traced = opts.trace && job % 2 == 1;
    if (job > 0 && secondsSince(start) >= opts.seconds &&
        (!opts.trace || !tracedJobs.empty())) {
      break;
    }
    SpanRecorder& rec = traced ? spans : off;
    const std::uint64_t runId = job + 1;
    const std::uint64_t world =
        worldSeed(opts.seed, opts.trace ? job / 2 : job);
    const std::filesystem::path dir = scratch / ("spill-" + std::to_string(job));
    rc.experiment.seed = world;
    rc.experiment.captureSpillDir = dir.string();

    const bool rssWindow = startPeakRssWindow();
    const double from = rec.now();
    const auto t0 = Clock::now();
    std::unique_ptr<core::ExperimentRunner> runner;
    {
      ScopedSpan span(rec, "core.setup", runId);
      runner = std::make_unique<core::ExperimentRunner>(rc);
    }
    {
      ScopedSpan span(rec, "core.run", runId);
      runner->run();
    }
    obs::Registry& metrics = runner->metrics();
    // v6t_run's spilled report: stream every telescope through the
    // analyzer, checking canonical order inline.
    std::array<std::uint64_t, 4> digests{};
    std::uint64_t violations = 0;
    std::uint64_t streamed = 0;
    for (std::size_t t = 0; t < 4; ++t) {
      ScopedSpan span(rec, "analysis.stream", runId);
      analysis::StreamingOptions so;
      so.threads = config.effectiveAnalysisThreads();
      so.metrics = &metrics;
      so.captureGaps = config.faults.gapWindowsFor(t);
      analysis::StreamingAnalyzer analyzer{so};
      auto cursor = runner->streamCapture(t);
      bool first = true;
      std::tuple<std::int64_t, std::uint32_t, std::uint64_t> prev{};
      if (!cursor.empty()) {
        do {
          const net::Packet& p = cursor.head();
          const std::tuple<std::int64_t, std::uint32_t, std::uint64_t> key{
              p.ts.millis(), p.originId, p.originSeq};
          if (!first && !(prev < key)) ++violations;
          prev = key;
          first = false;
          analyzer.ingest(p);
        } while (cursor.advance());
      }
      const analysis::StreamingResult result = analyzer.finish();
      digests[t] = result.digest();
      streamed += result.totalPackets;
    }
    const double wall = secondsSince(t0);
    const double to = rec.now();

    // --- correctness, outside the timed window
    ++out.attempted;
    const std::uint64_t failedBefore = out.failed;
    if (!rssWindow) out.fail(kRssWindowFailure);
    if (violations > 0) {
      out.fail(std::to_string(violations) + " canonical-order violations");
    }
    checkDigests(out, opts, world, "stream", digests);
    for (std::size_t t = 0; t < 4 && world == opts.seed; ++t) {
      if (reference && (*reference)[t] != digests[t]) {
        out.fail(std::string{"streamed "} + kNames[t] + " " +
                 hex(digests[t]) + " != in-memory " + hex((*reference)[t]));
      }
    }
    if (out.failed > failedBefore) out.failed = failedBefore + 1;

    walls.push_back(wall);
    rssPeaks.push_back(peakRssMib());
    instantiates.push_back(instantiateSeconds(*runner));
    packets = static_cast<double>(runner->stats().packetsMerged);
    logJob(job, world, *runner, wall);
    (traced ? tracedWalls : untracedWalls).push_back(wall);
    if (traced) {
      Metrics m;
      simulationLayers(*runner, m);
      const auto flat = metrics.flatten();
      m["core.setup_s"] = {spans.total("core.setup", from, to) +
                               instantiateSeconds(*runner),
                           "s"};
      m["core.run_s"] = {spans.total("core.run", from, to), "s"};
      m["telescope.spill_flush_s"] = {
          metric(flat, "capture.spill.flush_seconds"), "s"};
      m["telescope.spill_compact_s"] = {
          metric(flat, "capture.spill.compact_seconds"), "s"};
      m["telescope.spill_bytes"] = {metric(flat, "capture.spill.bytes_total"),
                                    "bytes"};
      m["telescope.spill_segments"] = {
          metric(flat, "capture.spill.segments_total"), "count"};
      const double streamSeconds = spans.total("analysis.stream", from, to);
      m["analysis.stream_s"] = {streamSeconds, "s"};
      m["analysis.stream_records_per_s"] = {
          streamSeconds > 0 ? static_cast<double>(streamed) / streamSeconds
                            : 0.0,
          "1/s"};
      selfTimes(spans, from, to, m);
      // Draining the k-way segment merge alone: the read side of the
      // stream, without the analyzer.
      const double r0 = spans.now();
      {
        ScopedSpan span(spans, "telescope.stream_read", runId);
        std::uint64_t drained = 0;
        for (std::size_t t = 0; t < 4; ++t) {
          auto cursor = runner->streamCapture(t);
          if (cursor.empty()) continue;
          do {
            ++drained;
          } while (cursor.advance());
        }
        if (drained != streamed) out.fail("stream drain count differs");
      }
      m["telescope.stream_read_s"] = {spans.now() - r0, "s"};
      tracedJobs.push_back(std::move(m));
    }
    runner.reset();
    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(scratch / "spill-ctor");

  std::vector<double> setups;
  for (double ctor : ctorSamples) setups.push_back(ctor + median(instantiates));
  batchEndToEnd(opts.trace ? untracedWalls : walls, setups, out.endToEnd);
  out.endToEnd["peak_rss_mib"] = {median(rssPeaks), "MiB"};
  out.perLayer = medianOf(tracedJobs);
  traceOverhead(untracedWalls, tracedWalls, out.perLayer);
  // The streamed report never merges in memory, indexes or classifies.
  notExercised(out.perLayer, {{"core.summary_s", "s"},
                              {"telescope.merge_packets_per_s", "1/s"},
                              {"analysis.index_s", "s"},
                              {"analysis.classify_s", "s"},
                              {"analysis.temporal_s", "s"},
                              {"analysis.temporal_sources", "count"},
                              {"analysis.periodic_sources", "count"},
                              {"analysis.address_s", "s"},
                              {"analysis.structured_sessions", "count"},
                              {"analysis.heavy_hitters_s", "s"},
                              {"serve.evaluate_us.table6", "us"},
                              {"serve.evaluate_us.heavy_hitters", "us"},
                              {"serve.evaluate_us.sources", "us"},
                              {"serve.evaluate_us.reaction_delays", "us"},
                              {"serve.cache_hit_ratio", "ratio"},
                              {"serve.healthz_p50_us", "us"},
                              {"serve.rejected", "count"},
                              {"loadgen.p50_ms", "ms"},
                              {"loadgen.p99_ms", "ms"},
                              {"loadgen.max_rps", "1/s"},
                              {"loadgen.late_p99_ms", "ms"},
                              {"loadgen.backlog", "count"},
                              {"loadgen.busy", "ratio"}});
  std::cout << "spill: " << packets << " packets captured; job walls";
  for (double w : walls) std::cout << " " << w;
  std::cout << " s\n";
  return out;
}

// ------------------------------------------------------------- query_mix

namespace {

/// Everything one query_mix set-up builds; destroyed in reverse order.
struct ServeWorld {
  std::unique_ptr<core::ExperimentRunner> runner;
  std::vector<telescope::Session> sessions;
  obs::Registry registry;
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::Server> server;

  ~ServeWorld() {
    if (server) server->stop();
  }
};

/// Simulate, sessionize T1, build the query engine and start the server.
std::unique_ptr<ServeWorld> buildServeWorld(const core::RunnerConfig& rc,
                                            SpanRecorder& rec,
                                            std::uint64_t runId) {
  auto w = std::make_unique<ServeWorld>();
  {
    ScopedSpan span(rec, "core.setup", runId);
    w->runner = std::make_unique<core::ExperimentRunner>(rc);
  }
  {
    ScopedSpan span(rec, "core.run", runId);
    w->runner->run();
  }
  const auto& capture = w->runner->capture(core::T1);
  {
    ScopedSpan span(rec, "telescope.sessionize", runId);
    w->sessions =
        telescope::sessionize(capture.packets(), telescope::SourceAgg::Addr128);
  }
  {
    ScopedSpan span(rec, "serve.engine_build", runId);
    serve::QueryEngineOptions eo;
    eo.analysisThreads = rc.experiment.effectiveAnalysisThreads();
    eo.minSplitCost = rc.experiment.analysisMinSplitCost;
    w->engine = std::make_unique<serve::QueryEngine>(
        capture.packets(), w->sessions, &w->runner->schedule(), eo,
        &w->registry);
  }
  {
    ScopedSpan span(rec, "serve.start", runId);
    w->server = std::make_unique<serve::Server>(*w->engine,
                                                serve::ServerOptions{});
    w->server->start();
  }
  return w;
}

/// The query mix's target table and its seeded request schedule.
struct QueryMix {
  std::vector<std::string> targets;
  std::vector<std::string> endpoint; // metric label per target
  std::uint32_t healthz = 0;
  std::uint32_t table6 = 0;
  std::uint32_t reactionDelays = 0;
  std::uint32_t firstHeavyHitter = 0;
  std::uint32_t heavyHitterCount = 0;
  std::uint32_t sourceCount = 0; // sources occupy [0, sourceCount)
  std::vector<double> zipfCdf; // over source ranks
  std::vector<std::uint32_t> sourceByRank;
};

constexpr std::array<double, 10> kThresholds{0.05, 0.1, 0.2, 0.5, 1.0,
                                             2.0,  5.0, 10.0, 20.0, 50.0};
constexpr unsigned kMaxK = 100;

QueryMix buildMix(const analysis::CaptureIndex& index, std::uint64_t seed) {
  QueryMix mix;
  mix.sourceCount = static_cast<std::uint32_t>(index.sourceCount());
  for (std::uint32_t i = 0; i < mix.sourceCount; ++i) {
    mix.targets.push_back("/sources/" + index.source(i).addr.toString());
    mix.endpoint.emplace_back("sources");
  }
  mix.firstHeavyHitter = static_cast<std::uint32_t>(mix.targets.size());
  for (unsigned k = 1; k <= kMaxK; ++k) {
    for (double th : kThresholds) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "/heavy-hitters?k=%u&threshold=%g", k, th);
      mix.targets.emplace_back(buf);
      mix.endpoint.emplace_back("heavy_hitters");
    }
  }
  mix.heavyHitterCount =
      static_cast<std::uint32_t>(mix.targets.size()) - mix.firstHeavyHitter;
  auto add = [&](const char* target, const char* label) {
    mix.targets.emplace_back(target);
    mix.endpoint.emplace_back(label);
    return static_cast<std::uint32_t>(mix.targets.size() - 1);
  };
  mix.table6 = add("/reports/table6", "table6");
  mix.reactionDelays = add("/reaction-delays", "reaction_delays");
  mix.healthz = add("/healthz", "healthz");

  // Zipf(1) over a seeded permutation of the sources: which sources are
  // hot changes with the seed, how skewed the popularity is does not.
  mix.sourceByRank.resize(mix.sourceCount);
  for (std::uint32_t i = 0; i < mix.sourceCount; ++i) mix.sourceByRank[i] = i;
  std::mt19937_64 rng{seed ^ 0x5eedULL};
  std::shuffle(mix.sourceByRank.begin(), mix.sourceByRank.end(), rng);
  double sum = 0.0;
  for (std::uint32_t r = 0; r < mix.sourceCount; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    mix.zipfCdf.push_back(sum);
  }
  for (double& c : mix.zipfCdf) c /= sum;
  return mix;
}

/// The query mix, the one definition the direct passes and the load both
/// draw from (assumed shares, see perfbench/README.md): every block of
/// kBlock requests holds exactly these many of each endpoint, in seeded
/// order. Exact shares per block keep the count of expensive single-key
/// requests (table6) from changing with the seed.
enum class Endpoint { Sources, HeavyHitters, Table6, ReactionDelays, Healthz };
constexpr std::size_t kBlock = 100;
constexpr std::array<std::pair<Endpoint, std::size_t>, 5> kShares{{
    {Endpoint::Sources, 72},       // Zipf(1) over a seeded source order
    {Endpoint::HeavyHitters, 20},  // uniform over k x threshold
    {Endpoint::Table6, 3},
    {Endpoint::ReactionDelays, 3},
    {Endpoint::Healthz, 2},
}};

/// Draw `n` requests (indices into the mix's target table).
std::vector<std::uint32_t> drawRequests(const QueryMix& mix,
                                        std::mt19937_64& rng, std::size_t n) {
  std::vector<Endpoint> block;
  for (const auto& [endpoint, count] : kShares) {
    block.insert(block.end(), count, endpoint);
  }
  std::uniform_real_distribution<double> u{0.0, 1.0};
  std::vector<std::uint32_t> out;
  out.reserve(n);
  while (out.size() < n) {
    std::shuffle(block.begin(), block.end(), rng);
    for (std::size_t i = 0; i < block.size() && out.size() < n; ++i) {
      switch (block[i]) {
      case Endpoint::Sources:
        if (mix.sourceCount > 0) {
          const auto it = std::lower_bound(mix.zipfCdf.begin(),
                                           mix.zipfCdf.end(), u(rng));
          const auto rank = static_cast<std::size_t>(std::min<std::ptrdiff_t>(
              it - mix.zipfCdf.begin(), mix.sourceCount - 1));
          out.push_back(mix.sourceByRank[rank]);
          break;
        }
        [[fallthrough]];
      case Endpoint::HeavyHitters:
        out.push_back(mix.firstHeavyHitter +
                      static_cast<std::uint32_t>(rng() % mix.heavyHitterCount));
        break;
      case Endpoint::Table6:
        out.push_back(mix.table6);
        break;
      case Endpoint::ReactionDelays:
        out.push_back(mix.reactionDelays);
        break;
      case Endpoint::Healthz:
        out.push_back(mix.healthz);
        break;
      }
    }
  }
  return out;
}

} // namespace

/// Open-loop schedule (documented in perfbench/README.md): prime, warm up
/// and run one nominal-rate segment. The traced run then doubles the rate
/// until a step misses the limit and bisects (geometrically) between the
/// last passing and the first failing rate, with more nominal segments
/// after every few ladder rates and at the end. A failing step is retried
/// once, so one host hiccup does not end the ladder; the ladder also ends
/// once its steps have taken --seconds.
constexpr int kSetups = 3;
constexpr std::size_t kMinDirectPasses = 3;
constexpr std::size_t kDirectRequests = kBlock; // one block of the mix
/// Share of --seconds the timed direct passes take; the three set-ups and
/// the load take about the rest.
constexpr double kDirectShare = 0.5;
constexpr unsigned kConnections = 32;
constexpr double kNominalRps = 1000.0;
constexpr double kWarmupSeconds = 1.0;
constexpr double kSegmentSeconds = 2.0;
constexpr std::size_t kSegments = 5; // nominal segments per run
constexpr int kAttemptsPerSegment = 3; // ladder rates between segments
constexpr double kStepSeconds = 0.75;
constexpr int kMaxDoublings = 12;
constexpr int kRefineSteps = 4;
constexpr double kP99LimitMs = 50.0;
constexpr double kDrainSeconds = 5.0;

Outcome runQueryMix(const Options& opts, SpanRecorder& spans) {
  Outcome out;
  core::RunnerConfig rc;
  rc.experiment = benchConfig(opts.seed, opts.tiny);

  // --- set-up, repeated: simulate + sessionize + engine + server start.
  // Each set-up simulates another world; the last one, which serves the
  // load, is the run's own seed. While a world is up, an untimed pass
  // answers every target of its mix through QueryEngine::evaluate and
  // keeps the bodies as the expected ones. Timed direct passes then answer
  // the run's direct sequence (kDirectRequests drawn from the mix with
  // --seed) and must reproduce those bodies byte for byte. wall_s sums the
  // median pass of each world (the cost of one query depends on the world:
  // a few long aperiodic sources dominate the ACF).
  std::vector<double> setups;
  std::vector<double> worldPassSeconds;
  std::unique_ptr<ServeWorld> world;
  std::vector<double> rssPeaks; // per set-up; the last one spans the load
  QueryMix mix;
  std::vector<std::string> expected;
  std::vector<std::uint32_t> direct; // the world's direct sequence
  std::map<std::string, std::vector<double>> evaluateUs;
  auto answerAll = [&] {
    expected.assign(mix.targets.size(), std::string{});
    evaluateUs.clear();
    for (std::size_t i = 0; i < mix.targets.size(); ++i) {
      const auto e0 = Clock::now();
      serve::QueryEngine::Response resp =
          world->engine->evaluate(mix.targets[i]);
      evaluateUs[mix.endpoint[i]].push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - e0)
              .count());
      ++out.attempted;
      if (resp.status != 200) {
        out.fail("direct " + mix.targets[i] + " -> " +
                 std::to_string(resp.status));
      }
      expected[i] = std::move(resp.body);
    }
  };
  auto directPass = [&](bool traced) {
    std::vector<std::string> bodies(direct.size());
    const auto p0 = Clock::now();
    for (std::size_t r = 0; r < direct.size(); ++r) {
      std::optional<ScopedSpan> span;
      if (traced) {
        span.emplace(spans, "serve.evaluate." + mix.endpoint[direct[r]], r + 1);
      }
      bodies[r] = world->engine->evaluate(mix.targets[direct[r]]).body;
    }
    const double seconds = secondsSince(p0);
    out.attempted += direct.size();
    for (std::size_t r = 0; r < direct.size(); ++r) {
      if (bodies[r] != expected[direct[r]]) {
        out.fail("direct " + mix.targets[direct[r]] +
                 " changed between passes");
      }
    }
    return seconds;
  };
  for (int k = 0; k < kSetups; ++k) {
    if (world) rssPeaks.push_back(peakRssMib());
    world.reset();
    if (!startPeakRssWindow()) out.fail(kRssWindowFailure);
    const auto t0 = Clock::now();
    rc.experiment.seed = worldSeed(opts.seed, kSetups - 1 - k);
    world = buildServeWorld(rc, spans, static_cast<std::uint64_t>(k + 1));
    setups.push_back(secondsSince(t0));

    mix = buildMix(world->engine->index(), opts.seed);
    answerAll();
    std::mt19937_64 directRng{opts.seed};
    direct = drawRequests(mix, directRng, kDirectRequests);
    std::vector<double> passes;
    const auto d0 = Clock::now();
    while (!opts.trace && (passes.size() < kMinDirectPasses ||
                           secondsSince(d0) < kDirectShare * opts.seconds /
                                                  kSetups)) {
      passes.push_back(directPass(false));
    }
    if (passes.empty()) continue;
    worldPassSeconds.push_back(median(passes));
    std::cout << "world " << rc.experiment.seed << ": " << passes.size()
              << " direct passes, min/median/max "
              << *std::min_element(passes.begin(), passes.end()) << "/"
              << median(passes) << "/"
              << *std::max_element(passes.begin(), passes.end()) << " s\n";
  }
  const serve::QueryEngine& engine = *world->engine;
  if (opts.corruptBody && !expected[mix.table6].empty()) {
    std::string& body = expected[mix.table6];
    body[body.size() / 2] ^= 0x01;
  }

  // --- load: prime the single-key endpoints, warm up, one nominal segment
  // (the served == direct gate of every run). The traced run then climbs
  // the rate ladder with more nominal segments spread over it.
  LoadGenerator gen{world->server->port(), kConnections, mix.targets,
                    expected};
  if (!gen.ok()) out.fail("load generator could not connect");
  std::mt19937_64 rng{opts.seed};
  std::uint64_t rejected = 0;
  auto account = [&](const StepResult& r) {
    out.attempted += r.completed + r.failed;
    rejected += r.rejected;
    for (std::uint64_t f = 0; f < r.failed; ++f) out.fail("request failed");
  };
  auto draw = [&](double seconds, double rate) {
    return drawRequests(mix, rng, static_cast<std::size_t>(seconds * rate));
  };
  account(gen.runStep({mix.table6, mix.reactionDelays}, 0.0, 1, 30.0));
  account(gen.runStep(draw(kWarmupSeconds, kNominalRps), kNominalRps,
                      kConnections, kDrainSeconds));
  std::vector<StepResult> nominals;
  std::uint64_t requestId = 0;
  auto nominalSegment = [&] {
    StepResult r = gen.runStep(draw(kSegmentSeconds, kNominalRps), kNominalRps,
                               kConnections, kDrainSeconds);
    account(r);
    for (std::size_t i = 0; i < r.latencyMs.size(); ++i) {
      spans.add("loadgen.request." + mix.endpoint[r.targetOf[i]], r.dueAt[i],
                r.doneAt[i], ++requestId);
    }
    nominals.push_back(std::move(r));
  };
  nominalSegment();

  auto passes = [](const StepResult& r) {
    // A growing backlog: more requests outstanding at the window's end
    // than the latency limit's worth at this rate.
    const double limitBacklog = std::max(
        static_cast<double>(kConnections), r.offeredRate * kP99LimitMs / 1e3);
    return r.failed == 0 && quantile(r.latencyMs, 0.99) <= kP99LimitMs &&
           static_cast<double>(r.backlog) <= limitBacklog;
  };
  double maxRps = passes(nominals[0]) ? nominals[0].achievedRate : 0.0;
  StepResult best = nominals[0];
  if (opts.trace) {
    double ladderSeconds = 0.0;
    auto step = [&](double rate) {
      const auto s0 = Clock::now();
      StepResult r = gen.runStep(draw(kStepSeconds, rate), rate, kConnections,
                                 kDrainSeconds);
      ladderSeconds += secondsSince(s0);
      account(r);
      std::cout << "  step " << rate << " rps: achieved " << r.achievedRate
                << ", p50 " << quantile(r.latencyMs, 0.5) << " ms, p99 "
                << quantile(r.latencyMs, 0.99) << " ms, late p99 "
                << quantile(r.lateMs, 0.99) << " ms, backlog " << r.backlog
                << ", generator busy " << r.generatorBusy
                << (passes(r) ? "" : "  (misses the limit)") << "\n";
      return r;
    };
    int attempts = 0;
    auto attempt = [&](double rate) {
      StepResult r = step(rate);
      if (!passes(r)) r = step(rate);
      // Spread the nominal segments over the ladder.
      if (++attempts % kAttemptsPerSegment == 0 &&
          nominals.size() + 1 < kSegments) {
        nominalSegment();
      }
      if (!passes(r)) return false;
      maxRps = r.achievedRate;
      best = std::move(r);
      return true;
    };
    auto timeLeft = [&] { return ladderSeconds < opts.seconds; };
    double lo = kNominalRps;
    double hi = 0.0;
    for (int i = 0; i < kMaxDoublings && hi == 0.0 && timeLeft(); ++i) {
      if (attempt(2.0 * lo)) {
        lo *= 2.0;
      } else {
        hi = 2.0 * lo;
      }
    }
    for (int i = 0; i < kRefineSteps && hi > 0.0 && timeLeft(); ++i) {
      const double mid = std::sqrt(lo * hi);
      (attempt(mid) ? lo : hi) = mid;
    }
    while (nominals.size() < kSegments) nominalSegment();
  }

  // --- end-to-end
  std::vector<double> p50s, p99s;
  std::map<std::string, int> tail; // endpoints of the requests beyond p99
  for (const StepResult& r : nominals) {
    p50s.push_back(quantile(r.latencyMs, 0.5));
    p99s.push_back(quantile(r.latencyMs, 0.99));
    for (std::size_t i = 0; i < r.latencyMs.size(); ++i) {
      if (r.latencyMs[i] > p99s.back()) ++tail[mix.endpoint[r.targetOf[i]]];
    }
  }
  Metrics& e = out.endToEnd;
  double directSeconds = 0.0;
  for (double w : worldPassSeconds) directSeconds += w;
  e["wall_s"] = {directSeconds, "s"};
  e["setup_s"] = {median(setups), "s"};
  std::cout << "query_mix: " << mix.targets.size()
            << " targets; median direct pass per world";
  for (double w : worldPassSeconds) std::cout << " " << w;
  std::cout << " s; nominal " << kNominalRps
            << " rps in " << nominals.size() << " segments of "
            << nominals.front().latencyMs.size()
            << " samples, p50/p99 ms";
  for (std::size_t i = 0; i < nominals.size(); ++i) {
    std::cout << " " << p50s[i] << "/" << p99s[i];
  }
  std::cout << "; tail beyond p99:";
  for (const auto& [ep, n] : tail) std::cout << " " << ep << "=" << n;
  if (opts.trace) {
    std::cout << "; p99 limit " << kP99LimitMs << " ms, max_rps " << maxRps;
  }
  std::cout << "\n";

  // --- per-layer (traced run)
  Metrics& m = out.perLayer;
  if (opts.trace) {
    simulationLayers(*world->runner, m);
    m["core.setup_s"] = {spans.total("core.setup") / kSetups +
                             instantiateSeconds(*world->runner),
                         "s"};
    m["core.run_s"] = {spans.total("core.run") / kSetups, "s"};
    const double mergeSeconds = m["core.merge_s"].value;
    m["telescope.merge_packets_per_s"] = {
        mergeSeconds > 0 ? m["telescope.packets_captured"].value / mergeSeconds
                         : 0.0,
        "1/s"};
    const auto flat = world->registry.flatten();
    m["analysis.index_s"] = {metric(flat, "analysis.index_seconds"), "s"};
    for (const char* ep : {"table6", "heavy_hitters", "sources",
                           "reaction_delays"}) {
      m[std::string{"serve.evaluate_us."} + ep] = {median(evaluateUs[ep]),
                                                   "us"};
    }
    const double hits = static_cast<double>(world->server->cache().hits());
    const double misses =
        static_cast<double>(world->server->cache().misses());
    m["serve.cache_hit_ratio"] = {
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
    m["loadgen.p50_ms"] = {median(p50s), "ms"};
    m["loadgen.p99_ms"] = {median(p99s), "ms"};
    m["loadgen.max_rps"] = {maxRps, "1/s"};
    m["loadgen.late_p99_ms"] = {quantile(best.lateMs, 0.99), "ms"};
    m["loadgen.backlog"] = {static_cast<double>(best.backlog), "count"};
    m["loadgen.busy"] = {best.generatorBusy, "ratio"};
    // The HTTP + event-loop floor: closed-loop /healthz round trips.
    const StepResult floor = gen.runStep(
        std::vector<std::uint32_t>(1000, mix.healthz), 0.0, 1, 10.0);
    account(floor);
    m["serve.healthz_p50_us"] = {quantile(floor.serviceUs, 0.5), "us"};
    // Direct per-axis calls over the T1 index.
    const double c0 = spans.now();
    {
      ScopedSpan span(spans, "analysis.classify", 0);
      (void)analysis::classifyIndexed(engine.index(),
                                      &world->runner->schedule());
    }
    m["analysis.classify_s"] = {spans.now() - c0, "s"};
    const double h0 = spans.now();
    {
      ScopedSpan span(spans, "analysis.heavy_hitters", 0);
      (void)analysis::findHeavyHitters(engine.index(), 10.0);
    }
    m["analysis.heavy_hitters_s"] = {spans.now() - h0, "s"};
    axisProbes({&engine.index()}, spans, 0, m);
    // Tracing cost: the direct pass again, untraced and traced in turn.
    std::vector<double> untraced, traced;
    for (int i = 0; i < 2; ++i) {
      untraced.push_back(directPass(false));
      traced.push_back(directPass(true));
    }
    traceOverhead(untraced, traced, m);
    const double from = 0.0;
    const double to = spans.now();
    selfTimes(spans, from, to, m);
    // The served world is simulated in memory: nothing spills or streams,
    // and no experiment summary is computed.
    notExercised(m, {{"core.summary_s", "s"},
                     {"telescope.spill_flush_s", "s"},
                     {"telescope.spill_compact_s", "s"},
                     {"telescope.spill_bytes", "bytes"},
                     {"telescope.spill_segments", "count"},
                     {"telescope.stream_read_s", "s"},
                     {"analysis.stream_s", "s"},
                     {"analysis.stream_records_per_s", "1/s"}});
  }
  m["serve.rejected"] = {static_cast<double>(rejected), "count"};
  rssPeaks.push_back(peakRssMib());
  e["peak_rss_mib"] = {median(rssPeaks), "MiB"};
  return out;
}

} // namespace perfbench
