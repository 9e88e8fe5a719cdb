// bench/analysis_speedup — the tracked perf baseline for the parallel
// analysis pipeline: shared-index build cost, taxonomy classification
// throughput serial vs. parallel, and the end-to-end pipeline (taxonomy +
// heavy hitters + fingerprint) under the cost-aware scheduler. The
// parallel results must be bitwise-identical to the serial reference
// (DESIGN.md §12/§13); the bench enforces that with the PipelineResult
// digest and fails hard on a mismatch.
//
// Measurement discipline: a full serial pipeline run is executed and
// DISCARDED first, so whichever leg is measured first no longer gets the
// cold page cache (the old bench measured serial after parallel and
// flattered the speedup). V6T_BENCH_ORDER (serial-first, the default, or
// parallel-first) swaps the measured legs to expose any residual order
// bias.
//
// Two pipeline legs are measured, both on the wall clock:
//   serial        threads=1, the reference
//   parallel      OS threads (V6T_ANALYSIS_THREADS, default all cores) —
//                 the digest gate; its speedup is what THIS host delivers
//                 (near 1.0 on a host that gives about one core).
//
// Workload: the calibrated experiment's T1 capture over the whole
// measurement period (V6T_SEED / V6T_SOURCE_SCALE / V6T_VOLUME_SCALE
// scale it; CI uses a small fraction).
//
// Output: one JSONL metrics snapshot written to
// BENCH_analysis_speedup.json (override with V6T_BENCH_OUT or argv[1]).
//
//   bench.analysis_speedup.index_seconds            best-of-3 index build
//   bench.analysis_speedup.classify_serial_seconds  threads=1 taxonomy
//   bench.analysis_speedup.classify_parallel_seconds
//   bench.analysis_speedup.classify_speedup         serial / parallel wall
//   bench.analysis_speedup.classify_sources_per_sec parallel throughput
//   bench.analysis_speedup.pipeline_serial_seconds  full stage set
//   bench.analysis_speedup.pipeline_parallel_seconds     OS-thread wall
//   bench.analysis_speedup.pipeline_wall_speedup         serial / wall
//   bench.analysis_speedup.sched_splits             heavy items split
//   bench.analysis_speedup.bench_order              0 serial-first, 1 swapped
//   bench.analysis_speedup.legacy_seconds           pre-index entry points
//   bench.analysis_speedup.index_reuse_speedup      legacy / parallel
//   bench.analysis_speedup.digest_match             1 = bitwise-identical
//
// The snapshot also carries the parallel leg's analysis.* metrics (stage
// spans, worker counters, scheduler counters), so the split behavior is
// visible in the artifact.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "analysis/capture_index.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/taxonomy.hpp"
#include "bench/harness.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

volatile std::uint64_t g_sink = 0;

} // namespace

int main(int argc, char** argv) {
  using namespace v6t;
  std::string outPath = "BENCH_analysis_speedup.json";
  if (const char* s = std::getenv("V6T_BENCH_OUT")) outPath = s;
  if (argc > 1) outPath = argv[1];
  bool parallelFirst = false;
  if (const char* s = std::getenv("V6T_BENCH_ORDER")) {
    parallelFirst = std::strcmp(s, "parallel-first") == 0;
    if (!parallelFirst && std::strcmp(s, "serial-first") != 0) {
      bench::badEnv("V6T_BENCH_ORDER", s, "serial-first or parallel-first");
    }
  }

  bench::RunContext ctx =
      bench::runStandard("analysis_speedup: parallel pipeline vs serial");
  const unsigned threads = bench::analysisThreads();

  const auto& capture = ctx.runner->capture(core::T1);
  const auto& sessions = ctx.summary.telescope(core::T1).sessions128;
  std::cout << "workload: T1 whole period, " << capture.packetCount()
            << " packets, " << sessions.size() << " sessions, threads="
            << threads << (parallelFirst ? ", parallel-first" : "") << "\n";

  // --- shared index build (best of 3; one pass over the session lists) ---
  double indexSeconds = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const analysis::CaptureIndex index{capture.packets(), sessions};
    indexSeconds = std::min(indexSeconds, secondsSince(t0));
    g_sink = g_sink + index.sourceCount();
  }
  std::cout << "index build: " << indexSeconds << "s ("
            << sessions.size() << " sessions)\n";

  const analysis::CaptureIndex index{capture.packets(), sessions};
  const auto* schedule = &ctx.runner->schedule();

  // --- classify stage, serial reference vs parallel ---
  const auto c0 = Clock::now();
  const auto serialTaxonomy = analysis::classifyIndexed(index, schedule, 1);
  const double classifySerial = secondsSince(c0);
  const auto c1 = Clock::now();
  const auto parallelTaxonomy =
      analysis::classifyIndexed(index, schedule, threads);
  const double classifyParallel = secondsSince(c1);
  const double classifySpeedup =
      classifyParallel > 0 ? classifySerial / classifyParallel : 0;
  const double sourcesPerSec =
      classifyParallel > 0
          ? static_cast<double>(index.sourceCount()) / classifyParallel
          : 0;
  std::cout << "classify: serial " << classifySerial << "s, " << threads
            << " threads " << classifyParallel << "s -> " << classifySpeedup
            << "x (" << sourcesPerSec << " sources/s)\n";

  // --- end-to-end pipeline (taxonomy + heavy hitters + fingerprint) ---
  obs::Registry registry;
  analysis::PipelineOptions serialOpts;
  serialOpts.threads = 1;
  analysis::PipelineOptions parallelOpts;
  parallelOpts.threads = threads;

  // Warmup: one discarded serial run so the first measured leg doesn't
  // absorb the cold-cache cost (measurement-order bias fix).
  {
    const auto warm = analysis::Pipeline::analyze(capture.packets(), sessions,
                                                  schedule, serialOpts);
    g_sink = g_sink + warm.taxonomy.profiles.size();
  }

  analysis::PipelineResult serialResult;
  analysis::PipelineResult parallelResult;
  double pipelineSerial = 0;
  double pipelineParallel = 0;
  auto runSerial = [&] {
    const auto t0 = Clock::now();
    serialResult = analysis::Pipeline::analyze(capture.packets(), sessions,
                                               schedule, serialOpts);
    pipelineSerial = secondsSince(t0);
  };
  auto runParallel = [&] {
    const auto t0 = Clock::now();
    parallelResult = analysis::Pipeline::analyze(
        capture.packets(), sessions, schedule, parallelOpts, &registry);
    pipelineParallel = secondsSince(t0);
  };
  if (parallelFirst) {
    runParallel();
    runSerial();
  } else {
    runSerial();
    runParallel();
  }
  const double pipelineWallSpeedup =
      pipelineParallel > 0 ? pipelineSerial / pipelineParallel : 0;
  std::cout << "pipeline: serial " << pipelineSerial << "s, " << threads
            << " threads " << pipelineParallel << "s -> "
            << pipelineWallSpeedup << "x wall\n";

  const double schedSplits =
      registry.value("analysis.sched.splits_total").value_or(0.0);
  std::cout << "scheduler: " << schedSplits << " splits (parallel leg)\n";

  // --- legacy entry points: what callers paid before the shared index,
  // each stage rebuilding its own view of the capture (findHeavyHitters
  // even re-sessionizes the full packet vector) ---
  const auto l0 = Clock::now();
  const auto legacyTaxonomy =
      analysis::classifyCapture(capture.packets(), sessions, schedule);
  const auto legacyHitters =
      analysis::findHeavyHitters(capture.packets(), 10.0);
  const auto legacyImpact = analysis::heavyHitterImpact(
      capture.packets(), sessions, legacyHitters);
  const auto legacyFingerprint =
      analysis::fingerprintSessions(capture.packets(), sessions);
  const double legacySeconds = secondsSince(l0);
  const double indexReuseSpeedup =
      pipelineParallel > 0 ? legacySeconds / pipelineParallel : 0;
  g_sink = g_sink + legacyTaxonomy.profiles.size() + legacyHitters.size() +
           legacyImpact.sessions + legacyFingerprint.clusterCount;
  std::cout << "legacy entry points: " << legacySeconds << "s -> "
            << indexReuseSpeedup << "x vs shared-index pipeline\n";

  // Determinism gate: the OS-thread parallel run must reproduce the
  // serial report bit for bit (and both taxonomy legs must agree with the
  // pipeline's).
  const bool digestMatch =
      serialResult.digest() == parallelResult.digest() &&
      serialTaxonomy.profiles.size() == parallelTaxonomy.profiles.size() &&
      serialResult.taxonomy.profiles.size() == serialTaxonomy.profiles.size();
  std::cout << "digest: serial " << serialResult.digest() << ", parallel "
            << parallelResult.digest()
            << (digestMatch ? " (match)" : " (MISMATCH)") << "\n";

  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peakRssBytes =
      static_cast<double>(usage.ru_maxrss) * 1024.0; // Linux: KiB

  auto gauge = [&](const char* name, double v) {
    registry.gauge(std::string{"bench.analysis_speedup."} + name).set(v);
  };
  gauge("threads", threads);
  const unsigned hw = std::thread::hardware_concurrency();
  gauge("cores_available", static_cast<double>(hw == 0 ? 1u : hw));
  gauge("packets", static_cast<double>(capture.packetCount()));
  gauge("sessions", static_cast<double>(sessions.size()));
  gauge("sources", static_cast<double>(index.sourceCount()));
  gauge("index_seconds", indexSeconds);
  gauge("classify_serial_seconds", classifySerial);
  gauge("classify_parallel_seconds", classifyParallel);
  gauge("classify_speedup", classifySpeedup);
  gauge("classify_sources_per_sec", sourcesPerSec);
  gauge("pipeline_serial_seconds", pipelineSerial);
  gauge("pipeline_parallel_seconds", pipelineParallel);
  gauge("pipeline_wall_speedup", pipelineWallSpeedup);
  gauge("sched_splits", schedSplits);
  gauge("bench_order", parallelFirst ? 1.0 : 0.0);
  gauge("legacy_seconds", legacySeconds);
  gauge("index_reuse_speedup", indexReuseSpeedup);
  gauge("digest_match", digestMatch ? 1.0 : 0.0);
  gauge("peak_rss_bytes", peakRssBytes);

  std::ofstream out{outPath};
  if (!out) {
    std::cerr << "cannot open " << outPath << " for writing\n";
    return 1;
  }
  registry.writeJsonLine(out, {{"bench", "analysis_speedup"}});
  std::cout << "wrote " << outPath << "\n";
  return digestMatch ? 0 : 1;
}
