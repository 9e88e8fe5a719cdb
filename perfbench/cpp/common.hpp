// perfbench — shared helpers: clocks, order statistics, process counters,
// the metric sink every workload fills, and the benchmark's span recorder.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set (VmHWM) since the process started or since the last
/// startPeakRssWindow().
[[nodiscard]] double peakRssMib();
/// Hand freed heap back to the kernel and restart the peak-RSS window, so
/// each job's peak is its own (and each job faults its memory in afresh,
/// as a one-run process does). False when the kernel did not reset the
/// peak: peakRssMib() would then report the process's running maximum.
[[nodiscard]] bool startPeakRssWindow();
/// User + system CPU seconds of the whole process so far.
[[nodiscard]] double processCpuSeconds();

/// FNV-1a 64 — the provenance hash of the canonical config text.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text);
[[nodiscard]] std::string hex(std::uint64_t v);

/// The experiment every workload runs: the paper's default configuration
/// (sourceScale 0.25, volumeScale 0.02) with one shard and one analysis
/// thread, or the small smoke-test world when `tiny` is set.
[[nodiscard]] v6t::core::ExperimentConfig benchConfig(std::uint64_t seed,
                                                      bool tiny);

/// The world (ExperimentConfig::seed) that job `job` of a run simulates:
/// job 0 is the run's seed itself, job j > 0 is seed * 1000 + j. Jobs of one
/// run are different worlds, so a run's medians average over several world
/// sizes instead of carrying one world's size into every figure.
[[nodiscard]] inline std::uint64_t worldSeed(std::uint64_t seed,
                                             std::uint64_t job) {
  return job == 0 ? seed : seed * 1000 + job;
}

/// Metrics reported on the last output line, keyed by name.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Committed reference digests: (scale, seed, kind, telescope) -> digest.
/// Loaded from a text file of lines
///   <default|tiny> <seed> <pipeline|stream> <T1..T4> <digest>
class References {
public:
  /// False (with a message) when the file exists but cannot be parsed.
  bool load(const std::string& path, std::string& error);
  /// The committed digest, or nullptr when none is recorded.
  [[nodiscard]] const std::uint64_t* find(std::string_view scale,
                                          std::uint64_t seed,
                                          std::string_view kind,
                                          std::string_view telescope) const;

private:
  std::map<std::string, std::uint64_t> digests_;
};

/// Everything a workload needs from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  References references;
  std::string spanPath; // where the traced run writes its spans
  std::string scratchDir; // spill segments live under here
  /// Self-test hook: flip one byte of the expected /reports/table6 body,
  /// so the served-vs-direct gate must trip.
  bool corruptBody = false;
};

/// Outcome of one workload run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures; // first few, for the log
  Metrics endToEnd;
  Metrics perLayer;

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(why));
  }
};

// ------------------------------------------------------------- tracing
//
// The traced run records one span around each call into a layer's public
// functions: name ("<layer>.<call>"), start, end, parent span and a run id
// shared by one job or one request. Spans stay in memory and are written
// as JSON lines when the run ends. Untraced runs never touch the recorder.

struct SpanRecord {
  std::string name;
  double start = 0.0; // seconds since the recorder's origin
  double end = 0.0;
  std::int64_t parent = -1; // index into the span list, -1 = root
  std::uint64_t runId = 0;
};

class SpanRecorder {
public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::int64_t begin(std::string name, std::uint64_t runId);
  void end(std::int64_t id);
  /// A span whose interval was measured elsewhere (an open-loop request:
  /// scheduled send -> response), attached as a root.
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           std::uint64_t runId);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Sum of durations of spans called `name` inside [from, to].
  [[nodiscard]] double total(std::string_view name, double from = 0.0,
                             double to = 1e300) const;
  /// Seconds since the recorder's origin (the spans' time base).
  [[nodiscard]] double now() const;
  /// Per-layer self time over the spans inside [from, to]: each span's
  /// duration minus the part its direct children cover, summed by layer
  /// (the name up to the first '.').
  [[nodiscard]] std::map<std::string, double> selfTimeByLayer(double from,
                                                              double to) const;
  /// Time inside [from, to] covered by root spans (their union: open-loop
  /// request spans overlap).
  [[nodiscard]] double rootCovered(double from, double to) const;
  bool write(const std::string& path) const;

private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_; // stack of open span ids
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t runId)
      : rec_(rec), id_(rec.enabled() ? rec.begin(std::move(name), runId) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) rec_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  SpanRecorder& rec_;
  std::int64_t id_;
};

// ------------------------------------------------------------- workloads

Outcome runExperiment(const Options& opts, SpanRecorder& spans);
Outcome runSpill(const Options& opts, SpanRecorder& spans);
Outcome runQueryMix(const Options& opts, SpanRecorder& spans);

/// Spin probe: cores' worth of CPU the host actually delivered to `threads`
/// concurrent busy loops, relative to one loop alone.
[[nodiscard]] double effectiveCores(unsigned threads);

} // namespace perfbench
