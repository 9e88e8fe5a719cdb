// Shared infrastructure for the reproduction benches: one standard
// experiment configuration (fixed seed, scaled volume), the analysis
// worker count, and the simulated world every paper_report section reads.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <span>
#include <thread>

#include "bench/env.hpp"
#include "core/config.hpp"
#include "core/runner.hpp"
#include "core/summary.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/report.hpp"

namespace v6t::bench {

/// Overrides `config`'s seed and scales from the V6T_SEED /
/// V6T_SOURCE_SCALE / V6T_VOLUME_SCALE environment variables, checked like
/// the config keys of the same names.
inline void applyWorldEnv(core::ExperimentConfig& config) {
  if (const char* s = std::getenv("V6T_SEED")) {
    if (!core::parseU64(s, config.seed)) badEnv("V6T_SEED", s, "an integer");
  }
  const auto scale = [](const char* name, double& out) {
    if (const char* s = std::getenv(name)) {
      if (!core::parseDouble(s, out) || !(out > 0.0 && out <= 1.0)) {
        badEnv(name, s, "a scale in (0, 1]");
      }
    }
  };
  scale("V6T_SOURCE_SCALE", config.sourceScale);
  scale("V6T_VOLUME_SCALE", config.volumeScale);
}

/// The standard configuration used by all table/figure benches, with the
/// environment overrides of applyWorldEnv for calibration runs.
inline core::ExperimentConfig standardConfig() {
  core::ExperimentConfig config;
  applyWorldEnv(config);
  return config;
}

/// Worker count for the shared analysis pipeline. Results are
/// bitwise-identical at every value (DESIGN.md §12), so benches default
/// to every core the host offers; V6T_ANALYSIS_THREADS (0..64, 0 = one
/// worker) overrides.
inline unsigned analysisThreads() {
  const std::uint64_t v = envInt("V6T_ANALYSIS_THREADS",
                                 std::thread::hardware_concurrency(), 0, 64);
  return v == 0 ? 1u : static_cast<unsigned>(v);
}

/// One pipeline pass over a capture window: build the shared CaptureIndex
/// once and run the requested stages over analysisThreads() workers.
inline analysis::PipelineResult analyzeWindow(
    std::span<const net::Packet> packets,
    std::span<const telescope::Session> sessions,
    const bgp::SplitSchedule* schedule,
    analysis::PipelineOptions opts = {}) {
  opts.threads = analysisThreads();
  return analysis::Pipeline::analyze(packets, sessions, schedule, opts);
}

struct RunContext {
  std::unique_ptr<core::ExperimentRunner> runner;
  core::ExperimentSummary summary;
  /// Shared analyses: the full-period /128 reports v6t_run prints, and
  /// T1's taxonomy over sessionsIn(T1 sessions128, splitPeriod()).
  std::array<analysis::PipelineResult, 4> reports;
  analysis::TaxonomyResult splitTaxonomy;

  [[nodiscard]] sim::SimTime baselineEnd() const {
    return sim::kEpoch + runner->config().experiment.baseline;
  }
  [[nodiscard]] core::Period wholePeriod() const {
    return {sim::kEpoch, runner->experimentEnd()};
  }
  [[nodiscard]] core::Period initialPeriod() const {
    return {sim::kEpoch, baselineEnd()};
  }
  [[nodiscard]] core::Period splitPeriod() const {
    return {baselineEnd(), runner->experimentEnd()};
  }
};

/// Run the standard experiment once through the ExperimentRunner (one
/// shard; the merged result is identical at any shard count), then
/// sessionize and analyse its captures. A few seconds at default scale.
inline RunContext runStandard() {
  core::RunnerConfig config;
  config.experiment = standardConfig();
  std::cout << "running calibrated simulation (seed=" << config.experiment.seed
            << ", sourceScale=" << config.experiment.sourceScale
            << ", volumeScale=" << config.experiment.volumeScale << ") ...\n";
  RunContext ctx;
  ctx.runner = std::make_unique<core::ExperimentRunner>(config);
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  ctx.runner->run();
  const Clock::time_point ran = Clock::now();
  ctx.summary = core::ExperimentSummary::compute(*ctx.runner);
  ctx.reports =
      core::analyzeTelescopes(*ctx.runner, ctx.summary, analysisThreads());
  // Only the taxonomy outlives the split window's index.
  const auto& t1Sessions = ctx.summary.telescope(core::T1).sessions128;
  ctx.splitTaxonomy =
      analyzeWindow(ctx.runner->capture(core::T1).packets(),
                    core::sessionsIn(t1Sessions, ctx.splitPeriod()),
                    &ctx.runner->schedule(),
                    {.heavyHitters = false, .fingerprint = false})
          .taxonomy;
  const std::chrono::duration<double> run = ran - start;
  const std::chrono::duration<double> analyze = Clock::now() - ran;
  std::cout << "simulated " << sim::toString(ctx.runner->experimentEnd())
            << ", events=" << ctx.runner->stats().totalEvents
            << ", agents=" << ctx.runner->populationSize() << " (run "
            << run.count() << "s, analyze " << analyze.count() << "s)\n\n";
  return ctx;
}

} // namespace v6t::bench
