// v6t::core — the experiment runner: the one way to build and run the
// world.
//
// ExperimentRunner executes the paper's 44-week timeline partitioned
// across N worker shards (N = ExperimentConfig::threads, default 1). Each
// shard owns a complete private replica of the control plane — engine,
// RIB, BGP feed, hitlist service, delivery fabric, and all four
// telescopes — and runs a 1/N slice of the scanner population (spec i
// lands in shard i mod N). The control-plane actions (the split
// schedule's announcements/withdraws and the static t = 0 announcements)
// are precomputed once as controlPlaneScript() and broadcast read-only to
// every shard at epoch boundaries; a std::barrier keeps the shards'
// simulated clocks within one epoch of each other.
//
// Determinism contract: the merged result is bitwise-identical for ANY
// shard count. Two properties make this hold:
//
//   1. Scanners are mutually independent given the control plane. Every
//      cross-agent randomness source is keyed, not shared: a scanner's
//      BGP-feed lag stream derives from (feed seed, scanner id), the
//      hitlist's from a fixed key — so a shard that hosts 1/N of the
//      population draws exactly the lags the full population would.
//   2. Each packet carries (originId, originSeq) — the emitting scanner
//      and its emission counter — giving every capture a unique canonical
//      order (ts, originId, originSeq). The merge stage moves the
//      per-shard telescope buffers into that order (CaptureStore::
//      mergeFrom: in-place run sort, k-way merge across shards, the one
//      accounting pass), for one shard as for many, so equal shard
//      interleavings are guaranteed rather than hoped for.
//
// The reference for equivalence tests is runner(threads=1). No shard
// world outlives run(): what callers read afterwards (merged captures,
// hitlist listings, stats, metrics) is moved or copied out first.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgp/route_object.hpp"
#include "bgp/splitter.hpp"
#include "core/experiment.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scanner/population.hpp"
#include "telescope/capture_store.hpp"
#include "telescope/segment_store.hpp"

namespace v6t::core {

struct RunnerConfig {
  ExperimentConfig experiment; // `experiment.threads` is the shard count
};

/// The full control-plane script, chronological: the static t = 0
/// announcements of T2's /48 and the covering /29, then every withdraw and
/// announcement of the split schedule. Pure data — shards replay it
/// against their private feeds, so no shard ever talks to another shard's
/// control plane. Expressed as fault::FeedOp so the fault layer can
/// rewrite it (drop/duplicate/delay/flap) before broadcast.
[[nodiscard]] std::vector<fault::FeedOp> controlPlaneScript(
    const ExperimentConfig& config, const bgp::SplitSchedule& schedule);

/// What one worker shard did, for the timing/speedup report.
struct ShardStats {
  unsigned shardId = 0;
  std::size_t scanners = 0;
  std::uint64_t events = 0;
  std::uint64_t packetsCaptured = 0; // summed over the shard's telescopes
  std::uint64_t droppedNoRoute = 0;
  std::uint64_t deliveredToVoid = 0;
  std::uint64_t excludedPackets = 0; // landed in T2's productive /56
  double wallSeconds = 0.0;
  /// Total wall time this shard spent parked at the epoch barrier — the
  /// direct measure of shard imbalance (a fast shard waits for the slow
  /// one; a balanced run has near-zero waits everywhere).
  double barrierWaitSeconds = 0.0;
  /// Events executed per epoch slice, in epoch order.
  std::vector<std::uint64_t> epochEvents;
  std::uint64_t queueDepthHighWater = 0;
};

struct RunnerStats {
  std::vector<ShardStats> shards;
  double runWallSeconds = 0.0; // parallel phase: slowest shard + sync
  double mergeWallSeconds = 0.0;
  std::uint64_t totalEvents = 0;
  std::uint64_t packetsMerged = 0;
  std::uint64_t droppedNoRoute = 0;
  std::uint64_t deliveredToVoid = 0;
  std::uint64_t excludedPackets = 0;
};

class ExperimentRunner {
public:
  explicit ExperimentRunner(RunnerConfig config);

  /// Execute the timeline across the shards and merge the captures. Call
  /// once. In spill mode every store is sealed before it returns, and a
  /// spill directory that already holds segment files is refused with
  /// std::runtime_error before anything is simulated.
  void run();

  [[nodiscard]] const RunnerConfig& config() const { return config_; }
  [[nodiscard]] const bgp::SplitSchedule& schedule() const {
    return schedule_;
  }
  /// Merged capture of telescope `i` (TelescopeIndex), in canonical order.
  /// Empty in spill mode (`captureSpillEnabled`), where the packets live
  /// in sealed segments instead — use streamCapture().
  [[nodiscard]] const telescope::CaptureStore& capture(std::size_t i) const {
    return captures_[i];
  }

  // --- out-of-core spill mode (DESIGN.md §15) ----------------------------

  [[nodiscard]] bool spillEnabled() const {
    return config_.experiment.captureSpillEnabled();
  }
  /// Every shard's sealed segments of telescope `i`, under
  /// `<spill dir>/shard-<s>/<name>`; empty unless spill mode.
  [[nodiscard]] const std::vector<telescope::SegmentReader>& spilledSegments(
      std::size_t i) const {
    return spilled_[i];
  }
  /// Canonical-order stream over spilledSegments(i) — the same (ts,
  /// originId, originSeq) order capture(i) holds in in-memory mode,
  /// without materializing the packet vector. One telescope::mergeSegments
  /// over every shard's segments; `from` and `source` as there.
  [[nodiscard]] telescope::KWayMerge<telescope::SegmentCursor> streamCapture(
      std::size_t i, std::optional<sim::SimTime> from = std::nullopt,
      std::optional<net::Ipv6Address> source = std::nullopt) const;
  /// Packets captured by telescope `i`, valid in both modes.
  [[nodiscard]] std::uint64_t capturePacketCount(std::size_t i) const;
  [[nodiscard]] std::array<const telescope::CaptureStore*, 4> captures() const;
  [[nodiscard]] const std::string& telescopeName(std::size_t i) const {
    return names_[i];
  }
  [[nodiscard]] const net::AsRegistry& asRegistry() const {
    return plan_.asRegistry;
  }
  [[nodiscard]] const net::RdnsRegistry& rdns() const { return plan_.rdns; }
  [[nodiscard]] const bgp::IrrRegistry& irr() const { return irr_; }
  [[nodiscard]] std::size_t populationSize() const { return plan_.size(); }
  /// Hitlist listings (prefix -> time it became listed) at the end of the
  /// run. Every shard's hitlist sees the same script and draws the same
  /// keyed lags, so shard 0's map is the run's.
  [[nodiscard]] const std::map<net::Prefix, sim::SimTime>& hitlistListings()
      const {
    return hitlistListings_;
  }
  [[nodiscard]] const RunnerStats& stats() const { return stats_; }
  [[nodiscard]] sim::SimTime experimentEnd() const;

  // --- observability -----------------------------------------------------
  //
  // Each shard writes to a private obs::Registry (lock-free relaxed
  // atomics); the observer-side calls below may run concurrently with the
  // shards and only ever *read* metric values, so attaching an exporter
  // cannot perturb the simulation.

  /// Aggregate the current state of every shard registry plus the
  /// runner-level registry into `out`. Safe to call while run() executes
  /// (the live `--metrics-out` snapshot path).
  void snapshotMetrics(obs::Registry& out) const;

  /// One-line progress heartbeat: epochs completed (slowest shard),
  /// simulated weeks, packets captured so far, wall-clock elapsed and ETA.
  [[nodiscard]] std::string progressLine() const;

  /// Final aggregated registry, filled when run() returns. Mutable so the
  /// analysis phase can add its metrics before export.
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }

  /// Per-shard flight recorders (shard 0 owns the control-plane root
  /// events). Stable addresses for the process lifetime — safe to hand to
  /// the crash-dump registry and the trace exporter.
  [[nodiscard]] std::vector<const obs::trace::Tracer*> tracers() const;
  [[nodiscard]] std::vector<obs::trace::Tracer*> tracersMutable();

private:
  RunnerConfig config_;
  bgp::SplitSchedule schedule_;
  scanner::PopulationPlan plan_;
  std::array<telescope::CaptureStore, 4> captures_;
  /// Spill mode: every shard's sealed segments, per telescope.
  std::array<std::vector<telescope::SegmentReader>, 4> spilled_;
  std::array<std::string, 4> names_{"T1", "T2", "T3", "T4"};
  bgp::IrrRegistry irr_;
  std::map<net::Prefix, sim::SimTime> hitlistListings_;
  RunnerStats stats_;
  bool ran_ = false;

  std::vector<std::unique_ptr<obs::Registry>> shardMetrics_;
  std::vector<std::unique_ptr<obs::trace::Tracer>> shardTracers_;
  obs::Registry runnerMetrics_; // coordinator-side phases and totals
  obs::Registry metrics_; // final aggregate, valid after run()
  std::uint64_t totalEpochs_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> epochsDone_;
  std::chrono::steady_clock::time_point runStart_{};
  std::atomic<bool> started_{false};
};

} // namespace v6t::core
