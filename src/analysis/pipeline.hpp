// v6t::analysis — the parallel deterministic analysis pipeline.
//
// One CaptureIndex build, then every analysis axis (taxonomy,
// fingerprinting, heavy hitters, the optional NIST battery) runs off the
// shared memos instead of re-walking the merged packet vector. Per-source
// and per-session work fans out over a work-queue of up to
// `PipelineOptions::threads` workers; every unit of work is a pure
// function of its input writing to a pre-sized result slot in canonical
// order, so the PipelineResult — and its digest — is bitwise-identical
// for every thread count (DESIGN.md §12).
//
// Observability: when constructed with a Registry the pipeline records
//   analysis.index_seconds        index build wall-clock (Span)
//   analysis.classify_seconds     taxonomy stage wall-clock (Span)
//   analysis.nist_seconds         NIST battery wall-clock (Span)
//   analysis.fingerprint_seconds  fingerprint stage wall-clock (Span)
//   analysis.heavy_hitter_seconds heavy-hitter stage wall-clock (Span)
//   analysis.worker.items_total / analysis.worker.busy_seconds
//                                 per-worker shard registries folded via
//                                 aggregateFrom (the sharded-runner path)
//   analysis.worker_busy_seconds  per-worker busy-time histogram
//   analysis.worker_imbalance_ratio  max/mean worker busy time (Max gauge)
//   analysis.sched.splits_total   heavy sources/sessions split into subtasks
//                                 (DESIGN.md §13)
//   analysis.sched.task_cost      histogram of estimated task costs
//   analysis.index.rescans_avoided_total / target_spans_served_total
//                                 full-capture re-scans the index replaced
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/capture_index.hpp"
#include "analysis/fingerprint.hpp"
#include "analysis/heavy_hitter.hpp"
#include "analysis/nist.hpp"
#include "analysis/parallel.hpp"
#include "analysis/taxonomy.hpp"
#include "bgp/splitter.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "telescope/session.hpp"

namespace v6t::analysis {

struct PipelineOptions {
  /// Worker count for the per-source / per-session fan-out. 1 = the
  /// serial reference the thread-invariance tests compare against.
  unsigned threads = 1;

  /// Cost threshold at which a heavy source/session is split into
  /// subtasks (DESIGN.md §13); `analysis.min_split_cost` in configs.
  std::uint64_t minSplitCost = kDefaultMinSplitCost;

  /// Taxonomy stage (on by default; heavy-hitter-only consumers can skip
  /// it and get an empty TaxonomyResult).
  bool taxonomy = true;
  AddressSelectionParams addrParams;
  NetworkSelectionParams netParams;

  /// Heavy-hitter stage (expects the pipeline's sessions to be Addr128 —
  /// hitters are defined per /128).
  bool heavyHitters = true;
  double heavyHitterThresholdPercent = 10.0;

  /// Fingerprint stage.
  bool fingerprint = true;
  const net::RdnsRegistry* rdns = nullptr;
  FingerprintParams fingerprintParams;

  /// NIST battery over sessions with >= nistMinPackets packets (the
  /// paper's appendix-B workload: IID bits 64..127 and subnet bits
  /// 32..63 per eligible session). Off by default — only the fig17
  /// analyses need it.
  bool nistBattery = false;
  std::size_t nistMinPackets = 100;
};

/// NIST verdicts for one eligible session.
struct SessionNist {
  std::uint32_t sessionIdx = 0;
  NistSummary iid;
  NistSummary subnet;
};

struct PipelineResult {
  TaxonomyResult taxonomy;
  std::vector<HeavyHitter> heavyHitters;
  HeavyHitterImpact heavyHitterImpact;
  FingerprintResult fingerprint;
  /// Eligible sessions in session-vector order (empty unless
  /// PipelineOptions::nistBattery).
  std::vector<SessionNist> nist;

  /// Order-sensitive FNV-1a over every field of every stage result. Two
  /// runs with equal digests produced bitwise-identical reports — the
  /// witness the thread-invariance tests compare across thread counts.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Builds the shared index once (at construction) and runs the analysis
/// stages over it. The packet/session spans must outlive the pipeline.
class Pipeline {
public:
  Pipeline(std::span<const net::Packet> packets,
           std::span<const telescope::Session> sessions,
           obs::Registry* registry = nullptr);

  [[nodiscard]] const CaptureIndex& index() const { return index_; }

  /// Run all configured stages. `schedule` provides announcement-cycle
  /// context for the taxonomy's network-selection axis (nullptr for
  /// telescopes without a BGP experiment).
  [[nodiscard]] PipelineResult run(const bgp::SplitSchedule* schedule,
                                   const PipelineOptions& opts = {}) const;

  /// Convenience: index + run in one call.
  [[nodiscard]] static PipelineResult analyze(
      std::span<const net::Packet> packets,
      std::span<const telescope::Session> sessions,
      const bgp::SplitSchedule* schedule, const PipelineOptions& opts = {},
      obs::Registry* registry = nullptr);

private:
  void recordWorkerStats(const ParallelForStats& stats) const;

  obs::Registry* registry_;
  CaptureIndex index_;
};

} // namespace v6t::analysis
