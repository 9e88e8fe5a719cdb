// v6t::analysis — deterministic parallel dispatch primitives.
//
// Two primitives with one determinism contract: fn must be a pure
// function of its item index writing only to pre-sized output slot(s)
// owned by that item. Under that discipline the merged output is
// bitwise-identical for every worker count — the same argument DESIGN.md
// §8 makes for the sharded runner — because only the ASSIGNMENT of items
// to workers varies run to run, never what an item computes.
//
// Both run one dispatch loop: workers take positions off one shared
// atomic cursor until every position is taken.
//
//   parallelFor        positions are item indices, grabbed in chunks; the
//                      cheap path for loops whose items cost about the
//                      same (summary fan-out, small fixed task sets).
//
//   parallelForCosted  the cost-aware scheduler (DESIGN.md §13): items
//                      carry caller-estimated costs and positions walk
//                      lptOrder(costs) one task at a time, so every idle
//                      worker takes the largest task left — LPT list
//                      scheduling on the real task durations. Heavy-tailed
//                      workloads (a handful of heavy-hitter sources
//                      dominating the capture) start their big items first
//                      instead of serializing behind whichever worker drew
//                      one last; callers split items too heavy for that.
//
// threads <= 1 (or n <= 1) executes inline on the calling thread in item
// order with no thread spawned — the serial reference the equivalence
// tests compare against.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace v6t::analysis {

/// What the dispatch did: per-worker items and wall busy seconds for the
/// pipeline's worker-imbalance histogram, plus scheduler counters. Entry
/// w belongs to worker w; inline execution reports one worker.
struct ParallelForStats {
  std::vector<std::uint64_t> items;
  std::vector<double> busySeconds;
  /// Heavy items subdivided into subtasks — filled by callers that split
  /// (classifyIndexed, the NIST stage), not by the scheduler itself.
  std::uint64_t splits = 0;
  /// Estimated cost of every scheduled task (the scheduler's input), for
  /// the `analysis.sched.task_cost` histogram. Empty for parallelFor.
  std::vector<std::uint64_t> taskCosts;

  /// Fold another dispatch's stats in (per-worker entries add pairwise;
  /// counters and task costs accumulate) — for stages that run more than
  /// one dispatch (fingerprint: DBSCAN adjacency + hop-limit scan).
  void absorb(const ParallelForStats& other);
};

/// Cost threshold (in scheduler cost units — roughly packets touched)
/// at or above which a single source/session is split into subtasks.
/// Configurable as `analysis.min_split_cost`.
inline constexpr std::uint64_t kDefaultMinSplitCost = 16384;

/// Canonical LPT dispatch order: item indices sorted by estimated cost
/// descending, ties broken by index ascending. Exposed for the scheduler
/// property tests.
[[nodiscard]] std::vector<std::size_t> lptOrder(
    std::span<const std::uint64_t> costs);

ParallelForStats parallelFor(
    std::size_t n, unsigned threads,
    const std::function<void(unsigned worker, std::size_t index)>& fn);

/// Cost-aware dispatch of items [0, costs.size()) — see file comment.
ParallelForStats parallelForCosted(
    std::span<const std::uint64_t> costs, unsigned threads,
    const std::function<void(unsigned worker, std::size_t index)>& fn);

} // namespace v6t::analysis
