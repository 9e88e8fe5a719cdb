// Property tests for the cost-aware scheduler (DESIGN.md §13): LPT
// dispatch order, exactly-once execution over the shared cursor,
// canonical reduction order vs a serial oracle, and ParallelForStats
// accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <vector>

#include "analysis/parallel.hpp"
#include "sim/rng.hpp"

namespace v6t::analysis {
namespace {

std::vector<std::uint64_t> randomCosts(sim::Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> costs(n);
  for (std::uint64_t& c : costs) {
    // Heavy-tailed mix: mostly small, occasional huge items — the
    // capture skew the scheduler exists for. Zero costs included (the
    // scheduler must clamp them to one slot).
    const std::uint64_t kind = rng.below(10);
    if (kind == 0) {
      c = 10'000 + rng.below(100'000);
    } else if (kind < 4) {
      c = 0;
    } else {
      c = rng.below(500);
    }
  }
  return costs;
}

TEST(LptOrder, SortsByCostDescendingWithStableTies) {
  sim::Rng rng{20260808};
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.below(200);
    std::vector<std::uint64_t> costs(n);
    // Small value range forces plenty of ties.
    for (std::uint64_t& c : costs) c = rng.below(8);
    const std::vector<std::size_t> order = lptOrder(costs);
    ASSERT_EQ(order.size(), n);
    std::vector<bool> seen(n, false);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_LT(order[k], n);
      EXPECT_FALSE(seen[order[k]]) << "index listed twice";
      seen[order[k]] = true;
      if (k == 0) continue;
      const std::uint64_t prev = costs[order[k - 1]];
      const std::uint64_t cur = costs[order[k]];
      EXPECT_GE(prev, cur) << "not descending at position " << k;
      if (prev == cur) {
        // Stable tie-break: equal costs stay in ascending index order.
        EXPECT_LT(order[k - 1], order[k]) << "tie not index-ordered";
      }
    }
  }
}

TEST(Scheduler, CostedDispatchFollowsLptOrder) {
  // Workers take tasks off the cursor in lptOrder and log each on entry.
  // When the task of LPT rank r is logged, every lower rank has been
  // taken; at most threads - 1 of those are held by other workers that
  // have not logged them yet. So rank r sits at log position
  // >= r - (threads - 1) whatever the interleaving.
  sim::Rng rng{20261017};
  for (const unsigned threads : {2u, 4u, 8u}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n = 2 + rng.below(300);
      const std::vector<std::uint64_t> costs = randomCosts(rng, n);
      std::mutex m;
      std::vector<std::size_t> log;
      (void)parallelForCosted(costs, threads, [&](unsigned, std::size_t i) {
        const std::lock_guard<std::mutex> lock(m);
        log.push_back(i);
      });
      ASSERT_EQ(log.size(), n);
      std::vector<std::size_t> logPos(n);
      for (std::size_t k = 0; k < n; ++k) logPos[log[k]] = k;
      const std::vector<std::size_t> order = lptOrder(costs);
      for (std::size_t r = 0; r < n; ++r) {
        ASSERT_GE(logPos[order[r]] + (threads - 1), r)
            << "threads " << threads << " trial " << trial << " rank " << r
            << " index " << order[r];
      }
    }
  }
}

TEST(Scheduler, ExactlyOnce) {
  sim::Rng rng{20260808};
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.below(300);
    const unsigned threads = 2 + static_cast<unsigned>(rng.below(15));
    const std::vector<std::uint64_t> costs = randomCosts(rng, n);
    std::vector<std::atomic<std::uint32_t>> visits(n);
    const ParallelForStats stats = parallelForCosted(
        costs, threads, [&](unsigned, std::size_t i) {
          visits[i].fetch_add(1, std::memory_order_relaxed);
        });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1u)
          << "trial " << trial << " index " << i << " threads " << threads;
    }
    const std::uint64_t items =
        std::accumulate(stats.items.begin(), stats.items.end(),
                        std::uint64_t{0});
    EXPECT_EQ(items, n) << "trial " << trial;
    EXPECT_EQ(stats.items.size(), stats.busySeconds.size());
    EXPECT_EQ(stats.taskCosts.size(), n);
  }
}

TEST(Scheduler, CanonicalReductionMatchesSerialOracle) {
  // Each task writes a pure function of its index into its own slot;
  // the reduction walks the slots in canonical (index) order. Whatever
  // worker computed each slot, the reduced value must equal the serial
  // oracle's — including through an order-sensitive fold (FNV-style),
  // which would expose any assignment-order leakage.
  sim::Rng rng{777};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(500);
    const std::vector<std::uint64_t> costs = randomCosts(rng, n);

    std::uint64_t oracle = 14695981039346656037ULL;
    std::vector<std::uint64_t> serialSlots(n);
    for (std::size_t i = 0; i < n; ++i) {
      serialSlots[i] = costs[i] * 2654435761ULL + i;
      oracle = (oracle ^ serialSlots[i]) * 0x100000001b3ULL;
    }

    for (const unsigned threads : {1u, 2u, 3u, 8u, 16u}) {
      std::vector<std::uint64_t> slots(n, 0);
      (void)parallelForCosted(costs, threads, [&](unsigned, std::size_t i) {
        slots[i] = costs[i] * 2654435761ULL + i;
      });
      std::uint64_t reduced = 14695981039346656037ULL;
      for (std::size_t i = 0; i < n; ++i) {
        reduced = (reduced ^ slots[i]) * 0x100000001b3ULL;
      }
      ASSERT_EQ(reduced, oracle) << "trial " << trial << " threads "
                                 << threads;
      ASSERT_EQ(slots, serialSlots);
    }
  }
}

TEST(Scheduler, StatsAccountingUnderSkew) {
  // One item holds ~90% of the cost; with many workers idle behind it,
  // every item still runs once and the items still sum exactly to n.
  const std::size_t n = 400;
  std::vector<std::uint64_t> costs(n, 10);
  costs[17] = 40'000;
  for (const unsigned threads : {2u, 8u, 16u}) {
    std::vector<std::atomic<std::uint32_t>> visits(n);
    const ParallelForStats stats = parallelForCosted(
        costs, threads, [&](unsigned, std::size_t i) {
          visits[i].fetch_add(1, std::memory_order_relaxed);
        });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 1u);
    EXPECT_EQ(std::accumulate(stats.items.begin(), stats.items.end(),
                              std::uint64_t{0}),
              n);
    EXPECT_LE(stats.items.size(), static_cast<std::size_t>(threads));
    EXPECT_EQ(stats.taskCosts.size(), n);
  }
}

TEST(ParallelForStatsTest, AbsorbFoldsWorkersCountersAndCosts) {
  ParallelForStats a;
  a.items = {3, 1};
  a.busySeconds = {0.5, 0.25};
  a.splits = 1;
  a.taskCosts = {10, 20};
  ParallelForStats b;
  b.items = {1, 2, 4};
  b.busySeconds = {0.125, 0.0625, 1.0};
  b.splits = 3;
  b.taskCosts = {30};
  a.absorb(b);
  ASSERT_EQ(a.items.size(), 3u);
  EXPECT_EQ(a.items[0], 4u);
  EXPECT_EQ(a.items[1], 3u);
  EXPECT_EQ(a.items[2], 4u);
  EXPECT_DOUBLE_EQ(a.busySeconds[0], 0.625);
  EXPECT_DOUBLE_EQ(a.busySeconds[1], 0.3125);
  EXPECT_DOUBLE_EQ(a.busySeconds[2], 1.0);
  EXPECT_EQ(a.splits, 4u);
  ASSERT_EQ(a.taskCosts.size(), 3u);
}

} // namespace
} // namespace v6t::analysis
