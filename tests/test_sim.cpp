// Tests for the discrete-event engine, simulated time, and the RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace v6t::sim {
namespace {

TEST(SimTime, Arithmetic) {
  SimTime t = kEpoch + hours(2);
  EXPECT_EQ(t.millis(), 7'200'000);
  EXPECT_EQ((t - kEpoch).millis(), 7'200'000);
  EXPECT_EQ((t + days(1)).dayIndex(), 1);
  EXPECT_EQ(t.hourIndex(), 2);
  EXPECT_EQ((kEpoch + weeks(3)).weekIndex(), 3);
  EXPECT_EQ((weeks(1) / 7).millis(), days(1).millis());
  EXPECT_EQ((days(1) * 7).millis(), weeks(1).millis());
}

TEST(SimTime, Format) {
  EXPECT_EQ(toString(kEpoch), "0d 00:00:00.000");
  EXPECT_EQ(toString(kEpoch + days(2) + hours(3) + minutes(4) + seconds(5)),
            "2d 03:04:05.000");
  EXPECT_EQ(toString(millis(1500)), "0d 00:00:01.500");
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(SimTime{300}, [&] { order.push_back(3); });
  engine.schedule(SimTime{100}, [&] { order.push_back(1); });
  engine.schedule(SimTime{200}, [&] { order.push_back(2); });
  engine.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.executedEvents(), 3u);
}

TEST(Engine, FifoAtSameInstant) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    engine.schedule(SimTime{42}, [&order, i] { order.push_back(i); });
  }
  engine.runAll();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, RunUntilBoundary) {
  Engine engine;
  int fired = 0;
  engine.schedule(SimTime{100}, [&] { ++fired; });
  engine.schedule(SimTime{200}, [&] { ++fired; });
  engine.schedule(SimTime{201}, [&] { ++fired; });
  EXPECT_EQ(engine.run(SimTime{200}), 2u); // inclusive boundary
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), SimTime{200});
  engine.runAll();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, NowAdvancesToRunLimit) {
  Engine engine;
  engine.run(SimTime{5000});
  EXPECT_EQ(engine.now(), SimTime{5000});
}

TEST(Engine, ActionsCanScheduleMore) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) engine.scheduleAfter(millis(10), recurse);
  };
  engine.schedule(SimTime{0}, recurse);
  engine.runAll();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(engine.now(), SimTime{90});
}

TEST(Engine, PastSchedulingClampsToNow) {
  Engine engine;
  SimTime observed;
  engine.schedule(SimTime{100}, [&] {
    engine.schedule(SimTime{5}, [&] { observed = engine.now(); });
  });
  engine.runAll();
  EXPECT_EQ(observed, SimTime{100});
}

TEST(Engine, PendingCount) {
  Engine engine;
  engine.schedule(SimTime{10}, [] {});
  engine.schedule(SimTime{20}, [] {});
  EXPECT_EQ(engine.pendingEvents(), 2u);
  engine.run(SimTime{10});
  EXPECT_EQ(engine.pendingEvents(), 1u);
  engine.runAll();
  EXPECT_EQ(engine.pendingEvents(), 0u);
}

// ---------------------------------------------------------------- RNG

TEST(Rng, Deterministic) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowBounds) {
  Rng rng{9};
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 10000; ++i) ++histogram[rng.below(10)];
  for (int count : histogram) EXPECT_NEAR(count, 1000, 200);
}

TEST(Rng, Between) {
  Rng rng{10};
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.between(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng{11};
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / 20000.0, 3.0, 0.15);
}

TEST(Rng, PoissonMean) {
  Rng rng{12};
  double small = 0;
  double large = 0;
  for (int i = 0; i < 20000; ++i) {
    small += static_cast<double>(rng.poisson(4.0));
    large += static_cast<double>(rng.poisson(200.0));
  }
  EXPECT_NEAR(small / 20000.0, 4.0, 0.15);
  EXPECT_NEAR(large / 20000.0, 200.0, 2.0);
}

TEST(Rng, NormalMoments) {
  Rng rng{13};
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 2.0, 0.1);
}

TEST(Rng, ParetoTail) {
  Rng rng{14};
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, WeightedPick) {
  Rng rng{15};
  const double weights[] = {0.0, 3.0, 1.0};
  std::vector<int> histogram(3, 0);
  for (int i = 0; i < 8000; ++i) ++histogram[rng.weightedPick(weights)];
  EXPECT_EQ(histogram[0], 0);
  EXPECT_NEAR(histogram[1], 6000, 300);
  EXPECT_NEAR(histogram[2], 2000, 300);
  // All-zero weights: out-of-range sentinel.
  const double zeros[] = {0.0, 0.0};
  EXPECT_EQ(rng.weightedPick(zeros), 2u);
}

TEST(Rng, Shuffle) {
  Rng rng{16};
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(std::span<int>{items});
  std::vector<int> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Rng, ForkIndependence) {
  Rng parent{99};
  Rng childA = parent.fork(1);
  Rng childB = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += childA.next() == childB.next();
  EXPECT_EQ(same, 0);
}

} // namespace
} // namespace v6t::sim
