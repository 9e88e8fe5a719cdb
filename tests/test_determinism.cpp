// Seed determinism: the simulation's core contract is that one config
// yields one dataset, bit for bit. Two independent ExperimentRunner runs
// must agree on every capture digest and run statistic; a different seed
// must not.
#include <gtest/gtest.h>

#include <memory>

#include "core/runner.hpp"

namespace v6t::core {
namespace {

ExperimentConfig tinyConfig(std::uint64_t seed) {
  ExperimentConfig config;
  config.seed = seed;
  config.sourceScale = 0.04;
  config.volumeScale = 0.003;
  config.baseline = sim::weeks(3);
  config.splits = 3;
  config.routeObjectAt = sim::weeks(4);
  return config;
}

TEST(DeterminismTest, RunnerIsSeedDeterministic) {
  RunnerConfig config;
  config.experiment = tinyConfig(11);
  config.experiment.threads = 2;
  ExperimentRunner first{config};
  ExperimentRunner second{config};
  first.run();
  second.run();
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(first.capture(t).digest(), second.capture(t).digest())
        << "telescope " << t;
    EXPECT_EQ(first.capture(t).packetCount(), second.capture(t).packetCount());
  }
  EXPECT_EQ(first.stats().totalEvents, second.stats().totalEvents);
  EXPECT_EQ(first.stats().droppedNoRoute, second.stats().droppedNoRoute);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  RunnerConfig config;
  config.experiment = tinyConfig(11);
  ExperimentRunner first{config};
  config.experiment = tinyConfig(12);
  ExperimentRunner second{config};
  first.run();
  second.run();
  bool anyDifference = false;
  for (std::size_t t = 0; t < 4; ++t) {
    anyDifference |= first.capture(t).digest() != second.capture(t).digest();
  }
  EXPECT_TRUE(anyDifference);
}

} // namespace
} // namespace v6t::core
