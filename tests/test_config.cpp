// Tests for the experiment configuration parser.
#include <gtest/gtest.h>

#include "core/config.hpp"

namespace v6t::core {
namespace {

TEST(Config, EmptyInputYieldsDefaults) {
  const auto result = parseExperimentConfig(std::string{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.config.seed, ExperimentConfig{}.seed);
  EXPECT_EQ(result.config.splits, 16);
}

TEST(Config, ParsesAllKeys) {
  const auto result = parseExperimentConfig(std::string{R"(
    # a comment
    seed = 7
    source_scale = 0.5
    volume_scale = 0.1
    baseline_weeks = 4   # trailing comment
    cycle_weeks = 1
    splits = 6
    withdraw_gap_days = 2
    route_object_weeks = 5
    t1_base = 3fff:100::/32
    t2_prefix = 3fff:2::/48
    t2_productive = 3fff:2:0:ff00::/56
    t2_attractor = 3fff:2::1234
    covering = 3fff:e00::/29
    t3_prefix = 3fff:e03:3::/48
    t4_prefix = 3fff:e05:7::/48
    our_asn = 65123
  )"});
  ASSERT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.config.seed, 7u);
  EXPECT_DOUBLE_EQ(result.config.sourceScale, 0.5);
  EXPECT_EQ(result.config.baseline.millis(), sim::weeks(4).millis());
  EXPECT_EQ(result.config.cycle.millis(), sim::weeks(1).millis());
  EXPECT_EQ(result.config.splits, 6);
  EXPECT_EQ(result.config.withdrawGap.millis(), sim::days(2).millis());
  EXPECT_EQ(result.config.t2Attractor.toString(), "3fff:2::1234");
  EXPECT_EQ(result.config.ourAsn.value(), 65123u);
}

TEST(Config, RejectsUnknownKey) {
  const auto result = parseExperimentConfig(std::string{"sped = 7\n"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errors[0].find("unknown key"), std::string::npos);
}

TEST(Config, RejectsMalformedValues) {
  EXPECT_FALSE(parseExperimentConfig(std::string{"seed = banana"}).ok());
  EXPECT_FALSE(parseExperimentConfig(std::string{"source_scale = 2.0"}).ok());
  EXPECT_FALSE(parseExperimentConfig(std::string{"source_scale = -1"}).ok());
  EXPECT_FALSE(parseExperimentConfig(std::string{"t1_base = nope/32"}).ok());
  EXPECT_FALSE(parseExperimentConfig(std::string{"splits = 0"}).ok());
  EXPECT_FALSE(parseExperimentConfig(std::string{"just a line"}).ok());
  EXPECT_FALSE(parseExperimentConfig(std::string{"= 3"}).ok());
  // A NaN fails every ordered compare, so a range check must reject
  // whatever is not inside the range.
  for (const char* nan : {"nan", "-nan", "NAN"}) {
    for (const char* key : {"source_scale", "volume_scale", "faults.stall"}) {
      EXPECT_FALSE(
          parseExperimentConfig(std::string{key} + " = " + nan).ok())
          << key << " = " << nan;
    }
  }
}

TEST(Config, SemanticValidation) {
  // T3 outside the covering prefix.
  const auto bad = parseExperimentConfig(
      std::string{"t3_prefix = 2001:db8::/48\n"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.errors[0].find("t3_prefix"), std::string::npos);

  // Attractor inside the productive subnet.
  const auto bad2 = parseExperimentConfig(
      std::string{"t2_attractor = 3fff:2:0:ff00::1\n"});
  EXPECT_FALSE(bad2.ok());

  // Splitting a /120 sixteen times runs past /128.
  const auto bad3 = parseExperimentConfig(
      std::string{"t1_base = 3fff:100::/120\n"});
  EXPECT_FALSE(bad3.ok());
}

TEST(Config, FormatRoundTrips) {
  ExperimentConfig custom;
  custom.seed = 99;
  custom.splits = 4;
  custom.sourceScale = 0.123456789; // more digits than an ostream prints
  custom.volumeScale = 0.33;
  custom.t2Attractor = net::Ipv6Address::mustParse("3fff:2::42");
  const std::string text = formatExperimentConfig(custom);
  const auto reparsed = parseExperimentConfig(text);
  ASSERT_TRUE(reparsed.ok()) << (reparsed.errors.empty()
                                     ? ""
                                     : reparsed.errors[0]);
  EXPECT_EQ(reparsed.config.seed, 99u);
  EXPECT_EQ(reparsed.config.splits, 4);
  EXPECT_EQ(reparsed.config.sourceScale, 0.123456789);
  EXPECT_EQ(reparsed.config.volumeScale, 0.33);
  EXPECT_NE(text.find("volume_scale = 0.33\n"), std::string::npos);
  EXPECT_EQ(reparsed.config.t2Attractor, custom.t2Attractor);
}

TEST(Config, ServeKeysParseAndRoundTrip) {
  const auto result = parseExperimentConfig(std::string{R"(
    serve.port = 9090
    serve.threads = 4
    serve.cache_bytes = 1048576
    serve.cache_shards = 2
    serve.max_connections = 100
    serve.max_request_bytes = 4096
    serve.idle_timeout_seconds = 5
  )"});
  ASSERT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.config.servePort, 9090);
  EXPECT_EQ(result.config.serveThreads, 4u);
  EXPECT_EQ(result.config.serveCacheBytes, 1048576u);
  EXPECT_EQ(result.config.serveCacheShards, 2u);
  EXPECT_EQ(result.config.serveMaxConnections, 100u);
  EXPECT_EQ(result.config.serveMaxRequestBytes, 4096u);
  EXPECT_EQ(result.config.serveIdleTimeoutSeconds, 5u);

  const auto reparsed =
      parseExperimentConfig(formatExperimentConfig(result.config));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.config.servePort, 9090);
  EXPECT_EQ(reparsed.config.serveCacheBytes, 1048576u);
  EXPECT_EQ(reparsed.config.serveIdleTimeoutSeconds, 5u);

  // Cache disabled (the bench's cache-off leg) is a legal setting; the
  // out-of-range corners are not.
  EXPECT_TRUE(parseExperimentConfig(std::string{"serve.cache_bytes = 0"}).ok());
  EXPECT_FALSE(parseExperimentConfig(std::string{"serve.threads = 0"}).ok());
  EXPECT_FALSE(parseExperimentConfig(std::string{"serve.port = 70000"}).ok());
  EXPECT_FALSE(
      parseExperimentConfig(std::string{"serve.max_request_bytes = 1"}).ok());
}

TEST(Config, DefaultServeKeysAreNotEmitted) {
  // Golden round-trip: a config that never mentions serve.* must format
  // byte-identically to one from before the query service existed.
  EXPECT_EQ(formatExperimentConfig(ExperimentConfig{})
                .find("serve."),
            std::string::npos);
}

TEST(Config, ErrorsCarryLineNumbers) {
  const auto result = parseExperimentConfig(std::string{
      "seed = 1\nbogus_key = 2\nseed = x\n"});
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_NE(result.errors[0].find("line 2"), std::string::npos);
  EXPECT_NE(result.errors[1].find("line 3"), std::string::npos);
}

} // namespace
} // namespace v6t::core
