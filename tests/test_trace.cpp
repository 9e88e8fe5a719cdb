// obs::trace — the deterministic flight recorder (DESIGN.md §14).
//
// Covers the acceptance gates of the trace subsystem: trace-ID
// determinism, ring overwrite semantics, exactly-one-root-per-update,
// capture↔update linkage, byte-identical exports across thread counts,
// the observation-only contract (traced == untraced captures), the
// reaction-delay histograms, and the post-mortem dump.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "core/runner.hpp"
#include "obs/trace.hpp"

namespace v6t {
namespace {

using obs::trace::ClockDomain;
using obs::trace::EventKind;
using obs::trace::TraceEvent;
using obs::trace::Tracer;
using obs::trace::TracerOptions;

/// Scaled-down experiment: 2-week baseline plus two bi-weekly splits —
/// enough announcement cycles for BGP-reactive scanners to react to
/// post-bootstrap deltas, small enough for the suite.
core::ExperimentConfig tinyConfig() {
  core::ExperimentConfig config;
  config.seed = 7;
  config.sourceScale = 0.05;
  config.volumeScale = 0.004;
  config.baseline = sim::weeks(2);
  config.cycle = sim::weeks(2);
  config.splits = 2;
  config.routeObjectAt = sim::weeks(3);
  return config;
}

/// A traced runner over tinyConfig at the given shard count.
std::unique_ptr<core::ExperimentRunner> tracedRun(unsigned threads) {
  core::RunnerConfig runnerConfig;
  runnerConfig.experiment = tinyConfig();
  runnerConfig.experiment.threads = threads;
  runnerConfig.experiment.traceEnabled = true;
  runnerConfig.experiment.traceRetainAll = true;
  auto runner = std::make_unique<core::ExperimentRunner>(runnerConfig);
  runner->run();
  return runner;
}

TEST(TraceTest, TraceIdsAreDeterministicAndDistinct) {
  const Tracer a{TracerOptions{.seed = 42}};
  const Tracer b{TracerOptions{.seed = 42}};
  const Tracer c{TracerOptions{.seed = 43}};
  std::set<std::uint64_t> ids;
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    const std::uint64_t id = a.updateTraceId(seq);
    EXPECT_EQ(id, b.updateTraceId(seq)) << "same seed, same seq";
    EXPECT_NE(id, 0u) << "0 is the untraced sentinel";
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u) << "ids collide";
  // A different experiment seed yields an unrelated id sequence.
  EXPECT_NE(a.updateTraceId(0), c.updateTraceId(0));
}

TEST(TraceTest, RingOverwriteKeepsNewestEvents) {
  obs::trace::TraceRing ring{4};
  for (std::int64_t i = 0; i < 10; ++i) {
    ring.push(TraceEvent{.ts = i, .kind = EventKind::Marker});
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  const auto window = ring.snapshot();
  ASSERT_EQ(window.size(), 4u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].ts, static_cast<std::int64_t>(6 + i))
        << "oldest-first window of the newest 4";
  }
}

TEST(TraceTest, DisabledTracerRecordsNothingButObservesReactions) {
  obs::Registry registry;
  Tracer tracer{TracerOptions{.seed = 1, .enabled = false}, &registry};
  tracer.record(TraceEvent{.ts = 5, .kind = EventKind::Marker});
  EXPECT_EQ(tracer.ring().recorded(), 0u);
  EXPECT_TRUE(tracer.retained().empty());
  // The reaction histograms are plain metrics, not trace data: they fire
  // whenever a registry is attached, traced run or not.
  tracer.observeReaction(0, "bgp_reactive", 42.0);
  const auto flat = registry.flatten();
  EXPECT_GT(flat.at("bgp.reaction_delay_seconds.bgp_reactive.count"), 0.0);
  EXPECT_GT(flat.at("bgp.reaction_delay_seconds.all.count"), 0.0);
}

TEST(TraceTest, ExactlyOneRootPerUpdate) {
  if (!obs::trace::kCompiledIn) GTEST_SKIP() << "built with V6T_TRACE=OFF";
  const auto runner = tracedRun(2);
  std::map<std::uint64_t, int> rootsById;
  std::size_t feedDeliveries = 0;
  for (const Tracer* t : runner->tracers()) {
    for (const TraceEvent& e : t->retained()) {
      if (e.kind == EventKind::BgpUpdateRoot) ++rootsById[e.traceId];
      if (e.kind == EventKind::FeedDelivery) ++feedDeliveries;
    }
  }
  ASSERT_FALSE(rootsById.empty());
  for (const auto& [id, count] : rootsById) {
    EXPECT_EQ(count, 1) << "update " << id
                        << " must have exactly one root run-wide";
  }
  // Deliveries reference only ids that have a root.
  EXPECT_GT(feedDeliveries, 0u);
}

TEST(TraceTest, CaptureLinksBackToBgpUpdate) {
  if (!obs::trace::kCompiledIn) GTEST_SKIP() << "built with V6T_TRACE=OFF";
  const auto runner = tracedRun(2);
  const auto tracers = runner->tracers();
  const auto events = obs::trace::collectCanonicalSimEvents(
      std::span<const Tracer* const>{tracers});
  std::set<std::uint64_t> rootIds;
  // (scanner id, originSeq) of every update-caused PacketSent.
  std::set<std::pair<std::uint64_t, std::uint64_t>> sent;
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::BgpUpdateRoot) rootIds.insert(e.traceId);
    if (e.kind == EventKind::PacketSent && e.traceId != 0) {
      sent.insert({e.entity, e.a});
    }
  }
  std::size_t linked = 0;
  for (const TraceEvent& e : events) {
    if (e.kind != EventKind::PacketCaptured || e.traceId == 0) continue;
    ++linked;
    EXPECT_TRUE(rootIds.contains(e.traceId))
        << "captured packet references an update with no root";
    // (a, b) = (originId, originSeq) must match an update-caused send.
    EXPECT_TRUE(sent.contains({e.a, e.b}))
        << "capture (" << e.a << ", " << e.b << ") has no matching send";
  }
  EXPECT_GT(linked, 0u) << "no capture was linked to any BGP update";
}

TEST(TraceTest, TraceBytesIdenticalAcrossThreadCounts) {
  if (!obs::trace::kCompiledIn) GTEST_SKIP() << "built with V6T_TRACE=OFF";
  std::string reference;
  std::string referenceDigest;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto runner = tracedRun(threads);
    const auto tracers = runner->tracers();
    const auto simEvents = obs::trace::collectCanonicalSimEvents(
        std::span<const Tracer* const>{tracers});
    // Clock-domain normalization: the sim-time process section only (wall
    // events time scheduler threads and are inherently run-specific).
    const std::string json = obs::trace::chromeTraceJson(simEvents, {});
    std::string digest;
    for (std::size_t t = 0; t < 4; ++t) {
      digest += std::to_string(runner->capture(t).digest()) + ",";
    }
    if (reference.empty()) {
      reference = json;
      referenceDigest = digest;
      EXPECT_FALSE(simEvents.empty());
    } else {
      EXPECT_EQ(json, reference) << "trace bytes differ at " << threads
                                 << " threads";
      EXPECT_EQ(digest, referenceDigest)
          << "report digest differs at " << threads << " threads";
    }
  }
}

// Recording also turns off the feed's skipping of deliveries a scanner
// would ignore (BgpFeed::subscribe), so this is the world-level check that
// skipping them changes nothing: the untraced run skips, the traced one
// delivers everything, and the captures must not tell them apart.
TEST(TraceTest, TracingDoesNotPerturbTheSimulation) {
  for (const unsigned threads : {1u, 2u}) {
    core::RunnerConfig plain;
    plain.experiment = tinyConfig();
    plain.experiment.threads = threads;
    core::ExperimentRunner untraced{plain};
    untraced.run();
    const auto traced = tracedRun(threads);
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_EQ(traced->capture(t).digest(), untraced.capture(t).digest())
          << "tracing changed telescope " << t << " at " << threads
          << " threads";
    }
    obs::Registry plainMetrics;
    obs::Registry tracedMetrics;
    untraced.snapshotMetrics(plainMetrics);
    traced->snapshotMetrics(tracedMetrics);
    const auto metric = [](const obs::Registry& r, std::string_view name) {
      return r.value(name).value_or(0.0);
    };
    EXPECT_EQ(metric(plainMetrics, "bgp.feed.deliveries_total"),
              metric(tracedMetrics, "bgp.feed.deliveries_total"));
    EXPECT_GT(metric(plainMetrics, "bgp.feed.deliveries_total"), 0.0);
    if (obs::trace::kCompiledIn) {
      EXPECT_GT(metric(plainMetrics, "bgp.feed.deliveries_skipped_total"),
                0.0);
      EXPECT_EQ(metric(tracedMetrics, "bgp.feed.deliveries_skipped_total"),
                0.0);
    }
  }
}

TEST(TraceTest, ReactionDelayHistogramPopulated) {
  const auto runner = tracedRun(2);
  obs::Registry snapshot;
  runner->snapshotMetrics(snapshot);
  const auto flat = snapshot.flatten();
  ASSERT_TRUE(flat.contains("bgp.reaction_delay_seconds.all.count"));
  EXPECT_GT(flat.at("bgp.reaction_delay_seconds.all.count"), 0.0);
  // At least one per-class histogram (BGP-reactive scanners exist in every
  // population) and its counts fold into .all.
  EXPECT_GT(flat.at("bgp.reaction_delay_seconds.bgp_reactive.count"), 0.0);
  double perClass = 0.0;
  for (const auto& [name, value] : flat) {
    if (name.starts_with("bgp.reaction_delay_seconds.") &&
        name.ends_with(".count") &&
        !name.starts_with("bgp.reaction_delay_seconds.all")) {
      perClass += value;
    }
  }
  EXPECT_EQ(perClass, flat.at("bgp.reaction_delay_seconds.all.count"));
}

TEST(TraceTest, ChromeTraceExportIsWellFormed) {
  if (!obs::trace::kCompiledIn) GTEST_SKIP() << "built with V6T_TRACE=OFF";
  const auto runner = tracedRun(1);
  const auto tracers = runner->tracers();
  const auto simEvents = obs::trace::collectCanonicalSimEvents(
      std::span<const Tracer* const>{tracers});
  ASSERT_FALSE(simEvents.empty());
  EXPECT_TRUE(std::is_sorted(simEvents.begin(), simEvents.end(),
                             [](const TraceEvent& x, const TraceEvent& y) {
                               return obs::trace::canonicalLess(x, y);
                             }));
  const std::string json = obs::trace::chromeTraceJson(simEvents, {});
  EXPECT_TRUE(json.starts_with("{\"displayTimeUnit\":\"ms\""));
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"BgpUpdateRoot\""), std::string::npos);
  EXPECT_NE(json.find("\"PacketCaptured\""), std::string::npos);
  EXPECT_TRUE(json.ends_with("]}\n"));
  // Braces balance (the exporter emits no strings containing braces).
  std::int64_t depth = 0;
  for (const char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceTest, PostMortemRingDumpContainsRecentEvents) {
  if (!obs::trace::kCompiledIn) GTEST_SKIP() << "built with V6T_TRACE=OFF";
  Tracer tracer{TracerOptions{.seed = 9, .ringSize = 8, .enabled = true}};
  for (std::int64_t i = 0; i < 20; ++i) {
    tracer.record(TraceEvent{.ts = i,
                             .traceId = 0xabcdefULL,
                             .a = static_cast<std::uint64_t>(i),
                             .kind = EventKind::PacketSent});
  }
  std::ostringstream out;
  tracer.dumpRing(out);
  const std::string dump = out.str();
  EXPECT_NE(dump.find("trace ring: 8 retained of 20 recorded"),
            std::string::npos);
  EXPECT_NE(dump.find("PacketSent"), std::string::npos);
  EXPECT_NE(dump.find("ts=19"), std::string::npos) << "newest event missing";
  EXPECT_EQ(dump.find("ts=11 "), std::string::npos)
      << "overwritten event leaked into the dump";
}

} // namespace
} // namespace v6t
