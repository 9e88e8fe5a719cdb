#include "core/runner.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "bgp/feed.hpp"
#include "bgp/hitlist.hpp"
#include "bgp/rib.hpp"
#include "core/metrics.hpp"
#include "fault/injector.hpp"
#include "fault/keyed.hpp"
#include "obs/format.hpp"
#include "telescope/fabric.hpp"
#include "telescope/telescope.hpp"

namespace v6t::core {

std::vector<fault::FeedOp> controlPlaneScript(
    const ExperimentConfig& config, const bgp::SplitSchedule& schedule) {
  std::vector<fault::FeedOp> script;
  script.push_back({sim::kEpoch, true, config.t2Prefix, config.ourAsn});
  script.push_back({sim::kEpoch, true, config.covering, config.coveringAsn});
  for (const bgp::AnnouncementCycle& cycle : schedule.cycles()) {
    if (cycle.index > 0) {
      const bgp::AnnouncementCycle& prev =
          schedule.cycles()[static_cast<std::size_t>(cycle.index) - 1];
      for (const net::Prefix& p : prev.announced) {
        script.push_back({cycle.withdrawAt, false, p, config.ourAsn});
      }
    }
    for (const net::Prefix& p : cycle.announced) {
      script.push_back({cycle.announceAt, true, p, config.ourAsn});
    }
  }
  return script;
}

namespace {

/// Barrier interval: control-plane actions are broadcast to the shards one
/// epoch at a time, and no shard's clock may run ahead of a slower shard
/// by more than this.
constexpr sim::Duration kEpochLength = sim::weeks(1);

/// A shard's private world: the complete control plane plus its population
/// slice. Every shard builds it with the same seeds and component order, so
/// the shared (keyed) randomness is identical across shards.
struct ShardWorld {
  sim::Engine engine;
  bgp::Rib rib;
  std::unique_ptr<bgp::BgpFeed> feed;
  std::unique_ptr<bgp::HitlistService> hitlist;
  std::unique_ptr<telescope::DeliveryFabric> fabric;
  std::array<std::unique_ptr<telescope::Telescope>, 4> telescopes;
  std::unique_ptr<fault::PacketFaultPlane> faultPlane;
  scanner::Population population;

  ShardWorld(const ExperimentConfig& config,
             const scanner::PopulationPlan& plan, unsigned shardCount,
             unsigned shardId, obs::Registry& metrics,
             obs::trace::Tracer* tracer) {
    feed = std::make_unique<bgp::BgpFeed>(engine, rib, config.seed ^ 0xfeed);
    feed->bindMetrics(metrics);
    feed->bindTrace(tracer);
    hitlist = std::make_unique<bgp::HitlistService>(
        engine, *feed, bgp::HitlistService::Params{}, config.seed ^ 0x417);
    fabric = std::make_unique<telescope::DeliveryFabric>(engine, rib);
    telescopes = makeTelescopes(config);
    for (std::size_t i = 0; i < telescopes.size(); ++i) {
      telescopes[i]->bindTrace(tracer, static_cast<std::uint32_t>(1000 + i));
      fabric->attach(*telescopes[i]);
    }
    if (config.faults.hasPacketFaults()) {
      // Stateless per-packet draws keyed by (originId, originSeq): every
      // shard's plane makes the same call for the same packet, so sharding
      // never changes which packets are faulted.
      faultPlane = std::make_unique<fault::PacketFaultPlane>(config.faults,
                                                            config.faultSeed);
      faultPlane->bindMetrics(metrics);
      fabric->setTap(faultPlane.get());
    }
    population =
        scanner::instantiate(plan, engine, *fabric, shardCount, shardId);
  }
};

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

} // namespace

ExperimentRunner::ExperimentRunner(RunnerConfig config)
    : config_(std::move(config)) {
  obs::Span planSpan(runnerMetrics_, "runner.phase.plan_seconds");
  bgp::SplitSchedule::Params scheduleParams;
  scheduleParams.base = config_.experiment.t1Base;
  scheduleParams.start = sim::kEpoch;
  scheduleParams.baseline = config_.experiment.baseline;
  scheduleParams.cycle = config_.experiment.cycle;
  scheduleParams.withdrawGap = config_.experiment.withdrawGap;
  scheduleParams.splits = config_.experiment.splits;
  schedule_ = bgp::SplitSchedule::make(scheduleParams);

  scanner::PopulationParams populationParams;
  populationParams.seed = config_.experiment.seed;
  populationParams.sourceScale = config_.experiment.sourceScale;
  populationParams.volumeScale = config_.experiment.volumeScale;
  populationParams.t1Base = config_.experiment.t1Base;
  populationParams.t2Prefix = config_.experiment.t2Prefix;
  populationParams.t2Attractor = config_.experiment.t2Attractor;
  populationParams.t3Prefix = config_.experiment.t3Prefix;
  populationParams.t4Prefix = config_.experiment.t4Prefix;
  populationParams.coveringPrefix = config_.experiment.covering;
  populationParams.start = sim::kEpoch;
  populationParams.end = schedule_.endOfExperiment();
  // The plan is computed once, serially: the builder's RNG draw sequence
  // defines the population, and every shard instantiates from this one
  // shared (read-only) plan.
  plan_ = scanner::PopulationBuilder{populationParams}.plan();

  // Observability state must exist before run(): a live exporter may call
  // snapshotMetrics()/progressLine() the moment the runner is constructed.
  const unsigned shardCount = std::max(1u, config_.experiment.threads);
  shardMetrics_.reserve(shardCount);
  shardTracers_.reserve(shardCount);
  for (unsigned s = 0; s < shardCount; ++s) {
    shardMetrics_.push_back(std::make_unique<obs::Registry>());
    // Shard 0 is the control-plane owner: every shard replays the script
    // and stamps identical trace IDs, but exactly one emits the
    // BgpUpdateRoot events, so each update has exactly one root run-wide.
    shardTracers_.push_back(std::make_unique<obs::trace::Tracer>(
        obs::trace::TracerOptions{config_.experiment.seed,
                                  config_.experiment.traceRingSize,
                                  config_.experiment.traceEnabled,
                                  config_.experiment.traceRetainAll,
                                  /*controlPlaneOwner=*/s == 0},
        shardMetrics_.back().get()));
  }
  epochsDone_.reset(new std::atomic<std::uint64_t>[shardCount]);
  for (unsigned s = 0; s < shardCount; ++s) epochsDone_[s] = 0;
  const std::int64_t spanMs = (experimentEnd() - sim::kEpoch).millis();
  const std::int64_t epochMs = kEpochLength.millis();
  totalEpochs_ = static_cast<std::uint64_t>((spanMs + epochMs - 1) / epochMs);
}

sim::SimTime ExperimentRunner::experimentEnd() const {
  return config_.experiment.runLimit
             ? sim::kEpoch + *config_.experiment.runLimit
             : schedule_.endOfExperiment();
}

std::array<const telescope::CaptureStore*, 4> ExperimentRunner::captures()
    const {
  return {&captures_[0], &captures_[1], &captures_[2], &captures_[3]};
}

telescope::KWayMerge<telescope::SegmentCursor>
ExperimentRunner::streamCapture(std::size_t i,
                                std::optional<sim::SimTime> from,
                                std::optional<net::Ipv6Address> source) const {
  return telescope::mergeSegments(spilled_[i], from, source);
}

std::uint64_t ExperimentRunner::capturePacketCount(std::size_t i) const {
  if (!spillEnabled()) return captures_[i].packetCount();
  std::uint64_t total = 0;
  for (const telescope::SegmentReader& seg : spilled_[i]) {
    total += seg.meta().recordCount;
  }
  return total;
}

std::vector<const obs::trace::Tracer*> ExperimentRunner::tracers() const {
  std::vector<const obs::trace::Tracer*> out;
  out.reserve(shardTracers_.size());
  for (const auto& t : shardTracers_) out.push_back(t.get());
  return out;
}

std::vector<obs::trace::Tracer*> ExperimentRunner::tracersMutable() {
  std::vector<obs::trace::Tracer*> out;
  out.reserve(shardTracers_.size());
  for (const auto& t : shardTracers_) out.push_back(t.get());
  return out;
}

void ExperimentRunner::snapshotMetrics(obs::Registry& out) const {
  out.aggregateFrom(runnerMetrics_);
  for (const auto& shard : shardMetrics_) out.aggregateFrom(*shard);
}

std::string ExperimentRunner::progressLine() const {
  if (!started_.load(std::memory_order_acquire)) {
    return "progress phase=plan";
  }
  const unsigned shardCount =
      static_cast<unsigned>(shardMetrics_.size());
  std::uint64_t minEpochs = totalEpochs_;
  for (unsigned s = 0; s < shardCount; ++s) {
    minEpochs = std::min(
        minEpochs, epochsDone_[s].load(std::memory_order_relaxed));
  }
  double packets = 0.0;
  double dropped = 0.0;
  for (const auto& shard : shardMetrics_) {
    for (const char* name :
         {"telescope.T1.packets_total", "telescope.T2.packets_total",
          "telescope.T3.packets_total", "telescope.T4.packets_total"}) {
      packets += shard->value(name).value_or(0.0);
    }
    dropped += shard->value("fabric.dropped_no_route_total").value_or(0.0);
  }
  const double elapsed = secondsSince(runStart_);
  const double simWeeks = static_cast<double>(minEpochs) *
                          static_cast<double>(kEpochLength.millis()) /
                          static_cast<double>(sim::weeks(1).millis());
  std::string line = "progress epochs=" + std::to_string(minEpochs) + "/" +
                     std::to_string(totalEpochs_) +
                     " sim_weeks=" + obs::fmt::fixed(simWeeks, 1) +
                     " packets=" +
                     obs::fmt::withThousands(
                         static_cast<std::uint64_t>(packets)) +
                     " dropped_no_route=" +
                     obs::fmt::withThousands(
                         static_cast<std::uint64_t>(dropped)) +
                     " elapsed=" + obs::fmt::fixed(elapsed, 1) + "s";
  if (minEpochs > 0 && minEpochs < totalEpochs_) {
    const double eta = elapsed *
                       static_cast<double>(totalEpochs_ - minEpochs) /
                       static_cast<double>(minEpochs);
    line += " eta=" + obs::fmt::fixed(eta, 1) + "s";
  }
  return line;
}

void ExperimentRunner::run() {
  if (ran_) return;
  ran_ = true;
  if (spillEnabled()) {
    telescope::requireUnusedSpillRoot(config_.experiment.captureSpillDir);
  }

  using Clock = std::chrono::steady_clock;
  const unsigned shardCount = std::max(1u, config_.experiment.threads);
  const sim::SimTime end = experimentEnd();
  const fault::FaultSpec& faults = config_.experiment.faults;
  fault::ScriptFaultStats scriptFaults;
  const std::vector<fault::FeedOp> script = fault::applyBgpFaults(
      controlPlaneScript(config_.experiment, schedule_), faults,
      config_.experiment.faultSeed, config_.experiment.covering,
      &scriptFaults);
  if (!faults.empty()) {
    // Run-level, recorded exactly once: the script transform and the gap
    // schedule are global facts, so folding them per shard would make the
    // aggregate depend on the shard count. Zero-fault runs register no
    // fault.* keys at all — the metric surface stays bitwise-identical.
    fault::recordScriptFaultMetrics(scriptFaults, faults, runnerMetrics_);
  }

  std::vector<std::unique_ptr<ShardWorld>> worlds(shardCount);
  stats_.shards.assign(shardCount, ShardStats{});
  // Spill mode: the sealed segments each shard leaves, [shard][telescope].
  std::vector<std::array<std::vector<telescope::SegmentReader>, 4>>
      shardSegments(shardCount);
  std::barrier<> barrier(static_cast<std::ptrdiff_t>(shardCount));
  std::mutex errorMutex;
  std::exception_ptr firstError;

  runnerMetrics_.gauge("runner.shards").set(static_cast<double>(shardCount));
  runnerMetrics_.gauge("runner.epochs_total")
      .set(static_cast<double>(totalEpochs_));
  runStart_ = Clock::now();
  started_.store(true, std::memory_order_release);

  auto worker = [&](unsigned shardId) {
    ShardStats& shard = stats_.shards[shardId];
    shard.shardId = shardId;
    obs::Registry& metrics = *shardMetrics_[shardId];
    const std::string shardTag =
        "runner.shard." + std::to_string(shardId);
    const auto t0 = Clock::now();
    try {
      obs::Span instantiateSpan(metrics, "runner.phase.instantiate_seconds");
      auto world = std::make_unique<ShardWorld>(
          config_.experiment, plan_, shardCount, shardId, metrics,
          shardTracers_[shardId].get());
      instantiateSpan.stop();

      // Spill mode: one segment store per (shard, telescope); captures
      // drain into it at every epoch boundary, so shard memory stays
      // bounded by the memtable budget instead of growing with the run.
      std::array<std::unique_ptr<telescope::SegmentStore>, 4> stores;
      if (spillEnabled()) {
        for (std::size_t i = 0; i < 4; ++i) {
          telescope::SegmentStoreOptions storeOptions;
          storeOptions.dir = telescope::spillStoreDir(
              config_.experiment.captureSpillDir, shardId, names_[i]);
          if (config_.experiment.captureSpillBytes != 0) {
            storeOptions.spillBytes = config_.experiment.captureSpillBytes;
          }
          storeOptions.metrics = &metrics;
          stores[i] = std::make_unique<telescope::SegmentStore>(
              std::move(storeOptions));
        }
      }
      auto drainCaptures = [&] {
        if (stores[0] == nullptr) return;
        for (std::size_t i = 0; i < 4; ++i) {
          // Epoch slices are time-ordered, so appending each slice in
          // capture order preserves the store's time-ordered-append
          // contract across the whole run.
          for (const net::Packet& p : world->telescopes[i]->takePackets()) {
            stores[i]->append(p);
          }
        }
      };

      shard.scanners = world->population.size();
      metrics.gauge(shardTag + ".scanners")
          .set(static_cast<double>(shard.scanners));

      // Per-shard component sampling at every epoch boundary keeps the
      // live snapshot/heartbeat fresh without touching another thread's
      // data — all reads are of this shard's own world.
      ComponentSampler sampler{metrics};
      obs::Histogram& barrierWaitHist = metrics.histogram(
          "runner.barrier_wait_seconds", obs::durationBoundsSeconds());
      obs::Histogram& epochHist = metrics.histogram(
          "runner.epoch_seconds", obs::durationBoundsSeconds());
      obs::Gauge& barrierWaitTotal = metrics.gauge(
          shardTag + ".barrier_wait_seconds_total", obs::GaugeMode::Sum);
      obs::Counter& shardEvents = metrics.counter(shardTag + ".events_total");
      // Registered only when stalls are configured, so a zero-fault run
      // exposes no fault.* keys.
      obs::Counter* stallCounter =
          faults.stallProb > 0.0
              ? &metrics.counter("fault.injected.stall_total")
              : nullptr;

      std::size_t cursor = 0;
      auto inject = [&](sim::SimTime upTo) {
        while (cursor < script.size() && script[cursor].at <= upTo) {
          const fault::FeedOp& a = script[cursor++];
          world->engine.schedule(a.at, [w = world.get(), a]() {
            if (a.announce) {
              w->feed->announce(a.prefix, a.origin);
            } else {
              w->feed->withdraw(a.prefix);
            }
          });
        }
      };

      // The first epoch's broadcast happens before any agent comes online:
      // the t = 0 announcements must be queued ahead of the scanners'
      // bootstrap events so the RIB is populated when they first send.
      inject(std::min(sim::kEpoch + kEpochLength, end));
      world->population.startAll(world->feed.get(), world->hitlist.get(),
                                 shardTracers_[shardId].get());

      std::uint64_t eventsAtEpochStart = 0;
      auto epochStart = Clock::now();
      auto closeEpoch = [&] {
        // Wall time and event count of the epoch slice that just ran.
        const std::uint64_t executed = world->engine.executedEvents();
        shard.epochEvents.push_back(executed - eventsAtEpochStart);
        shardEvents.inc(executed - eventsAtEpochStart);
        eventsAtEpochStart = executed;
        epochHist.observe(secondsSince(epochStart));
        sampler.sample(world->engine, world->rib, *world->fabric,
                       world->telescopes);
        drainCaptures();
      };

      shard.events = world->engine.runEpochs(
          end, kEpochLength, [&](int epochIndex, sim::SimTime sliceEnd) {
            if (epochIndex > 0) {
              closeEpoch();
              epochsDone_[shardId].store(
                  static_cast<std::uint64_t>(epochIndex),
                  std::memory_order_relaxed);
            }
            // Injected shard stall: a wall-clock sleep before the barrier,
            // keyed by (shard, epoch). It delays every other shard's
            // arrive_and_wait — exactly the imbalance the epoch-barrier
            // logic must absorb — while the simulated clock never notices.
            if (stallCounter != nullptr &&
                fault::drawChance(config_.experiment.faultSeed,
                                  fault::Kind::Stall, faults.stallProb,
                                  shardId,
                                  static_cast<std::uint64_t>(epochIndex))) {
              std::this_thread::sleep_for(
                  std::chrono::milliseconds(faults.stallFor.millis()));
              stallCounter->inc();
            }
            const auto waitStart = Clock::now();
            barrier.arrive_and_wait();
            const double waited = secondsSince(waitStart);
            shard.barrierWaitSeconds += waited;
            barrierWaitHist.observe(waited);
            barrierWaitTotal.add(waited);
            if (epochIndex > 0) inject(sliceEnd);
            epochStart = Clock::now();
          });
      closeEpoch();
      // Seal what the memtables still hold, so the spill directory holds
      // the whole capture once run() returns; the readers of the sealed
      // segments are all that outlives the stores.
      if (spillEnabled()) {
        for (std::size_t i = 0; i < 4; ++i) {
          shardSegments[shardId][i] = std::move(*stores[i]).seal();
        }
      }
      epochsDone_[shardId].store(totalEpochs_, std::memory_order_relaxed);

      for (const auto& t : world->telescopes) {
        // capturedPackets() is the lifetime total, valid whether or not
        // the store was drained into a segment store along the way.
        shard.packetsCaptured += t->capturedPackets();
        shard.excludedPackets += t->excludedPackets();
      }
      shard.droppedNoRoute = world->fabric->droppedNoRoute();
      shard.deliveredToVoid = world->fabric->deliveredToVoid();
      shard.queueDepthHighWater = world->engine.queueDepthHighWater();
      if (shardId == 0) hitlistListings_ = world->hitlist->listings();
      worlds[shardId] = std::move(world);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError) firstError = std::current_exception();
      }
      // Leave the barrier so surviving shards don't deadlock; this shard's
      // world stays null and the failure is rethrown after the join.
      barrier.arrive_and_drop();
    }
    shard.wallSeconds = secondsSince(t0);
    metrics.gauge(shardTag + ".wall_seconds").set(shard.wallSeconds);
  };

  const auto runStart = Clock::now();
  {
    obs::Span epochsSpan(runnerMetrics_, "runner.phase.epochs_seconds");
    std::vector<std::thread> threads;
    threads.reserve(shardCount);
    for (unsigned s = 0; s < shardCount; ++s) {
      threads.emplace_back(worker, s);
    }
    for (std::thread& t : threads) t.join();
  }
  stats_.runWallSeconds = secondsSince(runStart);
  if (firstError) std::rethrow_exception(firstError);

  // Deterministic merge: the per-shard buffers move into the canonical
  // (ts, originId, originSeq) order — also for one shard, whose buffer
  // arrives in engine-sequence order and is then kept, not copied.
  const auto mergeStart = Clock::now();
  {
    obs::Span mergeSpan(runnerMetrics_, "runner.phase.merge_seconds");
    if (spillEnabled()) {
      // The packets already sit in sealed segments, each in canonical
      // order; streamCapture() merges them lazily, so nothing materializes
      // here.
      for (std::size_t i = 0; i < 4; ++i) {
        for (auto& shard : shardSegments) {
          spilled_[i].insert(spilled_[i].end(),
                             std::make_move_iterator(shard[i].begin()),
                             std::make_move_iterator(shard[i].end()));
        }
        stats_.packetsMerged += capturePacketCount(i);
      }
    } else {
      for (std::size_t i = 0; i < 4; ++i) {
        std::vector<std::vector<net::Packet>> shards;
        shards.reserve(shardCount);
        for (const auto& world : worlds) {
          shards.push_back(world->telescopes[i]->takePackets());
        }
        captures_[i].mergeFrom(std::move(shards));
        stats_.packetsMerged += captures_[i].packetCount();
      }
    }
  }
  stats_.mergeWallSeconds = secondsSince(mergeStart);
  runnerMetrics_.counter("runner.packets_merged_total")
      .inc(stats_.packetsMerged);

  for (const ShardStats& shard : stats_.shards) {
    stats_.totalEvents += shard.events;
    stats_.droppedNoRoute += shard.droppedNoRoute;
    stats_.deliveredToVoid += shard.deliveredToVoid;
    stats_.excludedPackets += shard.excludedPackets;
  }

  // The route6 object of §3.2 is a pure registry record with no effect on
  // any agent; keep it at the runner level instead of per shard.
  if (sim::kEpoch + config_.experiment.routeObjectAt <= end) {
    const auto [lower, upper] = config_.experiment.t1Base.split();
    irr_.addRoute6(lower, config_.experiment.ourAsn,
                   sim::kEpoch + config_.experiment.routeObjectAt);
  }

  snapshotMetrics(metrics_);
}

} // namespace v6t::core
