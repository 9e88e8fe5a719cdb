// v6t::core — metric collection glue between the simulation components
// and the obs registry.
//
// Components keep cheap private counters (engine events, RIB lookups,
// fabric drops, telescope captures); ComponentSampler copies them into
// named registry metrics as *deltas*, so it can be re-run at every epoch
// boundary — the runner's live-snapshot refresh — without double counting.
//
// Metric naming scheme (DESIGN.md §9): `<component>.<metric>`, dots as
// separators, `_total` suffix on monotonic counters, `_seconds` on
// durations; per-telescope metrics carry the telescope name segment
// (`telescope.T1.packets_total`), per-shard runner metrics the shard id
// (`runner.shard.0.events_total`).
#pragma once

#include <array>
#include <memory>

#include "bgp/rib.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "telescope/fabric.hpp"
#include "telescope/telescope.hpp"

namespace v6t::core {

class ExperimentSummary; // core/summary.hpp includes this header's users

/// Delta-samples one world's component counters into a registry. One
/// sampler instance per (registry, world) pair; call sample() as often as
/// freshness requires.
class ComponentSampler {
public:
  explicit ComponentSampler(obs::Registry& registry);

  void sample(
      const sim::Engine& engine, const bgp::Rib& rib,
      const telescope::DeliveryFabric& fabric,
      const std::array<std::unique_ptr<telescope::Telescope>, 4>& telescopes);

private:
  struct Delta {
    obs::Counter* counter = nullptr;
    std::uint64_t last = 0;

    void sampleTo(std::uint64_t total) {
      counter->inc(total - last);
      last = total;
    }
  };

  obs::Registry* registry_;
  Delta events_;
  Delta inlineEvents_; // part of events_: run by Engine::continueInline
  Delta lookups_;
  Delta announces_;
  Delta withdraws_;
  Delta sent_;
  Delta noRoute_;
  Delta toVoid_;
  std::array<Delta, 4> packets_;
  std::array<Delta, 4> excluded_;
  obs::Gauge* queueDepth_;
  obs::Gauge* queueHighWater_;
};

/// Record the post-run analysis view: per-telescope session counts and
/// sessionizer lifecycle stats. Called once on the merged summary.
void collectSummaryMetrics(const ExperimentSummary& summary,
                           obs::Registry& registry);

} // namespace v6t::core
