#include "core/metrics.hpp"

#include <string>

#include "core/summary.hpp"

namespace v6t::core {

ComponentSampler::ComponentSampler(obs::Registry& registry)
    : registry_(&registry) {
  events_.counter = &registry.counter("sim.events_total");
  inlineEvents_.counter = &registry.counter("sim.inline_events_total");
  lookups_.counter = &registry.counter("bgp.rib.lpm_lookups_total");
  announces_.counter = &registry.counter("bgp.rib.announces_total");
  withdraws_.counter = &registry.counter("bgp.rib.withdraws_total");
  sent_.counter = &registry.counter("fabric.packets_sent_total");
  noRoute_.counter = &registry.counter("fabric.dropped_no_route_total");
  toVoid_.counter = &registry.counter("fabric.delivered_to_void_total");
  queueDepth_ = &registry.gauge("sim.queue_depth", obs::GaugeMode::Sum);
  queueHighWater_ =
      &registry.gauge("sim.queue_depth_high_water", obs::GaugeMode::Max);
}

void ComponentSampler::sample(
    const sim::Engine& engine, const bgp::Rib& rib,
    const telescope::DeliveryFabric& fabric,
    const std::array<std::unique_ptr<telescope::Telescope>, 4>& telescopes) {
  events_.sampleTo(engine.executedEvents());
  inlineEvents_.sampleTo(engine.inlineEvents());
  lookups_.sampleTo(rib.lpmLookups());
  announces_.sampleTo(rib.announceCount());
  withdraws_.sampleTo(rib.withdrawCount());
  sent_.sampleTo(fabric.sentPackets());
  noRoute_.sampleTo(fabric.droppedNoRoute());
  toVoid_.sampleTo(fabric.deliveredToVoid());
  queueDepth_->set(static_cast<double>(engine.pendingEvents()));
  queueHighWater_->max(static_cast<double>(engine.queueDepthHighWater()));
  for (std::size_t i = 0; i < 4; ++i) {
    const telescope::Telescope& t = *telescopes[i];
    if (packets_[i].counter == nullptr) {
      const std::string base = "telescope." + t.name();
      packets_[i].counter = &registry_->counter(base + ".packets_total");
      excluded_[i].counter = &registry_->counter(base + ".excluded_total");
    }
    packets_[i].sampleTo(t.capturedPackets());
    excluded_[i].sampleTo(t.excludedPackets());
  }
}

void collectSummaryMetrics(const ExperimentSummary& summary,
                           obs::Registry& registry) {
  for (std::size_t i = 0; i < 4; ++i) {
    const TelescopeSummary& t = summary.telescope(i);
    const std::string base = "telescope." + t.name;
    registry.gauge(base + ".sessions128").set(
        static_cast<double>(t.sessions128.size()));
    registry.gauge(base + ".sessions64").set(
        static_cast<double>(t.sessions64.size()));
    registry.counter(base + ".sessions_opened_total")
        .inc(t.stats128.opened);
    registry.counter(base + ".sessions_closed_by_timeout_total")
        .inc(t.stats128.closedByTimeout);
    registry.gauge(base + ".sessions_open_at_finish")
        .set(static_cast<double>(t.stats128.openAtFinish));
  }
}

} // namespace v6t::core
