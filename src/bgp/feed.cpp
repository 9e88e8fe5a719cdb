#include "bgp/feed.hpp"

#include <utility>

namespace v6t::bgp {

BgpFeed::SubscriberId BgpFeed::subscribe(PropagationModel model,
                                         std::uint64_t streamKey,
                                         Callback cb, Ignores ignores) {
  subscribers_.push_back(
      Subscriber{model, std::move(cb),
                 sim::Rng{sim::deriveStreamSeed(seed_, streamKey)},
                 std::move(ignores)});
  return subscribers_.size(); // ids are dense from 1
}

BgpFeed::SubscriberId BgpFeed::subscribe(PropagationModel model, Callback cb) {
  // Counter-derived key: deterministic within one feed instance, but tied to
  // subscription order — consumers that must survive sharding pass a key.
  return subscribe(model, 0x5559bbbf00000000ULL | (subscribers_.size() + 1),
                   std::move(cb));
}

void BgpFeed::bindMetrics(obs::Registry& registry) {
  announcesMetric_ = &registry.counter("bgp.feed.announces_total");
  withdrawsMetric_ = &registry.counter("bgp.feed.withdraws_total");
  deliveriesMetric_ = &registry.counter("bgp.feed.deliveries_total");
  skippedMetric_ = &registry.counter("bgp.feed.deliveries_skipped_total");
  delayMetric_ = &registry.histogram("bgp.feed.convergence_delay_seconds",
                                     obs::delayBoundsSeconds());
}

void BgpFeed::stampTrace(BgpUpdate& update, sim::SimTime now) {
  update.seq = updateSeq_++;
  update.originTs = now;
  if (tracer_ == nullptr) return;
  update.traceId = tracer_->updateTraceId(update.seq);
  // Every shard replays the same script and stamps the same IDs, but only
  // the control-plane owner emits the root — one root per update, run-wide.
  if (tracer_->controlPlaneOwner()) {
    tracer_->record({now.millis(), update.traceId,
                     update.prefix.address().hi64(),
                     (static_cast<std::uint64_t>(update.prefix.length()) << 32) |
                         (update.kind == UpdateKind::Announce ? 1u : 0u),
                     0, obs::trace::EventKind::BgpUpdateRoot,
                     obs::trace::ClockDomain::Sim});
  }
}

void BgpFeed::announce(const net::Prefix& prefix, net::Asn origin) {
  const sim::SimTime now = engine_.now();
  rib_.announce(prefix, origin, now);
  if (announcesMetric_ != nullptr) announcesMetric_->inc();
  BgpUpdate update{UpdateKind::Announce, prefix, origin, now, now, 0, 0};
  stampTrace(update, now);
  publish(update);
}

void BgpFeed::withdraw(const net::Prefix& prefix) {
  const sim::SimTime now = engine_.now();
  const RouteEntry* entry = rib_.findExact(prefix);
  const net::Asn origin = entry != nullptr ? entry->origin : net::Asn{};
  rib_.withdraw(prefix);
  if (withdrawsMetric_ != nullptr) withdrawsMetric_->inc();
  BgpUpdate update{UpdateKind::Withdraw, prefix, origin, now, now, 0, 0};
  stampTrace(update, now);
  publish(update);
}

void BgpFeed::publish(const BgpUpdate& update) {
  const std::size_t index = published_.size();
  published_.push_back(update);
  const sim::SimTime now = engine_.now();
  for (std::size_t sub = 0; sub < subscribers_.size(); ++sub) {
    Subscriber& s = subscribers_[sub];
    const sim::Duration delay = s.model.sample(s.rng);
    const bool skipped = s.ignores && s.ignores(update.prefix);
    if (delayMetric_ != nullptr) {
      delayMetric_->observe(static_cast<double>(delay.millis()) / 1000.0);
      deliveriesMetric_->inc();
      if (skipped) skippedMetric_->inc();
    }
    // A no-op on arrival: its lag is drawn, but it takes no engine seq.
    // Seqs are only ever compared, so no other event changes order.
    if (skipped) continue;
    const sim::SimTime ts = now + delay;
    engine_.schedule(ts, [this, sub, index, ts] { deliver(sub, index, ts); });
  }
}

void BgpFeed::deliver(std::size_t sub, std::size_t update, sim::SimTime ts) {
  // A copy, not a reference into published_: the callback may publish,
  // which can reallocate the log.
  BgpUpdate delivered = published_[update];
  delivered.ts = ts;
  subscribers_[sub].cb(delivered);
}

} // namespace v6t::bgp
