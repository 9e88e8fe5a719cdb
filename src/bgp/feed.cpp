#include "bgp/feed.hpp"

#include <algorithm>

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

void BgpFeed::unsubscribe(SubscriberId id) {
  if (id == 0 || id > subscribers_.size()) return;
  subscribers_[id - 1].cb = nullptr;
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
  rib_.withdraw(prefix, now);
  if (withdrawsMetric_ != nullptr) withdrawsMetric_->inc();
  BgpUpdate update{UpdateKind::Withdraw, prefix, origin, now, now, 0, 0};
  stampTrace(update, now);
  publish(update);
}

void BgpFeed::publish(const BgpUpdate& update) {
  const auto index = static_cast<std::uint32_t>(published_.size());
  published_.push_back(update);
  std::uint32_t run;
  if (!freeRuns_.empty()) {
    run = freeRuns_.back();
    freeRuns_.pop_back();
  } else {
    run = static_cast<std::uint32_t>(runs_.size());
    runs_.emplace_back();
  }
  Run& r = runs_[run];
  r.update = index;
  r.next = 0;
  r.pending.clear();
  const sim::SimTime now = engine_.now();
  for (std::size_t sub = 0; sub < subscribers_.size(); ++sub) {
    Subscriber& s = subscribers_[sub];
    if (!s.cb) continue; // unsubscribed: no lag drawn, nothing scheduled
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
    r.pending.push_back(
        Delivery{now + delay, static_cast<std::uint32_t>(sub),
                 static_cast<std::uint32_t>(r.pending.size())});
  }
  if (r.pending.empty()) {
    freeRuns_.push_back(run);
    return;
  }
  // The seqs one schedule() per kept delivery, in id order, would draw.
  r.firstSeq = engine_.reserveSeqs(r.pending.size());
  std::sort(r.pending.begin(), r.pending.end(),
            [](const Delivery& a, const Delivery& b) {
              return a.ts != b.ts ? a.ts < b.ts : a.rank < b.rank;
            });
  scheduleHead(run);
}

void BgpFeed::scheduleHead(std::uint32_t run) {
  const Run& r = runs_[run];
  const Delivery& head = r.pending[r.next];
  engine_.scheduleReserved(head.ts, r.firstSeq + head.rank,
                           [this, run]() { fireHead(run); });
}

void BgpFeed::fireHead(std::uint32_t run) {
  Run& r = runs_[run];
  const Delivery due = r.pending[r.next++];
  const std::uint32_t update = r.update;
  // The successor's key sorts after this one's, so pushing it now keeps
  // the engine's minimum the global minimum.
  if (r.next < r.pending.size()) {
    scheduleHead(run);
  } else {
    freeRuns_.push_back(run);
  }
  // `r` may dangle from here on: the callback may publish.
  deliver(due.sub, update, due.ts);
}

void BgpFeed::deliver(std::size_t sub, std::size_t update, sim::SimTime ts) {
  const Subscriber& s = subscribers_[sub];
  if (!s.cb) return; // unsubscribed after the update was published
  // A copy, not a reference into published_: the callback may publish,
  // which can reallocate the log.
  BgpUpdate delivered = published_[update];
  delivered.ts = ts;
  s.cb(delivered);
}

} // namespace v6t::bgp
