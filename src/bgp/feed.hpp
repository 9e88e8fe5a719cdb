// v6t::bgp — BGP update propagation.
//
// The experiment's announcements do not become visible everywhere at once:
// route propagation through the DFZ takes seconds to minutes, and scanners
// that consume route collectors (RIS/RouteViews style) see updates with an
// additional collection lag of minutes to hours. BgpFeed models both: the
// origin RIB is updated immediately, and each subscriber receives the
// update after its own convergence delay.
//
// Fan-out (DESIGN.md §11): every subscriber gets one delivery per update.
// publish() draws each subscriber's lag in id order and schedules one
// engine event per delivery, so deliveries due at one instant fire in id
// order. The update is stored once and each event carries its index;
// subscribers sit in reference-stable storage indexed by id − 1, so a
// delivery is an index, not a search. A subscriber may say up front which
// deliveries would change nothing for it (subscribe's `ignores`);
// publish() still draws their lags but schedules nothing for them.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/update.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace v6t::bgp {

/// How quickly a subscriber learns about routing changes.
struct PropagationModel {
  sim::Duration base = sim::seconds(30); // minimum propagation time
  sim::Duration jitter = sim::minutes(10); // uniform extra lag

  [[nodiscard]] sim::Duration sample(sim::Rng& rng) const {
    const auto extra = static_cast<std::int64_t>(
        rng.uniform() * static_cast<double>(jitter.millis()));
    return base + sim::millis(extra);
  }
};

class BgpFeed {
public:
  using SubscriberId = std::uint64_t;
  using Callback = std::function<void(const BgpUpdate&)>;
  /// Whether the subscriber ignores updates of a prefix (see subscribe).
  using Ignores = std::function<bool(const net::Prefix&)>;

  BgpFeed(sim::Engine& engine, Rib& rib, std::uint64_t seed)
      : engine_(engine), rib_(rib), seed_(seed) {}

  /// Register a consumer; `model` determines its visibility lag. The lag of
  /// every delivered update is drawn from a private RNG stream derived from
  /// (feed seed, streamKey): a consumer with a stable key sees the same lag
  /// sequence regardless of which other consumers exist. This is the
  /// invariant the sharded experiment runner builds on — a scanner keyed by
  /// its id behaves identically whether it shares the feed with the whole
  /// population or with a 1/N shard of it.
  ///
  /// `ignores` (optional) is asked once per update at publish. Contract:
  /// it is monotone — once true for a prefix, true for it forever — and
  /// true only when delivering an update of that prefix would change
  /// nothing, not even a trace record (so a subscriber whose tracer
  /// records passes none). A true answer leaves that delivery out of the
  /// engine: its lag is still drawn, observed and counted in
  /// deliveries_total, and deliveries_skipped_total counts it. Every other
  /// event keeps its order. Whatever the callback does to the predicate's
  /// state takes effect at the next publish.
  SubscriberId subscribe(PropagationModel model, std::uint64_t streamKey,
                         Callback cb, Ignores ignores = nullptr);

  /// Convenience for consumers without a natural stable key (tests, ad-hoc
  /// probes): keys off the subscription counter. Not shard-invariant.
  SubscriberId subscribe(PropagationModel model, Callback cb);

  /// Announce at the origin: the RIB changes now; subscribers are notified
  /// after their sampled propagation delay.
  void announce(const net::Prefix& prefix, net::Asn origin);
  void withdraw(const net::Prefix& prefix);

  [[nodiscard]] const Rib& rib() const { return rib_; }

  /// Attach run-time metrics: update counters plus a histogram of the
  /// per-subscriber convergence delays the propagation model samples.
  /// Purely observational — the sampled delays are recorded, not altered —
  /// so binding (or not) cannot change simulation behavior. The registry
  /// must outlive the feed.
  void bindMetrics(obs::Registry& registry);

  /// Attach the flight recorder: every update gets a deterministic trace ID
  /// stamped (a pure function of seed and sequence number — stamping happens
  /// whether or not recording is enabled, so traced and untraced runs follow
  /// identical code paths), and the control-plane-owning tracer records one
  /// BgpUpdateRoot per update. The tracer must outlive the feed.
  void bindTrace(obs::trace::Tracer* tracer) { tracer_ = tracer; }

private:
  struct Subscriber {
    PropagationModel model;
    Callback cb;
    sim::Rng rng; // private lag stream, derived from (seed_, streamKey)
    Ignores ignores; // may be empty: every delivery is made
  };

  void publish(const BgpUpdate& update);
  /// Hand published update `update` to subscriber `sub`, stamped with its
  /// visibility time.
  void deliver(std::size_t sub, std::size_t update, sim::SimTime ts);
  /// Assign seq/originTs/traceId and record the trace root.
  void stampTrace(BgpUpdate& update, sim::SimTime now);

  sim::Engine& engine_;
  Rib& rib_;
  std::uint64_t seed_;
  std::uint64_t updateSeq_ = 0;
  obs::trace::Tracer* tracer_ = nullptr;
  obs::Counter* announcesMetric_ = nullptr;
  obs::Counter* withdrawsMetric_ = nullptr;
  obs::Counter* deliveriesMetric_ = nullptr;
  obs::Counter* skippedMetric_ = nullptr;
  obs::Histogram* delayMetric_ = nullptr;
  // Subscriber id − 1 indexes this. A deque never moves its elements on
  // push_back, so a callback that subscribes someone else keeps running
  // from where it lives. Notification goes in id order: each lag comes
  // from the subscriber's own stream, so the order only sequences
  // same-instant deliveries — but it must be deterministic.
  std::deque<Subscriber> subscribers_;
  std::vector<BgpUpdate> published_; // every update, once, in publish order
};

} // namespace v6t::bgp
