#include "bgp/hitlist.hpp"

namespace v6t::bgp {

namespace {
/// Stable feed-stream key of the hitlist service, outside the scanner-id
/// range so runs at every shard count draw identical collection lags.
constexpr std::uint64_t kHitlistStreamKey = 0x484954'4c495354ULL; // "HITLIST"
} // namespace

HitlistService::HitlistService(sim::Engine& engine, BgpFeed& feed,
                               Params params, std::uint64_t seed)
    : engine_(engine), params_(params), rng_(seed) {
  feed.subscribe(PropagationModel{sim::minutes(5), sim::minutes(30)},
                 kHitlistStreamKey,
                 [this](const BgpUpdate& u) { handleUpdate(u); });
}

void HitlistService::handleUpdate(const BgpUpdate& update) {
  if (update.kind != UpdateKind::Announce) return;
  if (listed_.contains(update.prefix)) return; // re-announcement: keep entry
  const auto extra = static_cast<std::int64_t>(
      rng_.uniform() * static_cast<double>(params_.jitter.millis()));
  const sim::Duration delay = params_.listingDelay + sim::millis(extra);
  const net::Prefix prefix = update.prefix;
  engine_.scheduleAfter(delay, [this, prefix]() {
    const sim::SimTime now = engine_.now();
    if (listed_.contains(prefix)) return;
    listed_.emplace(prefix, now);
    for (const auto& cb : consumers_) cb(prefix, now);
  });
}

} // namespace v6t::bgp
