#include "scanner/scanner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace v6t::scanner {

namespace {

/// Margin added on top of the sessionization timeout between two sessions
/// of the same scanner, so generated sessions can never merge.
constexpr sim::Duration kSessionGap = sim::minutes(70);

} // namespace

std::string_view toClassName(Knowledge k) {
  switch (k) {
    case Knowledge::BgpReactive: return "bgp_reactive";
    case Knowledge::LiveBgpMonitor: return "live_monitor";
    case Knowledge::HitlistDriven: return "hitlist";
    case Knowledge::DnsAttractor: return "dns_attractor";
    case Knowledge::StaticList: return "static_list";
    case Knowledge::SubprefixSweeper: return "subprefix_sweeper";
    case Knowledge::ResponsiveExplorer: return "responsive_explorer";
  }
  return "unknown";
}

Scanner::Scanner(ScannerConfig config, sim::Engine& engine,
                 telescope::DeliveryFabric& fabric)
    : config_(std::move(config)),
      engine_(engine),
      fabric_(fabric),
      rng_(config_.seed),
      nextFree_(config_.activeFrom) {
  rotateSource();
  // The source network is globally routed — register it so telescopes can
  // attribute the origin AS (public routing data, not ground truth).
  fabric_.registerSourceRoute(config_.sourceNet, config_.asn);
}

net::Ipv6Address Scanner::deriveSource(const ScannerConfig& config,
                                       sim::Rng& rng,
                                       const net::Ipv6Address& current) {
  if (config.rotateSourceIid) {
    return net::Ipv6Address{config.sourceNet.address().hi64(), rng.next()};
  }
  if (current == net::Ipv6Address{}) {
    // Stable source: a plausible host address inside the /64.
    return net::Ipv6Address{config.sourceNet.address().hi64(),
                            0x1ULL + rng.below(0xffff)};
  }
  return current;
}

net::Ipv6Address Scanner::initialSourceFor(const ScannerConfig& config) {
  sim::Rng rng{config.seed};
  return deriveSource(config, rng, net::Ipv6Address{});
}

void Scanner::rotateSource() { source_ = deriveSource(config_, rng_, source_); }

void Scanner::start(bgp::BgpFeed* feed, bgp::HitlistService* hitlist,
                    obs::trace::Tracer* tracer) {
  tracer_ = tracer;
  switch (config_.knowledge) {
    case Knowledge::BgpReactive:
    case Knowledge::LiveBgpMonitor:
      if (feed != nullptr) {
        // The agent comes online at activeFrom: it bootstraps from a full
        // table dump (in announcement order, oldest first, so known_
        // keeps recency order — announcement chasers rely on it) and only
        // then starts consuming deltas.
        const sim::SimTime when =
            std::max(engine_.now(), config_.activeFrom);
        engine_.schedule(when, [this, feed]() {
          auto routes = feed->rib().announcedRoutes();
          std::stable_sort(routes.begin(), routes.end(),
                           [](const auto& a, const auto& b) {
                             return a.second.announcedAt <
                                    b.second.announcedAt;
                           });
          for (const auto& [p, entry] : routes) learnPrefix(p);
          // An update of an ignored prefix changes nothing here: ignored_
          // only grows, and its prefixes never enter known_ or
          // causeByPrefix_. So the feed may leave such deliveries out —
          // unless the tracer records each one (FeedDelivery).
          bgp::BgpFeed::Ignores ignores;
          if (tracer_ == nullptr || !tracer_->enabled()) {
            ignores = [this](const net::Prefix& p) {
              return ignored_.contains(p);
            };
          }
          // Keyed by the scanner id: the lag stream survives population
          // sharding (see BgpFeed::subscribe).
          feed->subscribe(config_.reaction, config_.id,
                          [this](const bgp::BgpUpdate& u) {
                            const bool isAnnounce =
                                u.kind == bgp::UpdateKind::Announce;
                            if (tracer_ != nullptr) {
                              tracer_->record(
                                  {u.ts.millis(), u.traceId, u.seq,
                                   isAnnounce ? 1u : 0u,
                                   static_cast<std::uint32_t>(config_.id),
                                   obs::trace::EventKind::FeedDelivery,
                                   obs::trace::ClockDomain::Sim});
                            }
                            // The cause rides along only for the duration
                            // of the synchronous learn call.
                            pendingCause_ = {u.traceId, u.originTs.millis()};
                            if (isAnnounce) {
                              learnPrefix(u.prefix);
                            } else {
                              forgetPrefix(u.prefix);
                            }
                            pendingCause_ = Cause{};
                          },
                          std::move(ignores));
        });
      }
      break;
    case Knowledge::HitlistDriven:
      if (hitlist != nullptr) {
        hitlist->onListed(
            [this](const net::Prefix& p, sim::SimTime) { learnPrefix(p); });
      }
      break;
    case Knowledge::DnsAttractor:
    case Knowledge::StaticList:
    case Knowledge::SubprefixSweeper:
    case Knowledge::ResponsiveExplorer:
      known_ = config_.staticPrefixes;
      if (!known_.empty() || config_.fixedTarget) ensureScheduled();
      break;
  }
}

void Scanner::learnPrefix(const net::Prefix& prefix) {
  if (engine_.now() > config_.activeUntil) return;
  if (ignored_.contains(prefix)) return;
  if (std::find(known_.begin(), known_.end(), prefix) != known_.end()) return;
  if (config_.prefixInterest < 1.0 && !rng_.chance(config_.prefixInterest)) {
    ignored_.insert(prefix);
    return;
  }
  known_.push_back(prefix);
  ++stats_.prefixesLearned;
  if (pendingCause_.traceId != 0) {
    causeByPrefix_[prefix] = pendingCause_;
    if (tracer_ != nullptr) {
      tracer_->record({engine_.now().millis(), pendingCause_.traceId,
                       prefix.address().hi64(), prefix.length(),
                       static_cast<std::uint32_t>(config_.id),
                       obs::trace::EventKind::PrefixLearned,
                       obs::trace::ClockDomain::Sim});
    }
  }
  // A one-off scanner that already fired stays quiet forever.
  if (config_.temporal == TemporalBehavior::OneOff && anySweepDone_) return;
  if (config_.sweepOnLearn) {
    // Live BGP monitors show up within half an hour of the announcement —
    // independent of any regular sweep already on the calendar. One
    // trigger per announcement burst.
    if (!learnSweepPending_) {
      learnSweepPending_ = true;
      const auto delay = sim::minutes(
          static_cast<std::int64_t>(1 + rng_.uniform() * 6.0));
      engine_.scheduleAfter(delay, [this]() {
        learnSweepPending_ = false;
        runSweep();
      });
    }
    return;
  }
  ensureScheduled();
}

void Scanner::forgetPrefix(const net::Prefix& prefix) {
  known_.erase(std::remove(known_.begin(), known_.end(), prefix),
               known_.end());
  causeByPrefix_.erase(prefix);
}

void Scanner::ensureScheduled() {
  if (sweepScheduled_) return;
  const sim::SimTime now = engine_.now();
  sim::SimTime when = std::max(now, config_.activeFrom);
  switch (config_.temporal) {
    case TemporalBehavior::OneOff:
      // Fires once, shortly after the trigger (knowledge acquisition).
      when = when + sim::minutes(static_cast<std::int64_t>(
                        rng_.uniform() * 240.0));
      break;
    case TemporalBehavior::Periodic: {
      // Deterministic phase within the period, then strict periodicity.
      const auto phase = static_cast<std::int64_t>(
          rng_.uniform() * static_cast<double>(config_.period.millis()));
      when = when + sim::millis(phase);
      break;
    }
    case TemporalBehavior::Intermittent: {
      const double meanGapDays = 7.0 / std::max(config_.sweepsPerWeek, 0.01);
      when = when + sim::millis(static_cast<std::int64_t>(
                        rng_.exponential(meanGapDays) * 86'400'000.0));
      break;
    }
  }
  sweepScheduled_ = true;
  engine_.schedule(when, [this]() {
    sweepScheduled_ = false;
    runSweep();
  });
}

void Scanner::scheduleNextSweep(sim::SimTime notBefore) {
  if (sweepScheduled_) return;
  if (notBefore > config_.activeUntil) return;
  sweepScheduled_ = true;
  engine_.schedule(notBefore, [this]() {
    sweepScheduled_ = false;
    runSweep();
  });
}

void Scanner::runSweep() {
  const sim::SimTime now = engine_.now();
  if (now > config_.activeUntil) return;
  anySweepDone_ = true;
  ++sweepCount_;

  if (config_.fixedTarget) {
    for (int s = 0; s < std::max(config_.sessionsPerSweep, 1); ++s) {
      enqueueSession(net::Prefix{*config_.fixedTarget, 128});
    }
  } else if (config_.knowledge == Knowledge::SubprefixSweeper ||
             config_.knowledge == Knowledge::ResponsiveExplorer) {
    // Importance-sampled systematic walk: per sweep, the iteration reaches
    // each observable sub-prefix with `hitProbability` (the full walk over
    // all 2^k sub-prefixes is not simulated — only its observable slice).
    for (const net::Prefix& p : known_) {
      if (rng_.chance(config_.hitProbability)) enqueueSession(p);
    }
  } else if (!known_.empty()) {
    switch (config_.netsel) {
      case NetSelStrategy::SinglePrefix: {
        // An arbitrary known prefix (or the newest, for announcement
        // chasers); the pick may vary between sweeps.
        enqueueSession(config_.preferNewest
                           ? known_.back()
                           : known_[rng_.below(known_.size())]);
        break;
      }
      case NetSelStrategy::SizeIndependent: {
        // Most recently learned prefixes first: fresh announcements are
        // what BGP-reactive scanners came for, and the serialization gap
        // would otherwise delay them behind long-known space.
        for (auto it = known_.rbegin(); it != known_.rend(); ++it) {
          enqueueSession(*it);
        }
        break;
      }
      case NetSelStrategy::SizeDependent: {
        // Coarse-grained scanning: the chance of a probe landing in a
        // prefix is proportional to its size, so expected sessions halve
        // with every extra prefix bit. A /48-only telescope never sees
        // these scanners (§7.1).
        unsigned maxHostBits = 0;
        for (const net::Prefix& p : known_) {
          maxHostBits = std::max(maxHostBits, p.hostBits());
        }
        for (const net::Prefix& p : known_) {
          const auto deficit =
              static_cast<double>(maxHostBits - p.hostBits());
          // Compressed exponent: strictly proportional coverage across a
          // /29../48 span (2^19) would never touch small prefixes at all;
          // real coarse scanners are size-*sensitive*, not strictly
          // proportional.
          const double expected = 4.0 * std::pow(2.0, -deficit / 3.0);
          auto sessions = static_cast<unsigned>(expected);
          if (rng_.chance(expected - sessions)) ++sessions;
          for (unsigned s = 0; s < sessions; ++s) enqueueSession(p);
        }
        break;
      }
      case NetSelStrategy::Inconsistent: {
        // Early in its life the scanner prefers the larger prefixes; later
        // it converges to uniform coverage (§7.1). The switch sits a bit
        // before the lifetime midpoint so both phases cover several
        // announcement cycles.
        const sim::SimTime midpoint =
            config_.activeFrom +
            (config_.activeUntil - config_.activeFrom) * 3 / 5;
        if (now < midpoint) {
          // The three largest known prefixes, two sessions each.
          std::vector<net::Prefix> byLength = known_;
          std::sort(byLength.begin(), byLength.end(),
                    [](const net::Prefix& a, const net::Prefix& b) {
                      return a.length() < b.length();
                    });
          for (std::size_t i = 0; i < byLength.size() && i < 3; ++i) {
            enqueueSession(byLength[i]);
            enqueueSession(byLength[i]);
          }
        } else {
          for (const net::Prefix& p : known_) enqueueSession(p);
        }
        break;
      }
    }
  }

  // Sweepers / explorers: importance-sampled walk over the sub-prefixes of
  // their covering space (see header) — handled via staticPrefixes above
  // (their known_ contains exactly the observable sub-prefixes).

  // Schedule the next sweep per temporal model.
  switch (config_.temporal) {
    case TemporalBehavior::OneOff:
      break; // done forever
    case TemporalBehavior::Periodic: {
      scheduleNextSweep(now + config_.period);
      break;
    }
    case TemporalBehavior::Intermittent: {
      const double meanGapDays = 7.0 / std::max(config_.sweepsPerWeek, 0.01);
      const auto gap = static_cast<std::int64_t>(
          rng_.exponential(meanGapDays) * 86'400'000.0);
      scheduleNextSweep(now + sim::millis(std::max<std::int64_t>(
                                  gap, kSessionGap.millis())));
      break;
    }
  }
}

void Scanner::scheduleDrill(const net::Prefix& hot) {
  const auto gap = static_cast<std::int64_t>(rng_.exponential(
      static_cast<double>(config_.drillInterval.millis())));
  const sim::SimTime when =
      engine_.now() + sim::millis(std::max<std::int64_t>(gap, 3'600'000));
  if (when > config_.activeUntil) return;
  engine_.schedule(when, [this, hot]() {
    if (engine_.now() > config_.activeUntil) return;
    enqueueSession(hot);
    scheduleDrill(hot);
  });
}

std::uint64_t Scanner::sessionSize() {
  const double raw = rng_.lognormal(std::log(config_.packetsPerSessionMean),
                                    config_.packetsPerSessionSigma);
  const auto n = static_cast<std::uint64_t>(raw + 0.5);
  return std::clamp<std::uint64_t>(n, 1, config_.packetsPerSessionCap);
}

void Scanner::enqueueSession(const net::Prefix& prefix) {
  // Consume the causal link: the first session into a freshly learned
  // prefix is the scanner's reaction to the BGP update; later sweeps of
  // the same prefix are routine coverage, not reactions.
  Cause cause;
  if (const auto it = causeByPrefix_.find(prefix);
      it != causeByPrefix_.end()) {
    cause = it->second;
    causeByPrefix_.erase(it);
  }
  if (config_.rotateSourceIid) {
    // Rotating sources appear as distinct /128s, so their sessions may
    // overlap in time — that is exactly how T2's /128 session counts pull
    // away from the /64 aggregation (Fig. 4).
    const auto spread = static_cast<std::int64_t>(rng_.uniform() * 1.08e7);
    emitSession(prefix, engine_.now() + sim::millis(spread), cause);
    return;
  }
  // Serialize sessions of this scanner with a super-timeout gap.
  const sim::SimTime start = std::max(engine_.now(), nextFree_);
  // Reserve the slot pessimistically; the actual end updates nextFree_
  // again when the last packet goes out.
  nextFree_ = start + kSessionGap;
  emitSession(prefix, start, cause);
}

struct Scanner::SessionState {
  TargetGenerator gen;
  std::uint64_t remaining;
  net::Ipv6Address src;
  Cause cause;
  bool reactionPending = false;
};

void Scanner::emitSession(const net::Prefix& prefix, sim::SimTime start,
                          const Cause& cause) {
  rotateSource();
  ++stats_.sessionsEmitted;

  // Sweepers always probe shallowly; explorers probe shallowly until a
  // subnet answers, then drill with full-size sessions.
  std::uint64_t size = sessionSize();
  if (config_.knowledge == Knowledge::SubprefixSweeper ||
      (config_.knowledge == Knowledge::ResponsiveExplorer &&
       !responsive_.contains(prefix))) {
    size = std::max<std::uint64_t>(config_.exploreProbePackets, 1);
  }

  auto state = std::make_shared<SessionState>(
      SessionState{TargetGenerator{config_.addrsel, prefix, rng_}, size,
                   source_, cause, cause.traceId != 0});
  if (tracer_ != nullptr) {
    tracer_->record({start.millis(), cause.traceId,
                     prefix.address().hi64(), size,
                     static_cast<std::uint32_t>(config_.id),
                     obs::trace::EventKind::SessionScheduled,
                     obs::trace::ClockDomain::Sim});
  }
  // Emit as a chain of events: O(1) pending events per active session.
  engine_.schedule(start, [this, state]() { sessionStep(state); });
}

void Scanner::sessionStep(const std::shared_ptr<SessionState>& state) {
  if (state->remaining == 0) return;
  // A step whose successor is the engine's very next event runs it in
  // place.
  for (;;) {
    sendProbe(*state);
    if (state->remaining == 0) {
      // Session complete: release the serialization slot after the
      // sessionization timeout.
      nextFree_ = std::max(nextFree_, engine_.now() + kSessionGap);
      return;
    }
    const auto gap = static_cast<std::int64_t>(rng_.exponential(
        static_cast<double>(config_.interPacketMean.millis())));
    const sim::SimTime next =
        engine_.now() + sim::millis(std::max<std::int64_t>(gap, 1));
    if (!engine_.continueInline(next)) {
      engine_.schedule(next, [this, state]() { sessionStep(state); });
      return;
    }
  }
}

void Scanner::sendProbe(SessionState& state) {
  --state.remaining;
  net::Ipv6Address dst = config_.fixedTarget ? *config_.fixedTarget
                                             : state.gen.next();
  net::Packet p = makePacket(dst);
  p.src = state.src;
  const std::uint64_t originSeq = p.originSeq;
  const sim::SimTime now = engine_.now();
  if (tracer_ != nullptr) {
    tracer_->record({now.millis(), state.cause.traceId, originSeq,
                     dst.hi64(), static_cast<std::uint32_t>(config_.id),
                     obs::trace::EventKind::PacketSent,
                     obs::trace::ClockDomain::Sim});
    // Delivery is synchronous: the telescope's capture hook reads this
    // context slot to link (originId, originSeq) back to the update.
    tracer_->setContext({state.cause.traceId, state.cause.originTsMillis});
  }
  const telescope::DeliveryResult result = fabric_.send(std::move(p));
  if (tracer_ != nullptr) tracer_->clearContext();
  ++stats_.packetsEmitted;
  if (state.reactionPending && result.captured) {
    // First captured probe of an update-caused session: the paper's
    // reactivity observable (announcement -> first probe at the telescope).
    state.reactionPending = false;
    const std::int64_t delayMillis = now.millis() - state.cause.originTsMillis;
    if (tracer_ != nullptr) {
      tracer_->observeReaction(static_cast<std::size_t>(config_.knowledge),
                               toClassName(config_.knowledge),
                               static_cast<double>(delayMillis) / 1000.0);
      tracer_->record({now.millis(), state.cause.traceId,
                       static_cast<std::uint64_t>(delayMillis), originSeq,
                       static_cast<std::uint32_t>(config_.id),
                       obs::trace::EventKind::ReactionObserved,
                       obs::trace::ClockDomain::Sim});
    }
  }
  if (result.responded) {
    ++stats_.responsesSeen;
    if (config_.knowledge == Knowledge::ResponsiveExplorer) {
      const net::Prefix hot{state.gen.prefix().address(),
                            state.gen.prefix().length()};
      if (!responsive_.contains(hot)) {
        responsive_.insert(hot);
        scheduleDrill(hot); // dynamic-TGA: keep digging where it answers
      }
    }
  }
}

net::Packet Scanner::makePacket(const net::Ipv6Address& dst) {
  net::Packet p;
  p.dst = dst;
  // Origin tag: (scanner, emission index) is unique and independent of how
  // the population is sharded — the key the parallel runner's capture merge
  // orders by.
  p.originId = static_cast<std::uint32_t>(config_.id);
  p.originSeq = stats_.packetsEmitted;
  if (config_.tracerouteHops) {
    // Cycle outward through the path: 1, 2, 3, ... up to 24 hops.
    p.hopLimit = static_cast<std::uint8_t>(1 + stats_.packetsEmitted % 24);
  } else {
    p.hopLimit = static_cast<std::uint8_t>(40 + rng_.below(25));
  }

  const double weights[3] = {config_.protocol.icmpWeight,
                             config_.protocol.tcpWeight,
                             config_.protocol.udpWeight};
  const std::size_t pick = rng_.weightedPick(weights);
  switch (pick) {
    case 1: {
      p.proto = net::Protocol::Tcp;
      p.srcPort = static_cast<std::uint16_t>(32768 + rng_.below(28000));
      const std::size_t portIdx =
          rng_.weightedPick(config_.protocol.tcpPortWeights);
      p.dstPort = portIdx < config_.protocol.tcpPorts.size()
                      ? config_.protocol.tcpPorts[portIdx]
                      : net::kPortHttp;
      break;
    }
    case 2: {
      p.proto = net::Protocol::Udp;
      p.srcPort = static_cast<std::uint16_t>(32768 + rng_.below(28000));
      if (config_.protocol.udpTracerouteRange ||
          config_.protocol.udpPorts.empty()) {
        p.dstPort = static_cast<std::uint16_t>(
            net::kTracerouteLo +
            rng_.below(net::kTracerouteHi - net::kTracerouteLo + 1));
      } else {
        const std::size_t portIdx =
            rng_.weightedPick(config_.protocol.udpPortWeights);
        p.dstPort = portIdx < config_.protocol.udpPorts.size()
                        ? config_.protocol.udpPorts[portIdx]
                        : net::kPortDns;
      }
      break;
    }
    default: {
      p.proto = net::Protocol::Icmpv6;
      p.icmpType = net::kIcmpEchoRequest;
      break;
    }
  }

  if (config_.payloadProbability > 0.0 &&
      rng_.chance(config_.payloadProbability)) {
    if (config_.tool != net::ScanTool::Unknown) {
      for (const net::ToolSignature& sig : net::kToolSignatures) {
        if (sig.tool != config_.tool) continue;
        p.payload.assign(sig.magic.begin(),
                         sig.magic.begin() +
                             static_cast<std::ptrdiff_t>(sig.magicLen));
        break;
      }
      // Tool-specific trailer: mostly constant, two counter bytes — keeps
      // payloads of one tool dense in feature space so DBSCAN groups them.
      p.payload.push_back(0x00);
      p.payload.push_back(0x2a);
      p.payload.push_back(static_cast<std::uint8_t>(stats_.packetsEmitted));
      p.payload.push_back(
          static_cast<std::uint8_t>(stats_.packetsEmitted >> 8));
      while (p.payload.size() < 12) p.payload.push_back(0x00);
    } else {
      // Unattributable random payload.
      for (int i = 0; i < 12; ++i) {
        p.payload.push_back(static_cast<std::uint8_t>(rng_.below(256)));
      }
    }
  }
  return p;
}

} // namespace v6t::scanner
