// v6t::scanner — the scanner agent.
//
// A Scanner is one localizable scan source: a /64 source network with
// either a stable /128 or per-session rotating interface IDs, an origin
// AS, a tool (payload fingerprint), and a strategy triple matching the
// paper's taxonomy — temporal behavior × network selection × address
// selection. Agents learn about target prefixes through a knowledge
// channel (BGP feed, hitlist, DNS, static configuration, or responsive
// exploration) and emit packets through the delivery fabric.
//
// Invariant: a scanner's consecutive sessions are separated by more than
// the sessionization timeout, so one generated session maps to one
// measured session — the calibration in DESIGN.md §6 depends on it.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/hitlist.hpp"
#include "net/tool_signatures.hpp"
#include "obs/trace.hpp"
#include "scanner/target_gen.hpp"
#include "sim/engine.hpp"
#include "telescope/fabric.hpp"

namespace v6t::scanner {

enum class TemporalBehavior : std::uint8_t { OneOff, Periodic, Intermittent };
enum class NetSelStrategy : std::uint8_t {
  SinglePrefix,
  SizeIndependent,
  SizeDependent,
  Inconsistent,
};

/// How the scanner learns what to scan.
enum class Knowledge : std::uint8_t {
  BgpReactive, // consumes the update feed (collector lag)
  LiveBgpMonitor, // consumes the feed in near real time (< 30 min, §7.2)
  HitlistDriven, // learns prefixes only when they get listed
  DnsAttractor, // knows a single named address from the start
  StaticList, // configured with fixed prefixes (long-announced space)
  SubprefixSweeper, // systematically iterates sub-prefixes of huge covering
                    // prefixes (how silent /48s inside a /29 get found)
  ResponsiveExplorer, // sweeps like the above but drills into subnets that
                      // answered (dynamic-TGA behavior)
};

/// Stable metric/trace label for a knowledge class (the per-class key of
/// bgp.reaction_delay_seconds.<class>).
[[nodiscard]] std::string_view toClassName(Knowledge k);

/// Per-packet protocol and port selection.
struct ProtocolProfile {
  double icmpWeight = 1.0;
  double tcpWeight = 0.0;
  double udpWeight = 0.0;
  /// Candidate TCP destination ports with weights (parallel arrays).
  std::vector<std::uint16_t> tcpPorts{net::kPortHttp};
  std::vector<double> tcpPortWeights{1.0};
  /// UDP: either the traceroute range or fixed ports.
  bool udpTracerouteRange = true;
  std::vector<std::uint16_t> udpPorts;
  std::vector<double> udpPortWeights;
};

struct ScannerConfig {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;

  // --- identity ---
  net::Prefix sourceNet; // the /64 the source lives in
  net::Asn asn;
  bool rotateSourceIid = false; // fresh IID per session (T2-style rotators)

  // --- tooling ---
  net::ScanTool tool = net::ScanTool::Unknown;
  double payloadProbability = 0.0; // share of packets carrying a payload
  /// Topology probing: cycle small incrementing hop limits (traceroute,
  /// Yarrp, Atlas) instead of an OS-default initial value.
  bool tracerouteHops = false;

  // --- temporal behavior ---
  TemporalBehavior temporal = TemporalBehavior::OneOff;
  sim::Duration period = sim::days(2); // Periodic
  double sweepsPerWeek = 1.0; // Intermittent (Poisson rate)
  sim::SimTime activeFrom; // agent comes online (default: epoch)
  /// Agent retires; defaults to "never".
  sim::SimTime activeUntil{std::numeric_limits<std::int64_t>::max()};

  // --- network selection ---
  NetSelStrategy netsel = NetSelStrategy::SinglePrefix;
  /// Probability that the scanner cares about a prefix it learns.
  double prefixInterest = 1.0;
  /// Sweep immediately on learning a new prefix (live BGP monitors, §7.2).
  bool sweepOnLearn = false;
  /// Single-prefix scanners: target the most recently learned prefix
  /// instead of an arbitrary one (burst campaigns chasing announcements).
  bool preferNewest = false;

  // --- address selection ---
  TargetStrategy addrsel = TargetStrategy::LowByte;

  // --- session shape ---
  /// Sessions emitted per sweep at a fixed target (rotating vertical
  /// scanners fire one session per source identity).
  int sessionsPerSweep = 1;
  double packetsPerSessionMean = 8.0; // lognormal mean (approx.)
  double packetsPerSessionSigma = 0.8;
  std::uint64_t packetsPerSessionCap = 200'000;
  sim::Duration interPacketMean = sim::seconds(2);

  // --- knowledge ---
  Knowledge knowledge = Knowledge::BgpReactive;
  bgp::PropagationModel reaction; // lag for feed-based knowledge
  std::vector<net::Prefix> staticPrefixes; // StaticList / sweepers
  std::optional<net::Ipv6Address> fixedTarget; // DnsAttractor
  /// For sweepers/explorers: the telescope sub-prefix length they iterate
  /// (e.g. 48 — walking every /48 of the covering prefix).
  unsigned sweepGranularity = 48;
  /// Sweepers/explorers: probability per sweep that the systematic walk
  /// reaches one of the observable sub-prefixes (importance sampling of a
  /// 2^19-subprefix iteration — see class comment).
  double hitProbability = 0.05;
  /// Explorers: packets per exploratory probe session (drill sessions use
  /// packetsPerSessionMean).
  std::uint64_t exploreProbePackets = 2;
  /// Explorers: mean gap between deep scans of a responsive subnet.
  sim::Duration drillInterval = sim::weeks(3);

  ProtocolProfile protocol;
};

/// Aggregate counters the generator keeps about itself (tests compare them
/// against estimator output; the analysis pipeline never reads them).
struct ScannerSelfStats {
  std::uint64_t sessionsEmitted = 0;
  std::uint64_t packetsEmitted = 0;
  std::uint64_t prefixesLearned = 0;
  std::uint64_t responsesSeen = 0;
};

class Scanner {
public:
  Scanner(ScannerConfig config, sim::Engine& engine,
          telescope::DeliveryFabric& fabric);

  Scanner(const Scanner&) = delete;
  Scanner& operator=(const Scanner&) = delete;

  /// Wire up knowledge channels and schedule the first activity.
  /// `feed`/`hitlist` may be nullptr when the knowledge mode doesn't need
  /// them; `tracer` (the owning shard's flight recorder, also nullable)
  /// makes probe emission causally attributable to the BGP update that
  /// triggered it. Call exactly once before the engine runs.
  void start(bgp::BgpFeed* feed, bgp::HitlistService* hitlist,
             obs::trace::Tracer* tracer = nullptr);

  [[nodiscard]] const ScannerConfig& config() const { return config_; }
  [[nodiscard]] const ScannerSelfStats& stats() const { return stats_; }

  /// The source address a freshly constructed Scanner would start with —
  /// computable from the config alone, so population planning can register
  /// rDNS names without instantiating agents.
  [[nodiscard]] static net::Ipv6Address initialSourceFor(
      const ScannerConfig& config);

private:
  [[nodiscard]] static net::Ipv6Address deriveSource(
      const ScannerConfig& config, sim::Rng& rng,
      const net::Ipv6Address& current);
  /// The BGP update a learned prefix traces back to; traceId 0 = causeless
  /// (bootstrap table dump, hitlist, static configuration).
  struct Cause {
    std::uint64_t traceId = 0;
    std::int64_t originTsMillis = 0;
  };
  void learnPrefix(const net::Prefix& prefix);
  void forgetPrefix(const net::Prefix& prefix);
  void ensureScheduled();
  void scheduleNextSweep(sim::SimTime notBefore);
  void runSweep();
  void scheduleDrill(const net::Prefix& hot);
  /// Queue one session into `prefix` (or at the fixed target).
  void enqueueSession(const net::Prefix& prefix);
  void emitSession(const net::Prefix& prefix, sim::SimTime start,
                   const Cause& cause);
  struct SessionState;
  /// Send the session's probes, one event each; a step whose successor
  /// is the engine's next event runs it in place (Engine::continueInline).
  void sessionStep(const std::shared_ptr<SessionState>& state);
  /// Send one probe of the session (one step's packet).
  void sendProbe(SessionState& state);
  net::Packet makePacket(const net::Ipv6Address& dst);
  void rotateSource();
  [[nodiscard]] std::uint64_t sessionSize();

  ScannerConfig config_;
  sim::Engine& engine_;
  telescope::DeliveryFabric& fabric_;
  sim::Rng rng_;
  net::Ipv6Address source_;
  std::vector<net::Prefix> known_; // learned target prefixes, learn order
  std::set<net::Prefix> ignored_; // learned but rolled "not interested"
  bool sweepScheduled_ = false;
  bool learnSweepPending_ = false; // sweep-on-learn trigger outstanding
  bool anySweepDone_ = false;
  int sweepCount_ = 0;
  /// Serialization point: next session may start no earlier than this.
  sim::SimTime nextFree_;
  ScannerSelfStats stats_;
  /// Explorer state: subnets that responded and deserve deep scans.
  std::set<net::Prefix> responsive_;
  /// Flight recorder (nullable). Cause bookkeeping below runs whether or
  /// not a tracer is attached, touches no RNG stream, and only feeds
  /// observation — so tracing cannot perturb the simulation.
  obs::trace::Tracer* tracer_ = nullptr;
  Cause pendingCause_; // set around the feed callback's learnPrefix
  std::map<net::Prefix, Cause> causeByPrefix_; // consumed by first session
};

} // namespace v6t::scanner
