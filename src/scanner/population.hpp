// v6t::scanner — the calibrated scanner ecosystem (DESIGN.md §6).
//
// PopulationBuilder assembles every scanner class the paper observes into
// one agent population:
//
//   * RIPE-Atlas-style one-off probes (55% of T1 sources; always ::1)
//   * a commercial research scanner farm (Alpha-Strike-like: many sources,
//     one hosting AS, single-prefix structured scans)
//   * BGP-aware size-independent periodic/intermittent scanners carrying
//     the public tool fingerprints of Table 7 (Yarrp6, CAIDA Ark, 6Scan,
//     6Seeks, Htrace6, classic traceroute)
//   * live BGP monitors (react < 30 min, §7.2)
//   * inconsistent high-rate scanners (few sources, ~half of all sessions)
//   * size-dependent coarse scanners (skip small prefixes)
//   * DNS-attractor chasers and /64 source rotators (T2's signature crowd)
//   * static-list scanners of long-announced space (T2)
//   * sub-prefix sweepers and responsive explorers (how T3 stays near-dark
//     while T4 accumulates two orders of magnitude more)
//   * heavy hitters (10 sources, ~73% of packets, incl. a DNS megaspeaker
//     and 6Sense-style research campaigns)
//
// Counts and volumes follow the paper's marginals, multiplied by
// `sourceScale` / `volumeScale` so a full 44-week run fits in seconds.
#pragma once

#include <memory>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/hitlist.hpp"
#include "net/asn.hpp"
#include "scanner/scanner.hpp"
#include "sim/engine.hpp"
#include "telescope/fabric.hpp"

namespace v6t::scanner {

struct PopulationParams {
  std::uint64_t seed = 42;
  /// Multiplier on agent counts (1.0 = the paper's source population).
  double sourceScale = 0.25;
  /// Multiplier on the packet volume of high-volume classes (heavy
  /// hitters, large topology sessions). T3/T4-grade trickle traffic is
  /// never scaled — it is already tiny.
  double volumeScale = 0.02;

  // Experiment context (addresses of the observable world).
  net::Prefix t1Base; // the /32 under BGP control
  net::Prefix t2Prefix; // the long-announced /48
  net::Ipv6Address t2Attractor; // the DNS-named address in T2
  net::Prefix t3Prefix; // silent /48 within the covering prefix
  net::Prefix t4Prefix; // reactive /48 within the covering prefix
  net::Prefix coveringPrefix; // the /29 announced by a third party

  sim::SimTime start; // first telescope goes live
  sim::SimTime end; // end of measurement
};

/// The population before any agent exists: every scanner's full config
/// plus the world metadata (AS universe, rDNS names). A plan is computed
/// once — the builder's RNG draw sequence defines the population — and can
/// then be materialized whole into one engine or split across shard
/// engines, with every shard seeing identical configs for its subset.
struct PopulationPlan {
  std::vector<ScannerConfig> specs;
  net::AsRegistry asRegistry;
  net::RdnsRegistry rdns;

  [[nodiscard]] std::size_t size() const { return specs.size(); }
};

struct Population {
  std::vector<std::unique_ptr<Scanner>> scanners;
  net::AsRegistry asRegistry;
  net::RdnsRegistry rdns;

  /// Wire every agent to its knowledge channels (and, optionally, the
  /// owning shard's flight recorder). Call once.
  void startAll(bgp::BgpFeed* feed, bgp::HitlistService* hitlist,
                obs::trace::Tracer* tracer = nullptr) {
    for (auto& s : scanners) s->start(feed, hitlist, tracer);
  }

  [[nodiscard]] std::size_t size() const { return scanners.size(); }
};

/// Materialize (a shard of) a plan into `engine`/`fabric`. Spec `i` lands
/// in shard `i % shardCount`; the default 1/0 builds the whole population.
/// Registries are copied whole into every shard — they are read-only world
/// context, not per-agent state.
[[nodiscard]] Population instantiate(const PopulationPlan& plan,
                                     sim::Engine& engine,
                                     telescope::DeliveryFabric& fabric,
                                     unsigned shardCount = 1,
                                     unsigned shardId = 0);

class PopulationBuilder {
public:
  explicit PopulationBuilder(PopulationParams params)
      : params_(std::move(params)) {}

  /// Generate every scanner config. Deterministic in `params_` alone: no
  /// engine is involved, so every shard instantiates from one plan.
  [[nodiscard]] PopulationPlan plan();

private:
  struct AsSlot {
    net::Asn asn;
    net::Prefix space; // /32 the AS assigns sources from
    net::NetworkType type;
    bool research;
  };

  /// Generate the AS universe with Table 8's type mix.
  void buildAsUniverse(PopulationPlan& plan);
  [[nodiscard]] const AsSlot& pickAs(net::NetworkType type);
  [[nodiscard]] net::Prefix allocateSourceNet(const AsSlot& slot);

  [[nodiscard]] std::uint64_t scaledCount(double paperCount) const;

  void addAtlasProbes(PopulationPlan& plan);
  void addResearchFarm(PopulationPlan& plan);
  void addSizeIndependentScanners(PopulationPlan& plan);
  void addLiveBgpMonitors(PopulationPlan& plan);
  void addInconsistentScanners(PopulationPlan& plan);
  void addSizeDependentScanners(PopulationPlan& plan);
  void addDnsAttractorScanners(PopulationPlan& plan);
  void addStaticListScanners(PopulationPlan& plan);
  void addSweepersAndExplorers(PopulationPlan& plan);
  void addHeavyHitters(PopulationPlan& plan);

  ScannerConfig baseConfig();

  PopulationParams params_;
  sim::Rng rng_{0};
  std::vector<AsSlot> asSlots_;
  std::uint64_t nextScannerId_ = 1;
  std::uint64_t nextSourceNet_ = 1;
};

} // namespace v6t::scanner
