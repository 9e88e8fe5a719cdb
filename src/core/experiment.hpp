// v6t::core — the paper's experiment: its configuration and the four
// telescopes.
//
// ExperimentConfig describes one run end to end: the BGP control plane
// with the Fig. 2 split schedule, the four telescopes, the calibrated
// scanner population, and the run-time knobs (shards, analysis workers,
// capture spill, faults, tracing). core::ExperimentRunner (runner.hpp)
// executes it; afterwards its merged captures hold the dataset that every
// table/figure is computed from.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>

#include "analysis/parallel.hpp"
#include "fault/spec.hpp"
#include "net/asn.hpp"
#include "net/prefix.hpp"
#include "sim/time.hpp"
#include "telescope/telescope.hpp"

namespace v6t::core {

struct ExperimentConfig {
  std::uint64_t seed = 42;
  double sourceScale = 0.25;
  double volumeScale = 0.02;

  // Timeline (defaults reproduce the paper: 12-week baseline, 16 bi-weekly
  // splits with a one-day withdraw gap => 17 prefixes, /48 most specific).
  sim::Duration baseline = sim::weeks(12);
  sim::Duration cycle = sim::weeks(2);
  sim::Duration withdrawGap = sim::days(1);
  int splits = 16;

  // Address plan. 3fff::/20 is reserved for documentation (RFC 9637), so
  // like the paper's 2001:db8:: narrative these are stand-in prefixes.
  net::Prefix t1Base = net::Prefix::mustParse("3fff:100::/32");
  net::Prefix t2Prefix = net::Prefix::mustParse("3fff:2::/48");
  net::Prefix t2Productive = net::Prefix::mustParse("3fff:2:0:ff00::/56");
  net::Ipv6Address t2Attractor =
      net::Ipv6Address::mustParse("3fff:2:0:5000::31");
  net::Prefix covering = net::Prefix::mustParse("3fff:e00::/29");
  net::Prefix t3Prefix = net::Prefix::mustParse("3fff:e03:3::/48");
  net::Prefix t4Prefix = net::Prefix::mustParse("3fff:e05:7::/48");

  net::Asn ourAsn{65010}; // origin of T1/T2
  net::Asn coveringAsn{65020}; // third party originating the /29

  /// When (relative to start) the route6 object for the stable /33 is
  /// created — four months in, per §3.2.
  sim::Duration routeObjectAt = sim::weeks(17);

  /// Stop the simulation early (e.g. after the baseline only); nullopt
  /// runs the complete schedule.
  std::optional<sim::Duration> runLimit;

  /// Worker shards of the ExperimentRunner, one thread each. Results are
  /// bitwise-identical for every value — see DESIGN.md's determinism
  /// contract.
  unsigned threads = 1;

  /// Worker threads for the post-run analysis pipeline (taxonomy, NIST
  /// battery, summary sessionization) — same bitwise-identical contract,
  /// see DESIGN.md §12. 0 = inherit `threads`.
  unsigned analysisThreads = 0;
  [[nodiscard]] unsigned effectiveAnalysisThreads() const {
    return analysisThreads != 0 ? analysisThreads : threads;
  }

  /// Cost threshold at which the analysis scheduler splits a heavy
  /// source/session into subtasks (DESIGN.md §13). Never changes results
  /// — only how the work is diced for the workers.
  std::uint64_t analysisMinSplitCost = analysis::kDefaultMinSplitCost;

  /// Out-of-core capture spill (DESIGN.md §15). When non-empty, the
  /// runner streams each shard's telescope captures into v6tseg
  /// segment stores under `<dir>/shard-<s>/<telescope>` at every epoch
  /// boundary instead of accumulating them in memory, and analysis runs
  /// the streaming windowed path over the merged segment cursors. Results
  /// are bitwise-identical to the in-memory path for every budget. The
  /// directory must not hold the segments of an earlier run.
  std::string captureSpillDir;
  /// Per-(shard, telescope) memtable byte budget before a segment is
  /// spilled; 0 = the SegmentStore default (64 MiB).
  std::uint64_t captureSpillBytes = 0;
  [[nodiscard]] bool captureSpillEnabled() const {
    return !captureSpillDir.empty();
  }

  /// Query-service knobs (`serve.*` keys, consumed by v6t_serve; the
  /// simulation itself ignores them). serveCacheBytes = 0 disables the
  /// result cache — the cache-off leg of bench/serve_load.
  std::uint16_t servePort = 8080;
  unsigned serveThreads = 2;
  std::uint64_t serveCacheBytes = 64ull << 20;
  unsigned serveCacheShards = 8;
  unsigned serveMaxConnections = 256;
  unsigned serveMaxRequestBytes = 8192;
  unsigned serveIdleTimeoutSeconds = 30;

  /// Fault-injection spec, applied by the ExperimentRunner at its three
  /// seams (control-plane script, fabric tap, epoch barrier). An empty
  /// spec leaves every output bitwise-identical to a build without the
  /// fault layer.
  fault::FaultSpec faults;
  /// Seed for the keyed fault streams — independent of `seed` so the same
  /// world can be replayed under different fault draws and vice versa.
  std::uint64_t faultSeed = 0xfa017;

  /// Flight-recorder event recording (obs::trace, DESIGN.md §14).
  /// Observation-only: a traced run's captures are bitwise-identical to an
  /// untraced run's. Reaction-delay metrics populate regardless.
  bool traceEnabled = false;
  /// Per-shard ring capacity (events retained for the post-mortem dump).
  std::size_t traceRingSize = 1 << 16;
  /// Retain every sim-domain event for --trace-out export (unbounded).
  bool traceRetainAll = false;
};

/// Indexes into the runner's captures (and makeTelescopes()).
enum TelescopeIndex : std::size_t { T1 = 0, T2 = 1, T3 = 2, T4 = 3 };

/// The four observation points of §3.1 for a given address plan. Every
/// shard of the runner builds its telescopes here, and tests use it to
/// check what a telescope owns.
[[nodiscard]] std::array<std::unique_ptr<telescope::Telescope>, 4>
makeTelescopes(const ExperimentConfig& config);

} // namespace v6t::core
