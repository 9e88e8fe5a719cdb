#include "analysis/pipeline.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

namespace v6t::analysis {

namespace {

void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

void fnvDouble(std::uint64_t& h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  fnv1a(h, bits);
}

void fnv1a(std::uint64_t& h, const net::Ipv6Address& a) {
  fnv1a(h, a.hi64());
  fnv1a(h, a.lo64());
}

void fnv1a(std::uint64_t& h, const NistSummary& s) {
  fnvDouble(h, s.frequency.pValue);
  fnvDouble(h, s.runs.pValue);
  fnvDouble(h, s.spectral.pValue);
  fnvDouble(h, s.cusumForward.pValue);
  fnvDouble(h, s.cusumBackward.pValue);
}

/// Bucket bounds for the `analysis.sched.task_cost` histogram, in
/// scheduler cost units (~packets touched) — powers of four spanning a
/// trivial source to a heavy hitter far above the split threshold.
std::span<const double> costBounds() {
  static const std::vector<double> bounds{16.0,    64.0,    256.0,
                                          1024.0,  4096.0,  16384.0,
                                          65536.0, 262144.0, 1048576.0};
  return bounds;
}

/// Appendix B: the NIST battery runs over sessions of at least this many
/// packets.
constexpr std::size_t kNistMinPackets = 100;

/// Builds the index inside an `analysis.index_seconds` span; guaranteed
/// copy elision constructs it straight into the Pipeline member.
CaptureIndex makeIndex(std::span<const net::Packet> packets,
                       std::span<const telescope::Session> sessions,
                       obs::Registry* registry) {
  std::optional<obs::Span> span;
  if (registry != nullptr) span.emplace(*registry, "analysis.index_seconds");
  return CaptureIndex{packets, sessions};
}

} // namespace

std::uint64_t PipelineResult::digest() const {
  std::uint64_t h = 14695981039346656037ULL;

  fnv1a(h, static_cast<std::uint64_t>(taxonomy.profiles.size()));
  for (const ScannerProfile& p : taxonomy.profiles) {
    fnv1a(h, p.source.addr);
    fnv1a(h, static_cast<std::uint64_t>(p.source.agg));
    fnv1a(h, static_cast<std::uint64_t>(p.sessionIdx.size()));
    for (std::uint32_t si : p.sessionIdx) fnv1a(h, si);
    fnv1a(h, static_cast<std::uint64_t>(p.temporal.cls));
    fnv1a(h, p.temporal.period
                 ? static_cast<std::uint64_t>(p.temporal.period->millis())
                 : static_cast<std::uint64_t>(-1));
    fnv1a(h, static_cast<std::uint64_t>(p.network));
    for (std::uint64_t c : p.sessionsByAddrSel) fnv1a(h, c);
  }
  for (AddressSelection sel : taxonomy.sessionAddrSel) {
    fnv1a(h, static_cast<std::uint64_t>(sel));
  }

  fnv1a(h, static_cast<std::uint64_t>(heavyHitters.size()));
  for (const HeavyHitter& hh : heavyHitters) {
    fnv1a(h, hh.source);
    fnv1a(h, static_cast<std::uint64_t>(hh.asn.value()));
    fnv1a(h, hh.packets);
    fnvDouble(h, hh.shareOfTelescope);
    fnv1a(h, hh.sessions);
    fnv1a(h, static_cast<std::uint64_t>(hh.firstDay));
    fnv1a(h, static_cast<std::uint64_t>(hh.lastDay));
  }
  fnv1a(h, heavyHitterImpact.packets);
  fnv1a(h, heavyHitterImpact.sessions);
  fnvDouble(h, heavyHitterImpact.packetShare);
  fnvDouble(h, heavyHitterImpact.sessionShare);

  for (net::ScanTool tool : fingerprint.sessionTool) {
    fnv1a(h, static_cast<std::uint64_t>(tool));
  }
  fnv1a(h, fingerprint.hopLimitAttributions);
  for (const auto& [tool, count] : fingerprint.byTool) {
    fnv1a(h, static_cast<std::uint64_t>(tool));
    fnv1a(h, count.scanners);
    fnv1a(h, count.sessions);
  }
  fnv1a(h, static_cast<std::uint64_t>(fingerprint.clusterCount));
  fnv1a(h, fingerprint.payloadPackets);
  fnv1a(h, fingerprint.payloadSessions);
  fnv1a(h, fingerprint.payloadSources);

  fnv1a(h, static_cast<std::uint64_t>(nist.size()));
  for (const SessionNist& s : nist) {
    fnv1a(h, static_cast<std::uint64_t>(s.sessionIdx));
    fnv1a(h, s.iid);
    fnv1a(h, s.subnet);
  }
  return h;
}

Pipeline::Pipeline(std::span<const net::Packet> packets,
                   std::span<const telescope::Session> sessions,
                   obs::Registry* registry)
    : registry_(registry), index_(makeIndex(packets, sessions, registry)) {}

void Pipeline::recordWorkerStats(const ParallelForStats& stats) const {
  if (registry_ == nullptr || stats.items.empty()) return;
  // Each worker's tallies land in a private shard registry, folded in via
  // the same aggregateFrom path the sharded runner uses.
  double maxBusy = 0.0;
  double sumBusy = 0.0;
  for (std::size_t w = 0; w < stats.items.size(); ++w) {
    obs::Registry shard;
    shard.counter("analysis.worker.items_total").inc(stats.items[w]);
    shard.gauge("analysis.worker.busy_seconds", obs::GaugeMode::Sum)
        .add(stats.busySeconds[w]);
    registry_->aggregateFrom(shard);
    registry_->histogram("analysis.worker_busy_seconds")
        .observe(stats.busySeconds[w]);
    maxBusy = std::max(maxBusy, stats.busySeconds[w]);
    sumBusy += stats.busySeconds[w];
  }
  const double mean = sumBusy / static_cast<double>(stats.items.size());
  if (mean > 0.0) {
    registry_->gauge("analysis.worker_imbalance_ratio", obs::GaugeMode::Max)
        .max(maxBusy / mean);
  }
  registry_->counter("analysis.sched.splits_total").inc(stats.splits);
  obs::Histogram& costHist =
      registry_->histogram("analysis.sched.task_cost", costBounds());
  for (std::uint64_t cost : stats.taskCosts) {
    costHist.observe(static_cast<double>(cost));
  }
}

PipelineResult Pipeline::run(const bgp::SplitSchedule* schedule,
                             const PipelineOptions& opts) const {
  PipelineResult result;

  // Span is pinned to its histogram and non-movable; emplace per stage.
  if (opts.taxonomy) {
    std::optional<obs::Span> span;
    if (registry_ != nullptr) {
      span.emplace(*registry_, "analysis.classify_seconds");
    }
    ParallelForStats stats;
    result.taxonomy =
        classifyIndexed(index_, schedule, opts.threads, &stats,
                        opts.minSplitCost);
    recordWorkerStats(stats);
  }

  if (opts.nistBattery) {
    std::optional<obs::Span> span;
    if (registry_ != nullptr) span.emplace(*registry_, "analysis.nist_seconds");
    std::vector<std::uint32_t> eligible;
    for (std::uint32_t si = 0; si < index_.sessions().size(); ++si) {
      if (index_.sessions()[si].packetCount() >= kNistMinPackets) {
        eligible.push_back(si);
      }
    }
    result.nist.resize(eligible.size());
    // Task list: a light session is one whole-battery task per axis; a
    // session whose estimated cost reaches minSplitCost further splits
    // each axis into Spectral / NonSpectral test-block subtasks writing
    // disjoint NistSummary fields of its pre-assigned slot. Slot
    // identity is fixed here, serially, before any worker runs.
    struct NistTask {
      std::uint32_t slot;
      std::uint8_t axis; // 0 = iid (bits 64..127), 1 = subnet (32..63)
      NistBlock block;
    };
    std::vector<NistTask> tasks;
    std::vector<std::uint64_t> costs;
    std::uint64_t splits = 0;
    for (std::uint32_t i = 0; i < eligible.size(); ++i) {
      result.nist[i].sessionIdx = eligible[i];
      const std::uint64_t cost = index_.nistCostOf(eligible[i]);
      if (cost < opts.minSplitCost) {
        tasks.push_back({i, 0, NistBlock::All});
        tasks.push_back({i, 1, NistBlock::All});
        costs.push_back(cost / 2);
        costs.push_back(cost / 2);
        continue;
      }
      ++splits;
      for (std::uint8_t axis = 0; axis < 2; ++axis) {
        tasks.push_back({i, axis, NistBlock::Spectral});
        costs.push_back(cost / 4);
        tasks.push_back({i, axis, NistBlock::NonSpectral});
        costs.push_back(cost / 4);
      }
    }
    ParallelForStats stats = parallelForCosted(
        costs, opts.threads,
        [&](unsigned, std::size_t t) {
          const NistTask& task = tasks[t];
          // The index's bit columns replace the per-bit extraction that
          // bitsFromAddresses used to do per task; the packed battery's
          // p-values are bit-identical either way (DESIGN.md §16).
          const std::uint32_t si = result.nist[task.slot].sessionIdx;
          const PackedBits bits =
              task.axis == 0 ? index_.iidBitsOf(si) : index_.subnetBitsOf(si);
          const NistSummary summary = runNistTestsPacked(bits, task.block);
          NistSummary& out = task.axis == 0 ? result.nist[task.slot].iid
                                            : result.nist[task.slot].subnet;
          // Field-wise merge: each block writes only its own fields.
          if (task.block != NistBlock::Spectral) {
            out.frequency = summary.frequency;
            out.runs = summary.runs;
            out.cusumForward = summary.cusumForward;
            out.cusumBackward = summary.cusumBackward;
          }
          if (task.block != NistBlock::NonSpectral) {
            out.spectral = summary.spectral;
          }
        });
    stats.splits = splits;
    recordWorkerStats(stats);
  }

  if (opts.heavyHitters) {
    std::optional<obs::Span> span;
    if (registry_ != nullptr) {
      span.emplace(*registry_, "analysis.heavy_hitter_seconds");
    }
    result.heavyHitters = findHeavyHitters(index_);
    result.heavyHitterImpact = heavyHitterImpact(index_, result.heavyHitters);
  }

  if (opts.fingerprint) {
    std::optional<obs::Span> span;
    if (registry_ != nullptr) {
      span.emplace(*registry_, "analysis.fingerprint_seconds");
    }
    ParallelForStats stats;
    result.fingerprint =
        fingerprintSessions(index_, opts.rdns, opts.threads, &stats);
    recordWorkerStats(stats);
  }
  return result;
}

PipelineResult Pipeline::analyze(std::span<const net::Packet> packets,
                                 std::span<const telescope::Session> sessions,
                                 const bgp::SplitSchedule* schedule,
                                 const PipelineOptions& opts,
                                 obs::Registry* registry) {
  const Pipeline pipeline{packets, sessions, registry};
  return pipeline.run(schedule, opts);
}

} // namespace v6t::analysis
