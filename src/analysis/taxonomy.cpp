#include "analysis/taxonomy.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <unordered_map>

#include "analysis/autocorr.hpp"
#include "analysis/capture_index.hpp"
#include "analysis/dbscan.hpp"
#include "analysis/nist.hpp"
#include "analysis/parallel.hpp"

namespace v6t::analysis {

std::string_view toString(TemporalClass t) {
  switch (t) {
    case TemporalClass::OneOff: return "one-off";
    case TemporalClass::Intermittent: return "intermittent";
    case TemporalClass::Periodic: return "periodic";
  }
  return "?";
}

std::string_view toString(AddressSelection s) {
  switch (s) {
    case AddressSelection::Structured: return "structured";
    case AddressSelection::Random: return "random";
    case AddressSelection::Unknown: return "unknown";
  }
  return "?";
}

std::string_view toString(NetworkSelection s) {
  switch (s) {
    case NetworkSelection::SinglePrefix: return "single-prefix";
    case NetworkSelection::SizeIndependent: return "network-size independent";
    case NetworkSelection::SizeDependent: return "network-size dependent";
    case NetworkSelection::Inconsistent: return "inconsistent";
  }
  return "?";
}

TemporalResult classifyTemporal(std::span<const sim::SimTime> sessionStarts) {
  if (sessionStarts.size() <= 1) return {TemporalClass::OneOff, std::nullopt};
  if (sessionStarts.size() == 2) {
    // Must appear more than twice to qualify as periodic (§5.1).
    return {TemporalClass::Intermittent, std::nullopt};
  }
  if (auto period = detectPeriod(sessionStarts)) {
    return {TemporalClass::Periodic, period};
  }
  return {TemporalClass::Intermittent, std::nullopt};
}

namespace {

/// Share of adjacent target pairs in non-decreasing order — detects
/// sequential traversal even when individual addresses look random.
double monotonicShare(std::span<const net::Ipv6Address> targets) {
  if (targets.size() < 2) return 1.0;
  std::size_t ordered = 0;
  for (std::size_t i = 1; i < targets.size(); ++i) {
    if (!(targets[i] < targets[i - 1])) ++ordered;
  }
  return static_cast<double>(ordered) /
         static_cast<double>(targets.size() - 1);
}

/// Lane variant: the byte-lexicographic address order is exactly the
/// (hi64, lo64) pair order, so the same comparisons run on two u64
/// columns instead of 16-byte rows.
double monotonicShareLanes(std::span<const std::uint64_t> hi,
                           std::span<const std::uint64_t> lo) {
  if (hi.size() < 2) return 1.0;
  std::size_t ordered = 0;
  for (std::size_t i = 1; i < hi.size(); ++i) {
    const bool less =
        hi[i] < hi[i - 1] || (hi[i] == hi[i - 1] && lo[i] < lo[i - 1]);
    if (!less) ++ordered;
  }
  return static_cast<double>(ordered) / static_cast<double>(hi.size() - 1);
}

bool isStructuredType(AddressType t) {
  return t != AddressType::Randomized;
}

/// §5.3: share of a session's targets in structured addr6 categories that
/// makes the session structured.
constexpr double kStructuredShare = 0.6;

/// §5.3 / Appendix B: sessions of at least this many packets get the NIST
/// frequency test. SP 800-22 needs >= 100 bits; with 64 IID bits per
/// address any such session is far above that.
constexpr std::size_t kMinPacketsForNist = 100;

} // namespace

AddressSelection classifyAddressSelection(
    std::span<const net::Ipv6Address> targets) {
  if (targets.empty()) return AddressSelection::Unknown;

  // addr6-style structure: a dominant structured category.
  const AddressTypeHistogram histogram = classifyAll(targets);
  std::uint64_t structured = 0;
  for (std::size_t i = 0; i < kAddressTypeCount; ++i) {
    if (isStructuredType(static_cast<AddressType>(i))) {
      structured += histogram.count[i];
    }
  }
  const double structuredRatio =
      static_cast<double>(structured) / static_cast<double>(targets.size());
  if (structuredRatio >= kStructuredShare) {
    return AddressSelection::Structured;
  }
  // Sequential traversal of the space is structure even if the individual
  // IIDs classify as randomized (Fig. 13's tree-walk sessions).
  if (targets.size() >= 8 && monotonicShare(targets) >= 0.9) {
    return AddressSelection::Structured;
  }

  // Statistical randomness of the IID bits (§5.3 method).
  if (targets.size() >= kMinPacketsForNist) {
    const BitSequence bits = bitsFromAddresses(targets, 64, 64);
    if (frequencyTest(bits).pass()) {
      return AddressSelection::Random;
    }
  }
  return AddressSelection::Unknown;
}

AddressSelection classifyAddressSelection(const CaptureIndex& index,
                                          std::uint32_t s) {
  // Columnar mirror of the row path above: same decision sequence, same
  // doubles, word kernels throughout (DESIGN.md §16).
  const CaptureIndex::TargetColumns cols = index.columnsOf(s);
  const std::size_t n = cols.lo.size();
  if (n == 0) return AddressSelection::Unknown;

  const AddressTypeHistogram histogram = classifyLanes(cols.lo);
  std::uint64_t structured = 0;
  for (std::size_t i = 0; i < kAddressTypeCount; ++i) {
    if (isStructuredType(static_cast<AddressType>(i))) {
      structured += histogram.count[i];
    }
  }
  const double structuredRatio =
      static_cast<double>(structured) / static_cast<double>(n);
  if (structuredRatio >= kStructuredShare) {
    return AddressSelection::Structured;
  }
  if (n >= 8 && monotonicShareLanes(cols.hi, cols.lo) >= 0.9) {
    return AddressSelection::Structured;
  }

  if (n >= kMinPacketsForNist) {
    if (frequencyTestPacked(index.iidBitsOf(s)).pass()) {
      return AddressSelection::Random;
    }
  }
  return AddressSelection::Unknown;
}

namespace {

/// §5.2: |Pearson r| between host bits and per-prefix session count above
/// which a cycle's coverage is size-driven.
constexpr double kSizeCorrelation = 0.6;

/// Size-invariant behavioral summary of one announcement cycle: these
/// numbers characterize *how* the scanner spread its sessions, not how
/// many prefixes happened to be announced, so cycles from different
/// experiment stages remain comparable.
struct CycleStats {
  bool multiPrefix = false;
  double cv = 0.0; // coefficient of variation of per-prefix counts
  double sizeCorr = 0.0; // Pearson r of host-bits vs session count
};

CycleStats cycleStats(const CycleActivity& cycle) {
  CycleStats stats;
  const std::size_t n = cycle.sessionsPerPrefix.size();
  std::size_t active = 0;
  double total = 0.0;
  for (std::uint64_t c : cycle.sessionsPerPrefix) {
    if (c > 0) ++active;
    total += static_cast<double>(c);
  }
  if (active <= 1 || n < 2) return stats; // single-prefix shape
  stats.multiPrefix = true;

  const double mean = total / static_cast<double>(n);
  double var = 0.0;
  for (std::uint64_t c : cycle.sessionsPerPrefix) {
    const double d = static_cast<double>(c) - mean;
    var += d * d;
  }
  var /= static_cast<double>(n);
  stats.cv = mean > 0.0 ? std::sqrt(var) / mean : 0.0;

  double meanBits = 0.0;
  for (unsigned len : cycle.prefixLengths)
    meanBits += static_cast<double>(128 - len);
  meanBits /= static_cast<double>(n);
  double cov = 0.0;
  double varBits = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double db =
        static_cast<double>(128 - cycle.prefixLengths[i]) - meanBits;
    const double dc = static_cast<double>(cycle.sessionsPerPrefix[i]) - mean;
    cov += db * dc;
    varBits += db * db;
  }
  if (varBits > 0.0 && var > 0.0) {
    // var holds the *mean* squared deviation; the sum is var * n.
    stats.sizeCorr = cov / std::sqrt(varBits * var * static_cast<double>(n));
  }
  return stats;
}

/// DBSCAN feature vector derived from the cycle stats. Same behavior =>
/// nearby points, regardless of how many prefixes the cycle announced.
/// The size-correlation only enters when it is decisive — a uniform
/// scanner's Pearson r is small-sample noise that must not split clusters.
std::array<double, 3> cycleFeature(const CycleStats& stats) {
  if (!stats.multiPrefix) return {0.0, 0.0, 0.5};
  const double corrFeature =
      std::abs(stats.sizeCorr) >= kSizeCorrelation
          ? (stats.sizeCorr + 1.0) / 2.0
          : 0.5;
  return {1.0, std::min(stats.cv, 2.0) / 2.0, corrFeature};
}

/// §5.2: coefficient of variation of per-prefix session counts at or
/// below which a cycle's coverage is uniform (size-independent).
/// Partially covered cycles (a scanner active for half the cycle) still
/// count as uniform coverage.
constexpr double kUniformCv = 1.0;

} // namespace

NetworkSelection classifyCycle(const CycleActivity& cycle) {
  const CycleStats stats = cycleStats(cycle);
  if (!stats.multiPrefix) return NetworkSelection::SinglePrefix;
  // Size-driven coverage first: its session counts also have a modest
  // coefficient of variation, so the uniformity check must not see it.
  // The cv floor keeps near-constant counts (whose Pearson r is noise)
  // out of this branch.
  if (stats.sizeCorr >= kSizeCorrelation && stats.cv > 0.25) {
    return NetworkSelection::SizeDependent;
  }
  if (stats.cv <= kUniformCv) return NetworkSelection::SizeIndependent;
  return NetworkSelection::Inconsistent;
}

NetworkSelection classifyNetworkSelection(
    std::span<const CycleActivity> allCycles) {
  if (allCycles.empty()) return NetworkSelection::SinglePrefix;

  // Cycles during which only one prefix was announced carry no signal
  // about multi-prefix strategy; exclude them from the analysis.
  std::vector<CycleActivity> cycles;
  for (const CycleActivity& c : allCycles) {
    if (c.prefixLengths.size() >= 2) cycles.push_back(c);
  }
  if (cycles.empty()) return NetworkSelection::SinglePrefix;
  if (cycles.size() == 1) return classifyCycle(cycles[0]);

  // Group the cycles' behavioral features by DBSCAN (§5.2 method): a
  // source whose per-cycle behavior falls into more than one density
  // cluster changed strategy mid-experiment.
  std::vector<std::array<double, 3>> profiles;
  profiles.reserve(cycles.size());
  for (const CycleActivity& c : cycles) {
    profiles.push_back(cycleFeature(cycleStats(c)));
  }

  auto distance = [&](std::size_t a, std::size_t b) {
    double d = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      d += std::abs(profiles[a][i] - profiles[b][i]);
    }
    return d;
  };
  // §5.2: L1 radius in feature space; every cycle is a core point.
  constexpr double kDbscanEpsilon = 0.5;
  constexpr std::size_t kDbscanMinPts = 1;
  const DbscanResult clusters =
      dbscan(cycles.size(), kDbscanEpsilon, kDbscanMinPts, distance);
  // A scanner is coherent if one behavior cluster dominates its cycles
  // (§5.2: holds at least kDominantShare of them); a few partially-observed
  // cycles (the scanner came online mid-cycle) are tolerated as outliers.
  // A genuine behavior change produces two comparable clusters and lands
  // in Inconsistent.
  constexpr double kDominantShare = 0.7;
  std::map<int, std::size_t> clusterSizes;
  for (int label : clusters.label) {
    if (label != kDbscanNoise) ++clusterSizes[label];
  }
  int dominant = kDbscanNoise;
  std::size_t dominantSize = 0;
  for (const auto& [label, size] : clusterSizes) {
    if (size > dominantSize) {
      dominant = label;
      dominantSize = size;
    }
  }
  if (dominant == kDbscanNoise ||
      static_cast<double>(dominantSize) <
          kDominantShare * static_cast<double>(cycles.size())) {
    return NetworkSelection::Inconsistent;
  }

  // Label by majority class among the dominant cluster's cycles.
  std::size_t votes[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    if (clusters.label[i] != dominant) continue;
    ++votes[static_cast<std::size_t>(classifyCycle(cycles[i]))];
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    if (votes[i] > votes[best]) best = i;
  }
  if (votes[best] * 2 < dominantSize) return NetworkSelection::Inconsistent;
  return static_cast<NetworkSelection>(best);
}

std::uint64_t TaxonomyResult::scannersOf(TemporalClass t) const {
  std::uint64_t n = 0;
  for (const ScannerProfile& p : profiles) {
    if (p.temporal.cls == t) ++n;
  }
  return n;
}

std::uint64_t TaxonomyResult::sessionsOf(TemporalClass t) const {
  std::uint64_t n = 0;
  for (const ScannerProfile& p : profiles) {
    if (p.temporal.cls == t) n += p.sessionIdx.size();
  }
  return n;
}

std::uint64_t TaxonomyResult::scannersOf(NetworkSelection s) const {
  std::uint64_t n = 0;
  for (const ScannerProfile& p : profiles) {
    if (p.network == s) ++n;
  }
  return n;
}

std::uint64_t TaxonomyResult::sessionsOf(NetworkSelection s) const {
  std::uint64_t n = 0;
  for (const ScannerProfile& p : profiles) {
    if (p.network == s) n += p.sessionIdx.size();
  }
  return n;
}

namespace {

/// Address-classify a block of one source's sessions: per-session labels
/// go to disjoint `sessionAddrSel` slots, the tallies to `counts` — the
/// profile's own counters for an unsplit source, a private per-block slot
/// for a split one. Pure function of the block.
void classifyAddrBlock(const CaptureIndex& index,
                       std::span<const std::uint32_t> sessionIdx,
                       std::vector<AddressSelection>& sessionAddrSel,
                       std::uint64_t counts[3]) {
  for (std::uint32_t si : sessionIdx) {
    const AddressSelection sel = classifyAddressSelection(index, si);
    sessionAddrSel[si] = sel;
    counts[static_cast<std::size_t>(sel)]++;
  }
}

/// The non-address axes of source `srcIdx` — profile identity, temporal
/// class, network selection — independent of the address blocks, so a
/// split source can run this concurrently with them.
void classifySourceRest(const CaptureIndex& index, std::size_t srcIdx,
                        const bgp::SplitSchedule* schedule,
                        TaxonomyResult& out) {
  const std::span<const telescope::Session> sessions = index.sessions();
  const std::span<const std::uint32_t> sessionIdx = index.sessionsOf(srcIdx);

  ScannerProfile& profile = out.profiles[srcIdx];
  profile.source = index.source(srcIdx);
  profile.sessionIdx.assign(sessionIdx.begin(), sessionIdx.end());

  profile.temporal = classifyTemporal(index.sessionStartsOf(srcIdx));

  if (schedule != nullptr) {
    // Build per-cycle activity from the sessions' timing and targets.
    std::map<int, CycleActivity> perCycle;
    for (std::uint32_t i : sessionIdx) {
      const telescope::Session& s = sessions[i];
      const bgp::AnnouncementCycle* cycle = schedule->cycleAt(s.start);
      if (cycle == nullptr) continue;
      CycleActivity& activity = perCycle[cycle->index];
      if (activity.sessionsPerPrefix.empty()) {
        activity.cycleIndex = cycle->index;
        activity.sessionsPerPrefix.resize(cycle->announced.size());
        activity.prefixLengths.reserve(cycle->announced.size());
        for (const net::Prefix& p : cycle->announced) {
          activity.prefixLengths.push_back(p.length());
        }
      }
      // Attribute the session to the most specific announced prefix its
      // first target falls into.
      const CaptureIndex::TargetColumns cols = index.columnsOf(i);
      const net::Ipv6Address target{cols.hi.front(), cols.lo.front()};
      std::size_t bestIdx = cycle->announced.size();
      unsigned bestLen = 0;
      for (std::size_t k = 0; k < cycle->announced.size(); ++k) {
        const net::Prefix& p = cycle->announced[k];
        if (p.contains(target) && p.length() >= bestLen) {
          bestLen = p.length();
          bestIdx = k;
        }
      }
      if (bestIdx < activity.sessionsPerPrefix.size()) {
        ++activity.sessionsPerPrefix[bestIdx];
      }
    }
    std::vector<CycleActivity> cycles;
    cycles.reserve(perCycle.size());
    for (auto& [cycleIdx, activity] : perCycle) {
      cycles.push_back(std::move(activity));
    }
    profile.network = classifyNetworkSelection(cycles);
  } else {
    profile.network = NetworkSelection::SinglePrefix;
  }
}

} // namespace

TaxonomyResult classifyIndexed(const CaptureIndex& index,
                               const bgp::SplitSchedule* schedule,
                               unsigned threads,
                               ParallelForStats* statsOut,
                               std::uint64_t minSplitCost) {
  TaxonomyResult result;
  result.sessionAddrSel.assign(index.sessions().size(),
                               AddressSelection::Unknown);
  result.profiles.resize(index.sourceCount());

  // Build the task list: light sources are one task; a source whose
  // estimated cost reaches minSplitCost splits into session-block
  // subtasks (~minSplitCost/2 each) plus a rest subtask. Block
  // boundaries depend only on the index and minSplitCost — never on the
  // thread count — so the task list itself is deterministic.
  struct Task {
    enum Kind : std::uint8_t { Whole, Block, Rest };
    std::uint32_t source;
    std::uint32_t begin; // session-block range within sessionsOf(source)
    std::uint32_t end;
    std::uint32_t countSlot; // into blockCounts (Block tasks only)
    Kind kind;
  };
  std::vector<Task> tasks;
  std::vector<std::uint64_t> costs;
  std::vector<std::array<std::uint64_t, 3>> blockCounts;
  std::uint64_t splits = 0;
  const std::uint64_t blockTarget =
      std::max<std::uint64_t>(minSplitCost / 2, 1);

  for (std::size_t i = 0; i < index.sourceCount(); ++i) {
    const auto source = static_cast<std::uint32_t>(i);
    const std::uint64_t cost = index.classifyCostOf(i);
    const std::span<const std::uint32_t> sess = index.sessionsOf(i);
    const auto sessCount = static_cast<std::uint32_t>(sess.size());
    if (cost < minSplitCost || sess.size() < 2) {
      tasks.push_back({source, 0, sessCount, 0, Task::Whole});
      costs.push_back(cost);
      continue;
    }
    ++splits;
    std::uint32_t begin = 0;
    std::uint64_t acc = 0;
    for (std::uint32_t k = 0; k < sessCount; ++k) {
      acc += index.sessionPacketCountOf(sess[k]) + 32;
      if (acc >= blockTarget || k + 1 == sessCount) {
        tasks.push_back({source, begin, k + 1,
                         static_cast<std::uint32_t>(blockCounts.size()),
                         Task::Block});
        blockCounts.push_back({0, 0, 0});
        costs.push_back(acc);
        begin = k + 1;
        acc = 0;
      }
    }
    tasks.push_back({source, 0, 0, 0, Task::Rest});
    costs.push_back(32 * static_cast<std::uint64_t>(sessCount));
  }

  ParallelForStats stats = parallelForCosted(
      costs, threads,
      [&](unsigned, std::size_t t) {
        const Task& task = tasks[t];
        const std::span<const std::uint32_t> sess =
            index.sessionsOf(task.source);
        switch (task.kind) {
          case Task::Whole:
            classifyAddrBlock(index, sess, result.sessionAddrSel,
                              result.profiles[task.source].sessionsByAddrSel);
            classifySourceRest(index, task.source, schedule, result);
            break;
          case Task::Block:
            classifyAddrBlock(index,
                              sess.subspan(task.begin, task.end - task.begin),
                              result.sessionAddrSel,
                              blockCounts[task.countSlot].data());
            break;
          case Task::Rest:
            classifySourceRest(index, task.source, schedule, result);
            break;
        }
      });
  stats.splits = splits;

  // Canonical reduction: fold the private block counters into their
  // profiles in task-list (source, block) order — fixed regardless of
  // which worker computed each block.
  for (const Task& task : tasks) {
    if (task.kind != Task::Block) continue;
    std::uint64_t* dst = result.profiles[task.source].sessionsByAddrSel;
    for (std::size_t c = 0; c < 3; ++c) dst[c] += blockCounts[task.countSlot][c];
  }

  if (statsOut != nullptr) *statsOut = std::move(stats);
  return result;
}

TaxonomyResult classifyCapture(std::span<const net::Packet> packets,
                               std::span<const telescope::Session> sessions,
                               const bgp::SplitSchedule* schedule) {
  const CaptureIndex index{packets, sessions};
  return classifyIndexed(index, schedule, 1);
}

} // namespace v6t::analysis
