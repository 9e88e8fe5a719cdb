// v6t::analysis — the scanner taxonomy of §5, as estimators.
//
// Three orthogonal axes, all computed from captured packets/sessions only:
//
//   temporal behavior    one-off / periodic / intermittent (§5.1)
//   network selection    single-prefix / size-independent / size-dependent /
//                        inconsistent (§5.2) — needs the announcement
//                        cycles of the BGP experiment as context
//   address selection    structured / random / unknown (§5.3) — addr6-style
//                        structure detection plus the NIST frequency test
//                        over each session's 64 IID bits
//
// Address selection has two entry points with one body each: the row
// overload runs the scalar reference kernels, the index overload the
// word-level ones over the CaptureIndex lanes (DESIGN.md §16), and the
// two agree session for session. The estimators' thresholds are named
// constants beside their one use in taxonomy.cpp, each citing the paper
// section it comes from.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/addr_class.hpp"
#include "analysis/parallel.hpp"
#include "bgp/splitter.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "telescope/session.hpp"

namespace v6t::analysis {

// ---------------------------------------------------------------- temporal

enum class TemporalClass : std::uint8_t { OneOff, Intermittent, Periodic };

[[nodiscard]] std::string_view toString(TemporalClass t);

struct TemporalResult {
  TemporalClass cls = TemporalClass::OneOff;
  std::optional<sim::Duration> period; // set iff Periodic
};

/// Classify from the source's session start times. Exactly one session (or
/// zero) -> one-off; a detectable stable period -> periodic; otherwise
/// intermittent.
[[nodiscard]] TemporalResult classifyTemporal(
    std::span<const sim::SimTime> sessionStarts);

// ------------------------------------------------------- address selection

enum class AddressSelection : std::uint8_t { Structured, Random, Unknown };

[[nodiscard]] std::string_view toString(AddressSelection s);

/// Classify one session's target list — the row path, built on the
/// scalar reference classifier (classifyAll) and the byte-per-bit NIST
/// frequency test.
[[nodiscard]] AddressSelection classifyAddressSelection(
    std::span<const net::Ipv6Address> targets);

// ------------------------------------------------------- network selection

enum class NetworkSelection : std::uint8_t {
  SinglePrefix,
  SizeIndependent,
  SizeDependent,
  Inconsistent,
};

[[nodiscard]] std::string_view toString(NetworkSelection s);

/// Session counts per announced prefix, for one source within one
/// announcement cycle.
struct CycleActivity {
  int cycleIndex = 0;
  /// Parallel to the cycle's announced prefix list: sessions this source
  /// directed into each prefix.
  std::vector<std::uint64_t> sessionsPerPrefix;
  std::vector<unsigned> prefixLengths; // announced prefix lengths
};

/// Per-cycle label used internally and exposed for tests.
[[nodiscard]] NetworkSelection classifyCycle(const CycleActivity& cycle);

/// Combine a source's behavior across all cycles it was active in.
/// Cycles are first grouped by DBSCAN over their normalized per-prefix
/// session distribution; sources whose cycles disagree are inconsistent.
[[nodiscard]] NetworkSelection classifyNetworkSelection(
    std::span<const CycleActivity> cycles);

// ----------------------------------------------------- corpus-level driver

/// Everything the taxonomy says about one scan source.
struct ScannerProfile {
  telescope::SourceKey source;
  std::vector<std::uint32_t> sessionIdx; // into the session vector
  TemporalResult temporal;
  NetworkSelection network = NetworkSelection::SinglePrefix;
  /// Session counts per address-selection class for this source.
  std::uint64_t sessionsByAddrSel[3] = {0, 0, 0};
};

struct TaxonomyResult {
  std::vector<ScannerProfile> profiles;
  /// Per-session address selection labels (parallel to the session vector).
  std::vector<AddressSelection> sessionAddrSel;

  [[nodiscard]] std::uint64_t scannersOf(TemporalClass t) const;
  [[nodiscard]] std::uint64_t sessionsOf(TemporalClass t) const;
  [[nodiscard]] std::uint64_t scannersOf(NetworkSelection s) const;
  [[nodiscard]] std::uint64_t sessionsOf(NetworkSelection s) const;
};

/// Run the full taxonomy over one telescope's capture. `schedule` provides
/// the announcement-cycle context for network selection; pass nullptr for
/// telescopes without a BGP experiment (every source is then single-prefix,
/// as in §5.2's "for T2–T4" note). Thin wrapper: builds a CaptureIndex and
/// delegates to classifyIndexed with one thread.
[[nodiscard]] TaxonomyResult classifyCapture(
    std::span<const net::Packet> packets,
    std::span<const telescope::Session> sessions,
    const bgp::SplitSchedule* schedule);

class CaptureIndex;

/// Columnar overload: classify session `s` straight off the index's
/// lanes with the word kernels — classifyLanes over the IID lane,
/// monotonic share on the (hi, lo) lane pair, packed frequency test on
/// the bit column — with no address materialization. Equal to the row
/// overload over the session's targets.
[[nodiscard]] AddressSelection classifyAddressSelection(
    const CaptureIndex& index, std::uint32_t s);

/// Taxonomy over a pre-built shared index: target lanes and session-start
/// runs come from the index memos instead of fresh packet-vector walks,
/// and the per-source classification fans out cost-aware (LPT list
/// scheduling, DESIGN.md §13) over `threads` workers, with per-source
/// costs estimated from the index aggregates. Sources whose estimated cost
/// reaches `minSplitCost` are split: their per-session address
/// classification becomes session-block subtasks writing disjoint
/// `sessionAddrSel` slots plus private per-block counters, the
/// temporal/network axes become a rest subtask, and the block counters
/// fold into the profile in canonical block order after the dispatch.
/// Every subtask is a pure function of its slice writing to pre-sized
/// slots, so the result is bitwise-identical for every thread count
/// (including 1, the serial reference) and for split vs unsplit.
/// `statsOut`, when non-null, receives the worker fan-out statistics for
/// the pipeline's imbalance instrumentation.
[[nodiscard]] TaxonomyResult classifyIndexed(
    const CaptureIndex& index, const bgp::SplitSchedule* schedule,
    unsigned threads = 1, ParallelForStats* statsOut = nullptr,
    std::uint64_t minSplitCost = kDefaultMinSplitCost);

} // namespace v6t::analysis
