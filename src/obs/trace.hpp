// v6t::obs::trace — the deterministic flight recorder (DESIGN.md §14).
//
// A Tracer records typed, timestamped TraceEvents into a bounded
// overwriting ring buffer ("flight recorder"). Every shard of the parallel
// runner owns a private Tracer, mutated only from that shard's worker
// thread — the same single-writer discipline as the shard metric
// registries — so recording never takes a lock and never serializes
// shards.
//
// Determinism contract: trace IDs are pure functions of (experiment seed,
// BGP update sequence number) via sim::deriveStreamSeed — never draws from
// a simulation RNG stream — and every recorded value is simulated state.
// Because each shard replays the identical control-plane script, the
// update sequence numbers (and therefore the IDs) are shard-invariant, and
// the union of all shards' sim-domain events is the same set at any thread
// count. collectCanonicalSimEvents() sorts that union into a canonical
// total order, making exported traces byte-identical for any worker count.
//
// Two clock domains, never mixed: ClockDomain::Sim events carry simulated
// milliseconds and are canonically ordered; ClockDomain::Wall events
// (analysis scheduler slices) carry wall microseconds, are recorded
// through a mutex (scheduler workers are transient OS threads), and are
// excluded from the byte-identity normalization.
//
// The tracer is observation-only by construction: it is invoked *after*
// simulation decisions, consumes no RNG draws, and its `enabled` flag only
// gates event recording — so a traced run produces bitwise-identical
// captures to an untraced one. The reaction-delay histograms
// (bgp.reaction_delay_seconds.*) are observed independently of `enabled`
// whenever a metrics registry is attached, since they are plain metrics,
// not trace data.
//
// Building with -DV6T_TRACE=OFF defines V6T_TRACE_DISABLED: recording
// compiles down to a dead never-enabled branch and test_trace skips.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"

namespace v6t::obs::trace {

#ifdef V6T_TRACE_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

enum class EventKind : std::uint8_t {
  BgpUpdateRoot = 0, // control plane announced/withdrew (trace root)
  FeedDelivery, // a scanner's feed callback fired (convergence lag over)
  PrefixLearned, // the scanner added the prefix to its known set
  SessionScheduled, // a probe session was queued against the prefix
  PacketSent, // one probe left the scanner
  PacketCaptured, // a telescope recorded the probe
  ReactionObserved, // first captured probe of an update-caused session
  SchedSlice, // analysis scheduler: one task execution (wall domain)
  Marker, // free-form annotation
};

[[nodiscard]] std::string_view toString(EventKind k);

enum class ClockDomain : std::uint8_t {
  Sim = 0, // ts is simulated milliseconds since the experiment epoch
  Wall = 1, // ts is wall-clock microseconds (steady clock)
};

/// One flight-recorder record. Plain data, trivially copyable — the ring
/// buffer is a flat slab and the canonical sort is a memcmp-grade compare.
/// `a`/`b` are kind-specific payloads (documented per record site); for
/// PacketSent/PacketCaptured they are the (originSeq, ...) / (originId,
/// originSeq) linkage keys the capture merge orders by.
struct TraceEvent {
  std::int64_t ts = 0;
  std::uint64_t traceId = 0; // 0 = not part of an update-caused chain
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t entity = 0; // scanner id, telescope slot, or worker index
  EventKind kind = EventKind::Marker;
  ClockDomain domain = ClockDomain::Sim;
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "the ring buffer relies on memcpy-able events");

/// Canonical total order for sim-domain events: (ts, kind, traceId,
/// entity, a, b). Ties beyond that are identical records, so the order is
/// deterministic regardless of which shard recorded what.
[[nodiscard]] bool canonicalLess(const TraceEvent& x, const TraceEvent& y);

/// Bounded overwriting ring: push() never fails and never allocates after
/// construction; once full, the oldest event is overwritten. snapshot()
/// returns the retained window oldest-first.
class TraceRing {
public:
  explicit TraceRing(std::size_t capacity);

  void push(const TraceEvent& e) {
    slots_[static_cast<std::size_t>(recorded_ % slots_.size())] = e;
    ++recorded_;
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Total events ever pushed (monotonic, survives overwrite).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Events lost to overwrite.
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ > slots_.size() ? recorded_ - slots_.size() : 0;
  }
  [[nodiscard]] std::size_t size() const {
    return recorded_ < slots_.size() ? static_cast<std::size_t>(recorded_)
                                     : slots_.size();
  }

  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Allocation-free slot access for the signal-handler dump path; `index`
  /// is a logical push index in [recorded()-size(), recorded()).
  [[nodiscard]] const TraceEvent& slotAt(std::uint64_t index) const {
    return slots_[static_cast<std::size_t>(index % slots_.size())];
  }

private:
  std::vector<TraceEvent> slots_;
  std::uint64_t recorded_ = 0;
};

struct TracerOptions {
  std::uint64_t seed = 0; // the experiment seed; trace IDs derive from it
  std::size_t ringSize = 1 << 16;
  bool enabled = false; // record events (forced off when compiled out)
  /// Keep every sim-domain event in an unbounded side vector for export
  /// (--trace-out); the ring stays bounded for the post-mortem dump.
  bool retainAll = false;
  /// Exactly one tracer per run owns the control plane (shard 0) and
  /// emits BgpUpdateRoot events; the replicas that
  /// replay the script stay silent, so every update has exactly one root.
  bool controlPlaneOwner = true;
};

class Tracer {
public:
  explicit Tracer(TracerOptions options, Registry* registry = nullptr);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] bool controlPlaneOwner() const {
    return options_.controlPlaneOwner;
  }

  /// Deterministic trace ID for the update with feed sequence number
  /// `updateSeq`: deriveStreamSeed(deriveStreamSeed(seed, kTraceStream),
  /// updateSeq). Pure function — identical across shards, thread counts,
  /// and enabled states.
  [[nodiscard]] std::uint64_t updateTraceId(std::uint64_t updateSeq) const;

  /// Record one sim-domain event. Must be called only from the owning
  /// shard's worker thread. No-op (one predictable branch) when disabled.
  void record(const TraceEvent& e) {
    if (!enabled_) return;
    ring_.push(e);
    if (options_.retainAll) retained_.push_back(e);
  }

  /// Causal context propagated through the synchronous send path: the
  /// scanner sets it around fabric send, the telescope reads it in
  /// deliver(). Single-threaded per shard, so a plain slot suffices.
  struct Context {
    std::uint64_t traceId = 0;
    std::int64_t originTsMillis = 0;
  };
  void setContext(const Context& c) { context_ = c; }
  void clearContext() { context_ = Context{}; }
  [[nodiscard]] const Context& context() const { return context_; }

  /// Observe one BGP reaction delay (seconds between the update's origin
  /// timestamp and the first *captured* probe of a session it caused) into
  /// bgp.reaction_delay_seconds.<className> and .all. Metrics-only: fires
  /// whether or not event recording is enabled.
  void observeReaction(std::size_t classIndex, std::string_view className,
                       double delaySeconds);

  /// Record one wall-domain event (analysis scheduler). Thread-safe: the
  /// scheduler's workers are concurrent OS threads, so this path takes a
  /// mutex — acceptable because slices are per-task, not per-packet.
  void recordWall(const TraceEvent& e);

  [[nodiscard]] const TraceRing& ring() const { return ring_; }
  /// Full sim-domain event retention (only populated with retainAll).
  [[nodiscard]] std::span<const TraceEvent> retained() const {
    return retained_;
  }
  [[nodiscard]] std::vector<TraceEvent> wallEvents() const;

  /// Human-readable dump of the ring window (post-mortem path).
  void dumpRing(std::ostream& out) const;
  /// Async-signal best-effort dump straight to a file descriptor; used by
  /// the fatal-signal handler, so it formats with snprintf and write(2)
  /// only.
  void dumpRingToFd(int fd) const;

private:
  TracerOptions options_;
  Registry* registry_;
  bool enabled_;
  std::uint64_t traceSeed_;
  TraceRing ring_;
  std::vector<TraceEvent> retained_;
  Context context_;
  static constexpr std::size_t kMaxClasses = 16;
  Histogram* reactionHist_[kMaxClasses] = {};
  Histogram* reactionHistAll_ = nullptr;
  mutable std::mutex wallMutex_;
  std::vector<TraceEvent> wallEvents_;
};

// --- process-global hooks ---------------------------------------------------

/// The wall-domain tracer the analysis scheduler records slices into; null
/// (the default) disables scheduler tracing entirely. Set by v6t_run
/// around the analysis phase.
[[nodiscard]] Tracer* wallTracer() noexcept;
void setWallTracer(Tracer* tracer) noexcept;

/// Register the tracers whose rings the fatal-signal handler dumps, then
/// install handlers for SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL. Call once,
/// with tracers that outlive the process's working phase.
void registerCrashDumpTracers(std::span<Tracer* const> tracers);
void installCrashHandler();
/// Dump every registered tracer's ring (the invariant-failure abort path).
void dumpRegisteredRings(std::ostream& out);

// --- export (trace_export.cpp) ----------------------------------------------

/// Union of all tracers' retained sim-domain events in canonical order —
/// the normalization under which traces are byte-identical at any thread
/// count.
[[nodiscard]] std::vector<TraceEvent> collectCanonicalSimEvents(
    std::span<const Tracer* const> tracers);

/// All wall-domain events, ordered by timestamp.
[[nodiscard]] std::vector<TraceEvent> collectWallEvents(
    std::span<const Tracer* const> tracers);

/// Chrome trace-event JSON (loads in Perfetto / chrome://tracing): sim
/// events as instants on the "simulation" process (sim clock, ms -> µs),
/// wall events as duration slices on the "analysis scheduler" process.
void writeChromeTrace(std::ostream& out, std::span<const TraceEvent> simEvents,
                      std::span<const TraceEvent> wallEvents);
[[nodiscard]] std::string chromeTraceJson(
    std::span<const TraceEvent> simEvents,
    std::span<const TraceEvent> wallEvents);

} // namespace v6t::obs::trace
