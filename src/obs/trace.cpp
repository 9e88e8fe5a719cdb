#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <ostream>
#include <tuple>
#include <unistd.h>

#include "sim/rng.hpp"

namespace v6t::obs::trace {

namespace {

/// Stream tag separating trace-ID derivation from every simulation RNG
/// stream (which all derive from the same seed with entity keys).
constexpr std::uint64_t kTraceStream = 0x7ace'1d5ULL;

} // namespace

std::string_view toString(EventKind k) {
  switch (k) {
    case EventKind::BgpUpdateRoot: return "BgpUpdateRoot";
    case EventKind::FeedDelivery: return "FeedDelivery";
    case EventKind::PrefixLearned: return "PrefixLearned";
    case EventKind::SessionScheduled: return "SessionScheduled";
    case EventKind::PacketSent: return "PacketSent";
    case EventKind::PacketCaptured: return "PacketCaptured";
    case EventKind::ReactionObserved: return "ReactionObserved";
    case EventKind::SchedSlice: return "SchedSlice";
    case EventKind::Marker: return "Marker";
  }
  return "?";
}

bool canonicalLess(const TraceEvent& x, const TraceEvent& y) {
  return std::tie(x.ts, x.kind, x.traceId, x.entity, x.a, x.b) <
         std::tie(y.ts, y.kind, y.traceId, y.entity, y.a, y.b);
}

TraceRing::TraceRing(std::size_t capacity)
    : slots_(std::max<std::size_t>(capacity, 1)) {}

std::vector<TraceEvent> TraceRing::snapshot() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = recorded_ - n;
  for (std::uint64_t i = first; i < recorded_; ++i) {
    out.push_back(slots_[static_cast<std::size_t>(i % slots_.size())]);
  }
  return out;
}

Tracer::Tracer(TracerOptions options, Registry* registry)
    : options_(options),
      registry_(registry),
      enabled_(options.enabled && kCompiledIn),
      traceSeed_(sim::deriveStreamSeed(options.seed, kTraceStream)),
      ring_(options.ringSize) {}

std::uint64_t Tracer::updateTraceId(std::uint64_t updateSeq) const {
  // Never zero: zero is the "untraced" sentinel in propagated contexts.
  const std::uint64_t id = sim::deriveStreamSeed(traceSeed_, updateSeq);
  return id != 0 ? id : 1;
}

void Tracer::observeReaction(std::size_t classIndex,
                             std::string_view className,
                             double delaySeconds) {
  if (registry_ == nullptr || classIndex >= kMaxClasses) return;
  // Lazy per-class registration, cached: observe stays two relaxed atomics
  // plus a bucket scan after the first call. Single-writer per shard, like
  // every other tracer mutation.
  Histogram*& h = reactionHist_[classIndex];
  if (h == nullptr) {
    std::string name{"bgp.reaction_delay_seconds."};
    name += className;
    h = &registry_->histogram(name, delayBoundsSeconds());
  }
  if (reactionHistAll_ == nullptr) {
    reactionHistAll_ = &registry_->histogram("bgp.reaction_delay_seconds.all",
                                             delayBoundsSeconds());
  }
  h->observe(delaySeconds);
  reactionHistAll_->observe(delaySeconds);
}

void Tracer::recordWall(const TraceEvent& e) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(wallMutex_);
  wallEvents_.push_back(e);
}

std::vector<TraceEvent> Tracer::wallEvents() const {
  const std::lock_guard<std::mutex> lock(wallMutex_);
  return wallEvents_;
}

namespace {

/// snprintf-only (no allocation): shared by the ostream dump and the
/// async-signal fd dump.
int formatEventLine(char* buf, std::size_t cap, const TraceEvent& e) {
  const std::string_view kind = toString(e.kind);
  return std::snprintf(
      buf, cap, "  %.*s ts=%lld trace=%016llx entity=%lu a=%llu b=%llu\n",
      static_cast<int>(kind.size()), kind.data(),
      static_cast<long long>(e.ts),
      static_cast<unsigned long long>(e.traceId),
      static_cast<unsigned long>(e.entity),
      static_cast<unsigned long long>(e.a),
      static_cast<unsigned long long>(e.b));
}

} // namespace

void Tracer::dumpRing(std::ostream& out) const {
  out << "trace ring: " << ring_.size() << " retained of " << ring_.recorded()
      << " recorded (" << ring_.dropped() << " overwritten), oldest first\n";
  char buf[192];
  for (const TraceEvent& e : ring_.snapshot()) {
    const int n = formatEventLine(buf, sizeof(buf), e);
    if (n > 0) out.write(buf, std::min<std::size_t>(static_cast<std::size_t>(n), sizeof(buf) - 1));
  }
}

void Tracer::dumpRingToFd(int fd) const {
  char buf[192];
  int n = std::snprintf(buf, sizeof(buf),
                        "trace ring: %zu retained of %llu recorded\n",
                        ring_.size(),
                        static_cast<unsigned long long>(ring_.recorded()));
  if (n > 0) (void)!::write(fd, buf, static_cast<std::size_t>(n));
  // Walk the ring slots directly — snapshot() allocates, which a signal
  // handler must not. Reading a stale slot mid-overwrite is acceptable for
  // a best-effort post-mortem.
  const std::size_t count = ring_.size();
  const std::uint64_t first = ring_.recorded() - count;
  for (std::uint64_t i = first; i < ring_.recorded(); ++i) {
    n = formatEventLine(buf, sizeof(buf), ring_.slotAt(i));
    if (n > 0) (void)!::write(fd, buf, static_cast<std::size_t>(n));
  }
}

// --- process-global hooks ---------------------------------------------------

namespace {

std::atomic<Tracer*> g_wallTracer{nullptr};

// Fixed-capacity crash registry: set once before installCrashHandler(),
// then only read (from the signal handler), so no locking is needed.
constexpr std::size_t kMaxCrashTracers = 64;
Tracer* g_crashTracers[kMaxCrashTracers] = {};
std::size_t g_crashTracerCount = 0;

extern "C" void v6tCrashHandler(int sig) {
  char buf[96];
  int n = std::snprintf(
      buf, sizeof(buf),
      "\n=== v6t flight recorder post-mortem (signal %d) ===\n", sig);
  if (n > 0) (void)!::write(2, buf, static_cast<std::size_t>(n));
  for (std::size_t t = 0; t < g_crashTracerCount; ++t) {
    n = std::snprintf(buf, sizeof(buf), "--- tracer %zu ---\n", t);
    if (n > 0) (void)!::write(2, buf, static_cast<std::size_t>(n));
    g_crashTracers[t]->dumpRingToFd(2);
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

} // namespace

Tracer* wallTracer() noexcept {
  return g_wallTracer.load(std::memory_order_acquire);
}

void setWallTracer(Tracer* tracer) noexcept {
  g_wallTracer.store(tracer, std::memory_order_release);
}

void registerCrashDumpTracers(std::span<Tracer* const> tracers) {
  g_crashTracerCount = 0;
  for (Tracer* t : tracers) {
    if (t == nullptr || g_crashTracerCount >= kMaxCrashTracers) continue;
    g_crashTracers[g_crashTracerCount++] = t;
  }
}

void installCrashHandler() {
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(sig, v6tCrashHandler);
  }
}

void dumpRegisteredRings(std::ostream& out) {
  for (std::size_t t = 0; t < g_crashTracerCount; ++t) {
    out << "--- tracer " << t << " ---\n";
    g_crashTracers[t]->dumpRing(out);
  }
}

} // namespace v6t::obs::trace
