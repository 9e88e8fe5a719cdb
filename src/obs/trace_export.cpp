// Chrome trace-event / Perfetto JSON export for the flight recorder.
//
// The sim-domain section is written from the canonical event order, so the
// emitted bytes are identical for any thread count (the byte-identity
// acceptance gate); wall-domain scheduler events live on their own
// process row and are excluded from that normalization. All formatting is
// locale-independent (integer to_string / %llx only — no doubles).
#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/trace.hpp"

namespace v6t::obs::trace {

namespace {

std::string hexId(std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

/// One trace-event object. Sim events render as thread-scoped instants at
/// ts (sim ms -> trace µs); SchedSlice renders as a complete ("X") slice
/// with its measured duration.
void writeEvent(std::ostream& out, const TraceEvent& e, bool& first) {
  if (!first) out << ",\n";
  first = false;
  const bool wall = e.domain == ClockDomain::Wall;
  const std::int64_t ts = wall ? e.ts : e.ts * 1000; // sim ms -> µs
  out << "{\"name\":\"" << toString(e.kind) << "\",\"pid\":"
      << (wall ? 2 : 1) << ",\"tid\":" << e.entity << ",\"ts\":" << ts;
  if (e.kind == EventKind::SchedSlice) {
    out << ",\"ph\":\"X\",\"dur\":" << e.b
        << ",\"args\":{\"index\":" << e.a << "}";
  } else {
    out << ",\"ph\":\"i\",\"s\":\"t\",\"args\":{\"trace\":\""
        << hexId(e.traceId) << "\",\"a\":" << e.a << ",\"b\":" << e.b << "}";
  }
  out << "}";
}

void writeMeta(std::ostream& out, int pid, std::string_view name,
               bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"tid\":0,\"args\":{\"name\":\"" << name << "\"}}";
}

} // namespace

std::vector<TraceEvent> collectCanonicalSimEvents(
    std::span<const Tracer* const> tracers) {
  std::vector<TraceEvent> out;
  std::size_t total = 0;
  for (const Tracer* t : tracers) {
    if (t != nullptr) total += t->retained().size();
  }
  out.reserve(total);
  for (const Tracer* t : tracers) {
    if (t == nullptr) continue;
    for (const TraceEvent& e : t->retained()) {
      if (e.domain == ClockDomain::Sim) out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(), canonicalLess);
  return out;
}

std::vector<TraceEvent> collectWallEvents(
    std::span<const Tracer* const> tracers) {
  std::vector<TraceEvent> out;
  for (const Tracer* t : tracers) {
    if (t == nullptr) continue;
    for (const TraceEvent& e : t->wallEvents()) {
      if (e.domain == ClockDomain::Wall) out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& x,
                                       const TraceEvent& y) {
    return std::tie(x.ts, x.entity, x.a, x.b) <
           std::tie(y.ts, y.entity, y.a, y.b);
  });
  return out;
}

void writeChromeTrace(std::ostream& out,
                      std::span<const TraceEvent> simEvents,
                      std::span<const TraceEvent> wallEvents) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  writeMeta(out, 1, "simulation (sim clock)", first);
  if (!wallEvents.empty()) {
    writeMeta(out, 2, "analysis scheduler (wall clock)", first);
  }
  for (const TraceEvent& e : simEvents) writeEvent(out, e, first);
  for (const TraceEvent& e : wallEvents) writeEvent(out, e, first);
  out << "\n]}\n";
}

std::string chromeTraceJson(std::span<const TraceEvent> simEvents,
                            std::span<const TraceEvent> wallEvents) {
  std::ostringstream out;
  writeChromeTrace(out, simEvents, wallEvents);
  return out.str();
}

} // namespace v6t::obs::trace
