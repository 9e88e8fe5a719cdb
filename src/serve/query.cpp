#include "serve/query.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/stats.hpp"
#include "obs/format.hpp"
#include "serve/http.hpp"

namespace v6t::serve {

namespace {

using Response = QueryEngine::Response;

void appendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

void appendKv(std::string& out, std::string_view key, std::uint64_t v,
              bool comma = true) {
  appendJsonString(out, key);
  out += ':';
  out += std::to_string(v);
  if (comma) out += ',';
}

bool parseU64Param(const std::string& text, std::uint64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parseDoubleParam(const std::string& text, double& out) {
  try {
    std::size_t consumed = 0;
    out = std::stod(text, &consumed);
    return consumed == text.size();
  } catch (...) {
    return false;
  }
}

Response errorResponse(int status, std::string_view message) {
  Response r;
  r.status = status;
  r.body = "{\"error\":";
  appendJsonString(r.body, message);
  r.body += "}\n";
  return r;
}

/// True when two parameters share a name. "Last one wins" would make
/// ?k=3&k=5 and ?k=5&k=3, which share one cache key, answer differently.
bool hasRepeatedName(
    const std::vector<std::pair<std::string, std::string>>& params) {
  std::set<std::string_view> names;
  for (const auto& param : params) {
    if (!names.insert(param.first).second) return true;
  }
  return false;
}

std::string renderTable6(const analysis::CaptureIndex& idx,
                         const analysis::TaxonomyResult& taxonomy) {
  using analysis::NetworkSelection;
  using analysis::TemporalClass;
  auto axis = [&](std::string& out, std::string_view name, auto cls,
                  bool comma) {
    appendJsonString(out, name);
    out += ":{";
    appendKv(out, "scanners", taxonomy.scannersOf(cls));
    appendKv(out, "sessions", taxonomy.sessionsOf(cls), false);
    out += '}';
    if (comma) out += ',';
  };

  std::uint64_t addrSessions[3] = {0, 0, 0};
  for (const analysis::AddressSelection sel : taxonomy.sessionAddrSel) {
    ++addrSessions[static_cast<std::size_t>(sel)];
  }

  std::string b;
  b += '{';
  appendJsonString(b, "endpoint");
  b += ":\"table6\",";
  appendKv(b, "packets", idx.sessionizedPackets());
  appendKv(b, "sources", idx.sourceCount());
  appendKv(b, "sessions", idx.sessions().size());
  appendJsonString(b, "temporal");
  b += ":{";
  axis(b, "one_off", TemporalClass::OneOff, true);
  axis(b, "intermittent", TemporalClass::Intermittent, true);
  axis(b, "periodic", TemporalClass::Periodic, false);
  b += "},";
  appendJsonString(b, "network");
  b += ":{";
  axis(b, "single_prefix", NetworkSelection::SinglePrefix, true);
  axis(b, "size_independent", NetworkSelection::SizeIndependent, true);
  axis(b, "size_dependent", NetworkSelection::SizeDependent, true);
  axis(b, "inconsistent", NetworkSelection::Inconsistent, false);
  b += "},";
  appendJsonString(b, "address_sessions");
  b += ":{";
  appendKv(b, "structured", addrSessions[0]);
  appendKv(b, "random", addrSessions[1]);
  appendKv(b, "unknown", addrSessions[2], false);
  b += "}}\n";
  return b;
}

Response renderReactionDelays(std::span<const net::Packet> packets,
                              const bgp::SplitSchedule* schedule) {
  if (schedule == nullptr) {
    return errorResponse(404,
                         "no split schedule loaded (non-T1 capture?)");
  }
  Response r;
  std::string& b = r.body;
  b += '{';
  appendJsonString(b, "endpoint");
  b += ":\"reaction_delays\",";
  appendJsonString(b, "cycles");
  b += ":[";
  bool first = true;
  for (const bgp::AnnouncementCycle& cycle : schedule->cycles()) {
    if (cycle.index == 0) continue;
    const std::array<net::Prefix, 2> children{cycle.newChildren.first,
                                              cycle.newChildren.second};
    for (const net::Prefix& child : children) {
      // First capture into the newly announced prefix during its cycle.
      // Packets are ts-ordered, so one lower_bound + bounded scan.
      auto it = std::lower_bound(
          packets.begin(), packets.end(), cycle.announceAt,
          [](const net::Packet& p, sim::SimTime t) { return p.ts < t; });
      std::int64_t firstMs = -1;
      for (; it != packets.end() && it->ts < cycle.endsAt; ++it) {
        if (child.contains(it->dst)) {
          firstMs = it->ts.millis();
          break;
        }
      }
      if (!first) b += ',';
      first = false;
      b += '{';
      appendKv(b, "cycle", static_cast<std::uint64_t>(cycle.index));
      appendJsonString(b, "prefix");
      b += ':';
      appendJsonString(b, child.toString());
      b += ',';
      appendJsonString(b, "announce_ms");
      b += ':';
      b += std::to_string(cycle.announceAt.millis());
      b += ',';
      appendJsonString(b, "first_packet_ms");
      b += ':';
      b += std::to_string(firstMs);
      b += ',';
      appendJsonString(b, "delay_seconds");
      b += ':';
      if (firstMs < 0) {
        b += "null";
      } else {
        b += '"';
        b += obs::fmt::fixed(
            static_cast<double>(firstMs - cycle.announceAt.millis()) / 1000.0,
            3);
        b += '"';
      }
      b += '}';
    }
  }
  b += "]}\n";
  return r;
}

} // namespace

QueryEngine::QueryEngine(std::span<const net::Packet> packets,
                         std::span<const telescope::Session> sessions,
                         const bgp::SplitSchedule* schedule,
                         QueryEngineOptions options, obs::Registry* registry)
    : maxK_(options.maxK),
      registry_(registry),
      pipeline_(packets, sessions, registry) {
  std::optional<obs::Span> span;
  if (registry != nullptr) span.emplace(*registry, "serve.precompute_seconds");
  const analysis::CaptureIndex& idx = pipeline_.index();
  const std::size_t n = idx.sourceCount();
  for (std::size_t i = 0; i < n; ++i) {
    if (idx.source(i).agg != idx.source(0).agg) {
      throw std::invalid_argument(
          "serve: session keys mix aggregation levels");
    }
    sourceByAddr_.emplace(idx.source(i).addr, i);
  }

  const analysis::TaxonomyResult taxonomy = analysis::classifyIndexed(
      idx, schedule, options.analysisThreads, nullptr, options.minSplitCost);
  table6_.body = renderTable6(idx, taxonomy);
  reactionDelays_ = renderReactionDelays(packets, schedule);
  temporal_.reserve(n);
  for (const analysis::ScannerProfile& profile : taxonomy.profiles) {
    temporal_.push_back(profile.temporal);
  }

  // No share is at or below -1 %, so this ranks every source.
  ranking_ = analysis::findHeavyHitters(idx, -1.0);
  packetsUpTo_.assign(1, 0);
  sessionsUpTo_.assign(1, 0);
  for (const analysis::HeavyHitter& h : ranking_) {
    packetsUpTo_.push_back(packetsUpTo_.back() + h.packets);
    sessionsUpTo_.push_back(sessionsUpTo_.back() + h.sessions);
  }
}

bool QueryEngine::cacheable(std::string_view path) {
  return path != "/metrics" && path != "/healthz";
}

std::string_view QueryEngine::endpointLabel(std::string_view path) {
  if (path == "/reports/table6") return "table6";
  if (path == "/heavy-hitters") return "heavy_hitters";
  if (path.starts_with("/sources/")) return "sources";
  if (path == "/reaction-delays") return "reaction_delays";
  if (path == "/metrics") return "metrics";
  if (path == "/healthz") return "healthz";
  return "other";
}

QueryEngine::Response QueryEngine::evaluate(std::string_view target) const {
  const auto parsed = parseTarget(target);
  if (!parsed) return errorResponse(400, "malformed target");
  if (hasRepeatedName(parsed->params)) {
    return errorResponse(400, "repeated parameter");
  }
  const std::string& path = parsed->path;

  if (path == "/healthz") {
    return Response{200, "application/json", "{\"status\":\"ok\"}\n"};
  }
  if (path == "/metrics") return metricsText();
  if (path == "/reports/table6") return table6_;
  if (path == "/heavy-hitters") return heavyHitters(parsed->params);
  if (path == "/reaction-delays") return reactionDelays_;
  if (path.starts_with("/sources/")) {
    return sourceDetail(std::string_view{path}.substr(9));
  }
  return errorResponse(404, "unknown endpoint");
}

QueryEngine::Response QueryEngine::heavyHitters(
    const std::vector<std::pair<std::string, std::string>>& params) const {
  std::uint64_t k = 10;
  double threshold = 10.0;
  for (const auto& [key, value] : params) {
    if (key == "k") {
      if (!parseU64Param(value, k) || k < 1 || k > maxK_) {
        return errorResponse(400, "k must be an integer in [1, max]");
      }
    } else if (key == "threshold") {
      if (!parseDoubleParam(value, threshold) || !(threshold > 0.0) ||
          threshold > 100.0) {
        return errorResponse(400, "threshold must be in (0, 100]");
      }
    } else {
      return errorResponse(400, "unknown parameter");
    }
  }

  // The hitters are the ranking's prefix above the threshold, and their
  // impact the prefix sums at its end.
  const std::size_t hitters = static_cast<std::size_t>(
      std::partition_point(ranking_.begin(), ranking_.end(),
                           [&](const analysis::HeavyHitter& h) {
                             return h.shareOfTelescope > threshold;
                           }) -
      ranking_.begin());
  const analysis::CaptureIndex& idx = pipeline_.index();
  const std::uint64_t impactPackets = packetsUpTo_[hitters];
  const std::uint64_t impactSessions = sessionsUpTo_[hitters];

  Response r;
  std::string& b = r.body;
  b += '{';
  appendJsonString(b, "endpoint");
  b += ":\"heavy_hitters\",";
  appendJsonString(b, "threshold_percent");
  b += ":\"" + obs::fmt::fixed(threshold, 2) + "\",";
  appendKv(b, "k", k);
  appendKv(b, "total", hitters);
  appendJsonString(b, "hitters");
  b += ":[";
  const std::size_t shown =
      std::min<std::size_t>(hitters, static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < shown; ++i) {
    const analysis::HeavyHitter& h = ranking_[i];
    if (i > 0) b += ',';
    b += '{';
    appendJsonString(b, "source");
    b += ':';
    appendJsonString(b, h.source.toString());
    b += ',';
    appendKv(b, "asn", h.asn.value());
    appendKv(b, "packets", h.packets);
    appendJsonString(b, "share_percent");
    b += ":\"" + obs::fmt::fixed(h.shareOfTelescope, 4) + "\",";
    appendKv(b, "sessions", h.sessions);
    appendKv(b, "first_day", static_cast<std::uint64_t>(h.firstDay));
    appendKv(b, "last_day", static_cast<std::uint64_t>(h.lastDay), false);
    b += '}';
  }
  b += "],";
  appendJsonString(b, "impact");
  b += ":{";
  appendKv(b, "packets", impactPackets);
  appendKv(b, "sessions", impactSessions);
  appendJsonString(b, "packet_share_percent");
  b += ":\"" +
       obs::fmt::fixed(analysis::percent(impactPackets, idx.packets().size()),
                       4) +
       "\",";
  appendJsonString(b, "session_share_percent");
  b += ":\"" +
       obs::fmt::fixed(
           analysis::percent(impactSessions, idx.sessions().size()), 4) +
       "\"}}\n";
  return r;
}

QueryEngine::Response QueryEngine::sourceDetail(
    std::string_view addrText) const {
  const auto addr = net::Ipv6Address::parse(addrText);
  if (!addr) return errorResponse(400, "bad IPv6 address");
  const auto it = sourceByAddr_.find(*addr);
  if (it == sourceByAddr_.end()) {
    return errorResponse(404, "source not observed");
  }
  const std::size_t i = it->second;
  const analysis::CaptureIndex& idx = pipeline_.index();
  const analysis::CaptureIndex::SourceAggregates& agg = idx.aggregatesOf(i);
  const auto starts = idx.sessionStartsOf(i);
  const analysis::TemporalResult& temporal = temporal_[i];

  Response r;
  std::string& b = r.body;
  b += '{';
  appendJsonString(b, "endpoint");
  b += ":\"source\",";
  appendJsonString(b, "source");
  b += ':';
  appendJsonString(b, addr->toString());
  b += ',';
  appendKv(b, "asn", agg.asn.value());
  appendKv(b, "packets", agg.packets);
  appendKv(b, "sessions", idx.sessionsOf(i).size());
  appendKv(b, "first_day", static_cast<std::uint64_t>(agg.firstDay));
  appendKv(b, "last_day", static_cast<std::uint64_t>(agg.lastDay));
  appendJsonString(b, "temporal");
  b += ":\"";
  b += analysis::toString(temporal.cls);
  b += "\",";
  appendJsonString(b, "period_ms");
  b += ':';
  b += temporal.period ? std::to_string(temporal.period->millis()) : "null";
  b += ',';
  appendJsonString(b, "session_starts_ms");
  b += ":[";
  for (std::size_t s = 0; s < starts.size(); ++s) {
    if (s > 0) b += ',';
    b += std::to_string(starts[s].millis());
  }
  b += "]}\n";
  return r;
}

QueryEngine::Response QueryEngine::metricsText() const {
  Response r;
  r.contentType = "text/plain; version=0.0.4";
  if (registry_ != nullptr) {
    std::ostringstream out;
    registry_->writePrometheus(out);
    r.body = out.str();
  }
  return r;
}

} // namespace v6t::serve
