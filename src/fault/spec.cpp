#include "fault/spec.hpp"

#include <charconv>
#include <limits>
#include <sstream>

namespace v6t::fault {

namespace {

std::string trim(std::string_view text) {
  const auto first = text.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return {};
  const auto last = text.find_last_not_of(" \t\r");
  return std::string{text.substr(first, last - first + 1)};
}

bool parseI64(std::string_view text, std::int64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parseProb(std::string_view text, double& out) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(std::string{text}, &consumed);
    if (consumed != text.size() || !(v >= 0.0 && v <= 1.0)) return false;
    out = v;
    return true;
  } catch (...) {
    return false;
  }
}

/// Telescope scope name -> index; "all" -> -1; nullopt on error.
std::optional<int> parseScope(std::string_view text) {
  if (text == "all") return -1;
  if (text.size() == 2 && text[0] == 'T' && text[1] >= '1' && text[1] <= '4') {
    return text[1] - '1';
  }
  return std::nullopt;
}

} // namespace

std::optional<sim::Duration> parseDuration(std::string_view text) {
  // Unit suffix: "ms" first (so "5ms" is not read as 5 milli-"s").
  std::int64_t scale = 0;
  std::string_view digits;
  if (text.size() > 2 && text.substr(text.size() - 2) == "ms") {
    scale = 1;
    digits = text.substr(0, text.size() - 2);
  } else if (!text.empty()) {
    switch (text.back()) {
      case 's': scale = 1000; break;
      case 'm': scale = 60LL * 1000; break;
      case 'h': scale = 3600LL * 1000; break;
      case 'd': scale = 24LL * 3600 * 1000; break;
      case 'w': scale = 7LL * 24 * 3600 * 1000; break;
      default: return std::nullopt;
    }
    digits = text.substr(0, text.size() - 1);
  } else {
    return std::nullopt;
  }
  std::int64_t n = 0;
  if (!parseI64(digits, n) || n < 0 ||
      n > std::numeric_limits<std::int64_t>::max() / scale) {
    return std::nullopt;
  }
  return sim::Duration{n * scale};
}

std::string formatDuration(sim::Duration d) {
  const std::int64_t ms = d.millis();
  struct Unit {
    std::int64_t scale;
    const char* suffix;
  };
  // Largest unit that divides the value exactly, so round-trips are exact.
  static constexpr Unit kUnits[] = {
      {7LL * 24 * 3600 * 1000, "w"}, {24LL * 3600 * 1000, "d"},
      {3600LL * 1000, "h"},          {60LL * 1000, "m"},
      {1000, "s"},
  };
  for (const Unit& u : kUnits) {
    if (ms != 0 && ms % u.scale == 0) {
      return std::to_string(ms / u.scale) + u.suffix;
    }
  }
  return std::to_string(ms) + "ms";
}

std::string formatDouble(double v) {
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general);
  return std::string(buf, end);
}

bool FaultSpec::empty() const {
  return !hasBgpFaults() && !hasPacketFaults() && stallProb <= 0.0;
}

bool FaultSpec::hasPacketFaults() const {
  return packetLossProb > 0.0 || packetDupProb > 0.0 || truncateProb > 0.0 ||
         !gaps.empty();
}

bool FaultSpec::hasBgpFaults() const {
  return bgpDropProb > 0.0 || bgpDupProb > 0.0 || bgpDelayProb > 0.0 ||
         !flaps.empty() || coveringOutageAt.has_value();
}

std::vector<std::pair<sim::SimTime, sim::SimTime>> FaultSpec::gapWindowsFor(
    std::size_t telescopeIdx) const {
  std::vector<std::pair<sim::SimTime, sim::SimTime>> out;
  for (const CaptureGap& g : gaps) {
    if (g.applies(telescopeIdx)) out.emplace_back(g.start, g.end);
  }
  return out;
}

std::string FaultSpec::applyKey(std::string_view key, std::string_view value) {
  const std::string v = trim(value);
  auto prob = [&](double& out) -> std::string {
    if (!parseProb(v, out)) {
      return "probability must be in [0, 1]: '" + v + "'";
    }
    return {};
  };
  // Every fault start and duration, at most kMaxFaultSpan.
  const auto bounded =
      [](std::string_view text) -> std::optional<sim::Duration> {
    const auto d = parseDuration(text);
    if (!d || *d > kMaxFaultSpan) return std::nullopt;
    return d;
  };
  auto duration = [&](sim::Duration& out) -> std::string {
    if (const auto d = bounded(v)) {
      out = *d;
      return {};
    }
    return "bad duration '" + v +
           "' (want <int><ms|s|m|h|d|w>, at most 520w)";
  };

  if (key == "bgp_drop") return prob(bgpDropProb);
  if (key == "bgp_dup") return prob(bgpDupProb);
  if (key == "bgp_delay") return prob(bgpDelayProb);
  if (key == "bgp_delay_max") return duration(bgpDelayMax);
  if (key == "packet_loss") return prob(packetLossProb);
  if (key == "packet_dup") return prob(packetDupProb);
  if (key == "truncate") return prob(truncateProb);
  if (key == "stall") return prob(stallProb);
  if (key == "stall_for") return duration(stallFor);
  if (key == "covering_outage") {
    // <start>+<duration>
    const auto plus = v.find('+');
    if (plus == std::string::npos) {
      return "covering_outage wants <start>+<duration>: '" + v + "'";
    }
    const auto start = bounded(v.substr(0, plus));
    const auto dur = bounded(v.substr(plus + 1));
    if (!start || !dur || dur->millis() <= 0) {
      return "bad covering_outage '" + v + "'";
    }
    coveringOutageAt = sim::kEpoch + *start;
    coveringOutageFor = *dur;
    return {};
  }
  if (key == "gap") {
    // <all|T1..T4>@<start>+<duration>
    const auto at = v.find('@');
    const auto plus = v.find('+', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || plus == std::string::npos) {
      return "gap wants <all|T1..T4>@<start>+<duration>: '" + v + "'";
    }
    const auto scope = parseScope(v.substr(0, at));
    const auto start = bounded(v.substr(at + 1, plus - at - 1));
    const auto dur = bounded(v.substr(plus + 1));
    if (!scope || !start || !dur || dur->millis() <= 0) {
      return "bad gap '" + v + "'";
    }
    gaps.push_back(CaptureGap{*scope, sim::kEpoch + *start,
                              sim::kEpoch + *start + *dur});
    return {};
  }
  if (key == "flap") {
    // <prefix>@<start>+<period>/<down>*<count>   ('/' after '@': the
    // prefix's own '/len' comes first)
    const auto at = v.find('@');
    if (at == std::string::npos) {
      return "flap wants <prefix>@<start>+<period>/<down>*<count>: '" + v +
             "'";
    }
    const auto prefix = net::Prefix::parse(v.substr(0, at));
    const auto plus = v.find('+', at);
    const auto slash = v.find('/', at);
    const auto star = v.find('*', at);
    if (!prefix || plus == std::string::npos || slash == std::string::npos ||
        star == std::string::npos || !(plus < slash && slash < star)) {
      return "bad flap '" + v + "'";
    }
    const auto start = bounded(v.substr(at + 1, plus - at - 1));
    const auto period = bounded(v.substr(plus + 1, slash - plus - 1));
    const auto down = bounded(v.substr(slash + 1, star - slash - 1));
    std::int64_t count = 0;
    if (!start || !period || !down || period->millis() <= 0 ||
        down->millis() <= 0 || *down >= *period ||
        !parseI64(v.substr(star + 1), count) || count < 1 || count > 10000) {
      return "bad flap '" + v + "'";
    }
    flaps.push_back(PrefixFlap{*prefix, sim::kEpoch + *start, *period, *down,
                               static_cast<int>(count)});
    return {};
  }
  return "unknown fault key '" + std::string{key} + "'";
}

FaultSpec::ParseResult FaultSpec::parse(std::string_view text) {
  ParseResult result;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const std::string_view element =
        text.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                         : comma - pos);
    pos = comma == std::string_view::npos ? text.size() + 1 : comma + 1;
    const std::string entry = trim(element);
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos) {
      result.errors.push_back("expected key=value: '" + entry + "'");
      continue;
    }
    const std::string key = trim(entry.substr(0, eq));
    const std::string error =
        result.spec.applyKey(key, entry.substr(eq + 1));
    if (!error.empty()) result.errors.push_back(error);
  }
  return result;
}

std::string FaultSpec::formatKeys(std::string_view prefix) const {
  if (empty()) return {};
  std::ostringstream out;
  auto emit = [&](std::string_view key, const std::string& value) {
    out << prefix << key << " = " << value << "\n";
  };
  if (bgpDropProb > 0.0) emit("bgp_drop", formatDouble(bgpDropProb));
  if (bgpDupProb > 0.0) emit("bgp_dup", formatDouble(bgpDupProb));
  if (bgpDelayProb > 0.0) {
    emit("bgp_delay", formatDouble(bgpDelayProb));
    emit("bgp_delay_max", formatDuration(bgpDelayMax));
  }
  for (const PrefixFlap& f : flaps) {
    emit("flap", f.prefix.toString() + "@" +
                     formatDuration(f.start - sim::kEpoch) + "+" +
                     formatDuration(f.period) + "/" + formatDuration(f.down) +
                     "*" + std::to_string(f.count));
  }
  if (coveringOutageAt) {
    emit("covering_outage", formatDuration(*coveringOutageAt - sim::kEpoch) +
                                "+" + formatDuration(coveringOutageFor));
  }
  if (packetLossProb > 0.0) emit("packet_loss", formatDouble(packetLossProb));
  if (packetDupProb > 0.0) emit("packet_dup", formatDouble(packetDupProb));
  if (truncateProb > 0.0) emit("truncate", formatDouble(truncateProb));
  for (const CaptureGap& g : gaps) {
    const std::string scope =
        g.telescope < 0 ? "all" : "T" + std::to_string(g.telescope + 1);
    emit("gap", scope + "@" + formatDuration(g.start - sim::kEpoch) + "+" +
                    formatDuration(g.duration()));
  }
  if (stallProb > 0.0) {
    emit("stall", formatDouble(stallProb));
    emit("stall_for", formatDuration(stallFor));
  }
  return out.str();
}

} // namespace v6t::fault
