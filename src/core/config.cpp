#include "core/config.hpp"

#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>

namespace v6t::core {

namespace {

std::string trim(std::string_view text) {
  const auto first = text.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return {};
  const auto last = text.find_last_not_of(" \t\r");
  return std::string{text.substr(first, last - first + 1)};
}

} // namespace

bool parseU64(const std::string& text, std::uint64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool flagU64(const char* flag, const char* text, std::uint64_t lo,
             std::uint64_t hi, std::uint64_t& out) {
  if (parseU64(text, out) && out >= lo && out <= hi) return true;
  std::cerr << flag << " takes an integer in [" << lo << ", " << hi
            << "], not '" << text << "'\n";
  return false;
}

bool parseDouble(const std::string& text, double& out) {
  try {
    std::size_t consumed = 0;
    out = std::stod(text, &consumed);
    return consumed == text.size();
  } catch (...) {
    return false;
  }
}

ConfigParseResult parseExperimentConfig(std::istream& in) {
  ConfigParseResult result;
  std::string line;
  int lineNo = 0;
  auto error = [&](const std::string& message) {
    result.errors.push_back("line " + std::to_string(lineNo) + ": " +
                            message);
  };

  while (std::getline(in, line)) {
    ++lineNo;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      error("expected 'key = value'");
      continue;
    }
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    if (key.empty() || value.empty()) {
      error("empty key or value");
      continue;
    }

    ExperimentConfig& c = result.config;
    auto setPrefix = [&](net::Prefix& out) {
      if (auto p = net::Prefix::parse(value)) {
        out = *p;
      } else {
        error("bad prefix '" + value + "'");
      }
    };
    auto setAddress = [&](net::Ipv6Address& out) {
      if (auto a = net::Ipv6Address::parse(value)) {
        out = *a;
      } else {
        error("bad address '" + value + "'");
      }
    };
    auto setU64 = [&](std::uint64_t& out) {
      if (!parseU64(value, out)) error("bad integer '" + value + "'");
    };
    auto setScale = [&](double& out) {
      double v = 0;
      if (!parseDouble(value, v) || !(v > 0.0 && v <= 1.0)) {
        error("scale must be in (0, 1]: '" + value + "'");
      } else {
        out = v;
      }
    };
    auto setWeeks = [&](sim::Duration& out) {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v == 0 || v > 520) {
        error("weeks must be 1..520: '" + value + "'");
      } else {
        out = sim::weeks(static_cast<std::int64_t>(v));
      }
    };

    if (key == "seed") {
      setU64(c.seed);
    } else if (key == "source_scale") {
      setScale(c.sourceScale);
    } else if (key == "volume_scale") {
      setScale(c.volumeScale);
    } else if (key == "baseline_weeks") {
      setWeeks(c.baseline);
    } else if (key == "cycle_weeks") {
      setWeeks(c.cycle);
    } else if (key == "splits") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v < 1 || v > 90) {
        error("splits must be 1..90: '" + value + "'");
      } else {
        c.splits = static_cast<int>(v);
      }
    } else if (key == "withdraw_gap_days") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v > 13) {
        error("withdraw_gap_days must be 0..13: '" + value + "'");
      } else {
        c.withdrawGap = sim::days(static_cast<std::int64_t>(v));
      }
    } else if (key == "route_object_weeks") {
      setWeeks(c.routeObjectAt);
    } else if (key == "t1_base") {
      setPrefix(c.t1Base);
    } else if (key == "t2_prefix") {
      setPrefix(c.t2Prefix);
    } else if (key == "t2_productive") {
      setPrefix(c.t2Productive);
    } else if (key == "t2_attractor") {
      setAddress(c.t2Attractor);
    } else if (key == "covering") {
      setPrefix(c.covering);
    } else if (key == "t3_prefix") {
      setPrefix(c.t3Prefix);
    } else if (key == "t4_prefix") {
      setPrefix(c.t4Prefix);
    } else if (key == "threads") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v < 1 || v > 64) {
        error("threads must be 1..64: '" + value + "'");
      } else {
        c.threads = static_cast<unsigned>(v);
      }
    } else if (key == "analysis.threads") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v > 64) {
        error("analysis.threads must be 0..64 (0 = inherit threads): '" +
              value + "'");
      } else {
        c.analysisThreads = static_cast<unsigned>(v);
      }
    } else if (key == "analysis.min_split_cost") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v < 1) {
        error("analysis.min_split_cost must be >= 1: '" + value + "'");
      } else {
        c.analysisMinSplitCost = v;
      }
    } else if (key == "capture.spill_dir") {
      c.captureSpillDir = value;
    } else if (key == "capture.spill_bytes") {
      setU64(c.captureSpillBytes);
    } else if (key == "serve.port") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v > 65535) {
        error("serve.port must be 0..65535 (0 = ephemeral): '" + value +
              "'");
      } else {
        c.servePort = static_cast<std::uint16_t>(v);
      }
    } else if (key == "serve.threads") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v < 1 || v > 64) {
        error("serve.threads must be 1..64: '" + value + "'");
      } else {
        c.serveThreads = static_cast<unsigned>(v);
      }
    } else if (key == "serve.cache_bytes") {
      setU64(c.serveCacheBytes);
    } else if (key == "serve.cache_shards") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v < 1 || v > 256) {
        error("serve.cache_shards must be 1..256: '" + value + "'");
      } else {
        c.serveCacheShards = static_cast<unsigned>(v);
      }
    } else if (key == "serve.max_connections") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v < 1 || v > 65536) {
        error("serve.max_connections must be 1..65536: '" + value + "'");
      } else {
        c.serveMaxConnections = static_cast<unsigned>(v);
      }
    } else if (key == "serve.max_request_bytes") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v < 512 || v > (1u << 20)) {
        error("serve.max_request_bytes must be 512..1048576: '" + value +
              "'");
      } else {
        c.serveMaxRequestBytes = static_cast<unsigned>(v);
      }
    } else if (key == "serve.idle_timeout_seconds") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v < 1 || v > 3600) {
        error("serve.idle_timeout_seconds must be 1..3600: '" + value +
              "'");
      } else {
        c.serveIdleTimeoutSeconds = static_cast<unsigned>(v);
      }
    } else if (key == "trace.enabled") {
      if (value == "true" || value == "1") {
        c.traceEnabled = true;
      } else if (value == "false" || value == "0") {
        c.traceEnabled = false;
      } else {
        error("trace.enabled must be true/false: '" + value + "'");
      }
    } else if (key == "trace.ring_size") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v < 1 || v > (1ULL << 28)) {
        error("trace.ring_size must be 1..2^28: '" + value + "'");
      } else {
        c.traceRingSize = static_cast<std::size_t>(v);
      }
    } else if (key == "our_asn") {
      std::uint64_t v = 0;
      if (!parseU64(value, v) || v == 0 || v > 0xffffffffULL) {
        error("bad ASN '" + value + "'");
      } else {
        c.ourAsn = net::Asn{static_cast<std::uint32_t>(v)};
      }
    } else if (key == "fault_seed") {
      setU64(c.faultSeed);
    } else if (key.starts_with("faults.")) {
      const std::string faultError =
          c.faults.applyKey(std::string_view{key}.substr(7), value);
      if (!faultError.empty()) error(faultError);
    } else {
      error("unknown key '" + key + "'");
    }
  }

  // Semantic validation.
  ++lineNo;
  if (result.ok()) {
    if (!result.config.covering.covers(result.config.t3Prefix)) {
      error("t3_prefix must lie inside covering");
    }
    if (!result.config.covering.covers(result.config.t4Prefix)) {
      error("t4_prefix must lie inside covering");
    }
    if (!result.config.t2Prefix.contains(result.config.t2Attractor)) {
      error("t2_attractor must lie inside t2_prefix");
    }
    if (result.config.t2Productive.contains(result.config.t2Attractor)) {
      error("t2_attractor must not lie inside t2_productive");
    }
    const unsigned deepest =
        result.config.t1Base.length() +
        static_cast<unsigned>(result.config.splits);
    if (deepest > 128) {
      error("splits exceed the host bits of t1_base");
    }
  }
  return result;
}

ConfigParseResult parseExperimentConfig(const std::string& text) {
  std::istringstream in{text};
  return parseExperimentConfig(in);
}

std::optional<ExperimentConfig> loadConfigFile(const std::string& path) {
  if (path.empty()) return ExperimentConfig{};
  std::ifstream in{path};
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return std::nullopt;
  }
  const ConfigParseResult parsed = parseExperimentConfig(in);
  for (const std::string& e : parsed.errors) {
    std::cerr << path << ": " << e << "\n";
  }
  if (!parsed.ok()) return std::nullopt;
  return parsed.config;
}

std::string formatExperimentConfig(const ExperimentConfig& c) {
  std::ostringstream out;
  out << "# v6telescope experiment configuration\n"
      << "seed = " << c.seed << "\n"
      << "source_scale = " << fault::formatDouble(c.sourceScale) << "\n"
      << "volume_scale = " << fault::formatDouble(c.volumeScale) << "\n"
      << "baseline_weeks = " << c.baseline.millis() / sim::weeks(1).millis()
      << "\n"
      << "cycle_weeks = " << c.cycle.millis() / sim::weeks(1).millis() << "\n"
      << "splits = " << c.splits << "\n"
      << "withdraw_gap_days = "
      << c.withdrawGap.millis() / sim::days(1).millis() << "\n"
      << "route_object_weeks = "
      << c.routeObjectAt.millis() / sim::weeks(1).millis() << "\n"
      << "t1_base = " << c.t1Base.toString() << "\n"
      << "t2_prefix = " << c.t2Prefix.toString() << "\n"
      << "t2_productive = " << c.t2Productive.toString() << "\n"
      << "t2_attractor = " << c.t2Attractor.toString() << "\n"
      << "covering = " << c.covering.toString() << "\n"
      << "t3_prefix = " << c.t3Prefix.toString() << "\n"
      << "t4_prefix = " << c.t4Prefix.toString() << "\n"
      << "our_asn = " << c.ourAsn.value() << "\n"
      << "threads = " << c.threads << "\n";
  // Printed only when set: 0 (inherit `threads`) formats exactly as
  // configs did before the analysis pipeline existed (golden round-trip
  // test).
  if (c.analysisThreads != 0) {
    out << "analysis.threads = " << c.analysisThreads << "\n";
  }
  if (c.analysisMinSplitCost != ExperimentConfig{}.analysisMinSplitCost) {
    out << "analysis.min_split_cost = " << c.analysisMinSplitCost << "\n";
  }
  // Spill keys only when configured: in-memory configs format exactly as
  // they did before the out-of-core store existed (golden round-trip).
  if (!c.captureSpillDir.empty()) {
    out << "capture.spill_dir = " << c.captureSpillDir << "\n";
  }
  if (c.captureSpillBytes != 0) {
    out << "capture.spill_bytes = " << c.captureSpillBytes << "\n";
  }
  // Serve keys only when non-default: configs written before the query
  // service existed keep formatting byte-identically (golden round-trip).
  {
    const ExperimentConfig defaults;
    if (c.servePort != defaults.servePort) {
      out << "serve.port = " << c.servePort << "\n";
    }
    if (c.serveThreads != defaults.serveThreads) {
      out << "serve.threads = " << c.serveThreads << "\n";
    }
    if (c.serveCacheBytes != defaults.serveCacheBytes) {
      out << "serve.cache_bytes = " << c.serveCacheBytes << "\n";
    }
    if (c.serveCacheShards != defaults.serveCacheShards) {
      out << "serve.cache_shards = " << c.serveCacheShards << "\n";
    }
    if (c.serveMaxConnections != defaults.serveMaxConnections) {
      out << "serve.max_connections = " << c.serveMaxConnections << "\n";
    }
    if (c.serveMaxRequestBytes != defaults.serveMaxRequestBytes) {
      out << "serve.max_request_bytes = " << c.serveMaxRequestBytes << "\n";
    }
    if (c.serveIdleTimeoutSeconds != defaults.serveIdleTimeoutSeconds) {
      out << "serve.idle_timeout_seconds = " << c.serveIdleTimeoutSeconds
          << "\n";
    }
  }
  // Trace keys only when non-default, same golden round-trip reasoning.
  if (c.traceEnabled) out << "trace.enabled = true\n";
  if (c.traceRingSize != ExperimentConfig{}.traceRingSize) {
    out << "trace.ring_size = " << c.traceRingSize << "\n";
  }
  // Fault keys only when configured: fault-free configs format exactly as
  // they did before the fault layer existed (golden round-trip test).
  if (c.faultSeed != ExperimentConfig{}.faultSeed || !c.faults.empty()) {
    out << "fault_seed = " << c.faultSeed << "\n";
  }
  out << c.faults.formatKeys("faults.");
  return out.str();
}

} // namespace v6t::core
