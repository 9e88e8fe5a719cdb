// v6t_perfbench — one run of one repo-benchmark workload.
//
//   v6t_perfbench --workload experiment|spill|query_mix --seed N
//                 --seconds S --trace 0|1 [--tiny] [--references FILE]
//                 [--spans FILE] [--scratch DIR] [--corrupt-body]
//
// Prints a human-readable log, a provenance line, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when any correctness check failed, 2 on bad arguments.
// perfbench/run.py builds this binary and is the benchmark's entry point.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "analysis/capture_index.hpp"
#include "analysis/simd.hpp"
#include "common.hpp"
#include "core/config.hpp"
#include "obs/trace.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::cerr << "v6t_perfbench: " << why
            << "\nusage: v6t_perfbench --workload experiment|spill|query_mix"
               " --seed N --seconds S --trace 0|1\n"
               "       [--tiny] [--references FILE] [--spans FILE]"
               " [--scratch DIR] [--corrupt-body]\n";
  return 2;
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// The metrics as the workload set them, each with its own unit. run.py
/// compares names and units with BENCHMARK.json.
void printMetrics(std::ostream& out, const Metrics& metrics) {
  out << "{";
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    out << sep << "\"" << name << "\": {\"value\": " << number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  out << "}";
}

} // namespace

int main(int argc, char** argv) {
  const auto processStart = Clock::now();
  Options opts;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  std::string referencesPath;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--corrupt-body") {
      opts.corruptBody = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--references" ||
               arg == "--spans" || arg == "--scratch") {
      const char* v = value();
      if (v == nullptr) return usage(("missing value for " + arg).c_str());
      char* end = nullptr;
      if (arg == "--workload") {
        opts.workload = v;
      } else if (arg == "--seed") {
        opts.seed = std::strtoull(v, &end, 10);
        haveSeed = *v != '\0' && *end == '\0';
      } else if (arg == "--seconds") {
        opts.seconds = std::strtod(v, &end);
        haveSeconds = *end == '\0' && opts.seconds > 0.0;
      } else if (arg == "--trace") {
        const std::string t = v;
        haveTrace = t == "0" || t == "1";
        opts.trace = t == "1";
      } else if (arg == "--references") {
        referencesPath = v;
      } else if (arg == "--spans") {
        opts.spanPath = v;
      } else {
        opts.scratchDir = v;
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opts.workload != "experiment" && opts.workload != "spill" &&
      opts.workload != "query_mix") {
    return usage("--workload must be experiment, spill or query_mix");
  }
  if (!haveSeed || !haveSeconds || !haveTrace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (!referencesPath.empty()) {
    std::string error;
    if (!opts.references.load(referencesPath, error)) return usage(error.c_str());
  }
  if (opts.scratchDir.empty()) {
    opts.scratchDir = (std::filesystem::current_path() / "perfbench-scratch")
                          .string();
  }
  std::filesystem::create_directories(opts.scratchDir);

  const v6t::core::ExperimentConfig config = benchConfig(opts.seed, opts.tiny);
  const std::uint64_t configHash =
      fnv1a(v6t::core::formatExperimentConfig(config));

  SpanRecorder spans{opts.trace};
  Outcome outcome;
  if (opts.workload == "experiment") {
    outcome = runExperiment(opts, spans);
  } else if (opts.workload == "spill") {
    outcome = runSpill(opts, spans);
  } else {
    outcome = runQueryMix(opts, spans);
  }

  // Process-level accounting, then the spin probe (its threads must not
  // count in the workload's CPU time).
  const double cpu = processCpuSeconds();
  const double wall = secondsSince(processStart);
  const unsigned cores = nproc();
  const double effective = effectiveCores(cores);
  outcome.perLayer["proc.cpu_s"] = {cpu, "s"};
  outcome.perLayer["proc.parallelism"] = {wall > 0 ? cpu / wall : 0.0,
                                          "ratio"};
  outcome.perLayer["proc.effective_cores"] = {effective, "cores"};

  for (const std::string& f : outcome.failures) {
    std::cout << "FAILED: " << f << "\n";
  }
  const double errorRate =
      outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 1.0;
  std::cout << "error_rate: " << number(errorRate) << " ratio ("
            << outcome.failed << " failed / " << outcome.attempted
            << " attempted)\n";
  if (opts.trace && !opts.spanPath.empty()) {
    if (spans.write(opts.spanPath)) {
      std::cout << "spans: " << spans.spans().size() << " written to "
                << opts.spanPath << "\n";
    } else {
      std::cout << "FAILED: cannot write " << opts.spanPath << "\n";
      ++outcome.failed;
    }
  }

  std::cout << "{\"provenance\": {\"workload\": \"" << opts.workload
            << "\", \"seed\": " << opts.seed << ", \"scale\": \""
            << (opts.tiny ? "tiny" : "default") << "\", \"seconds\": "
            << number(opts.seconds) << ", \"config_hash\": \""
            << hex(configHash) << "\", \"build_type\": \""
            << V6T_PERFBENCH_BUILD_TYPE << "\", \"compiler\": \"gcc "
            << __VERSION__ << "\", \"V6T_SIMD\": "
            << (v6t::analysis::kSimdCompiledIn ? 1 : 0)
            << ", \"V6T_TRACE\": " << (v6t::obs::trace::kCompiledIn ? 1 : 0)
            << ", \"V6T_INDEX_STATS\": "
            << (v6t::analysis::kIndexStatsCompiledIn ? 1 : 0)
            << ", \"nproc\": " << cores
            << ", \"effective_cores\": " << number(effective) << "}}\n";

  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(outcome.attempted, 1)
            << ", \"failed\": " << outcome.failed << ", \"metrics\": ";
  printMetrics(std::cout, opts.trace ? outcome.perLayer : outcome.endToEnd);
  std::cout << "}" << std::endl;
  return correct ? 0 : 1;
}
