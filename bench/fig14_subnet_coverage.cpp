// Fig. 14 — packets per temporal scanner class across the /48 subnets of
// T1's /32, ranked from most- to least-probed: one-off scanners focus on
// few subnets, intermittent scanners cover the range more evenly.
#include <unordered_map>

#include "analysis/report.hpp"
#include "analysis/taxonomy.hpp"
#include "bench/harness.hpp"

int main() {
  using namespace v6t;
  bench::RunContext ctx = bench::runStandard(
      "Fig. 14: packets per scanner type across /48 subnets of T1");

  const core::Period split = ctx.splitPeriod();
  const auto& capture = ctx.runner->capture(core::T1);
  const auto sessions =
      core::sessionsIn(ctx.summary.telescope(core::T1).sessions128, split);
  analysis::Pipeline pipeline{capture.packets(), sessions};
  analysis::PipelineOptions opts;
  opts.threads = bench::analysisThreads();
  opts.heavyHitters = false;
  opts.fingerprint = false;
  const auto taxonomy = pipeline.run(&ctx.runner->schedule(), opts).taxonomy;

  // subnet key: the /48 index within the /32 (16 bits). The per-session
  // hi64 target lanes come straight from the shared index — no second
  // walk over the packet vector.
  std::unordered_map<std::uint16_t, std::uint64_t> perClass[3];
  for (const auto& profile : taxonomy.profiles) {
    const auto cls = static_cast<std::size_t>(profile.temporal.cls);
    for (std::uint32_t si : profile.sessionIdx) {
      for (const std::uint64_t hi : pipeline.index().columnsOf(si).hi) {
        const auto subnet = static_cast<std::uint16_t>((hi >> 16) & 0xffff);
        ++perClass[cls][subnet];
      }
    }
  }

  analysis::TextTable table{
      {"class", "subnets hit", "top subnet", "top pkts", "p50 pkts",
       "total pkts"}};
  const char* names[3] = {"one-off", "intermittent", "periodic"};
  for (int cls = 0; cls < 3; ++cls) {
    std::vector<std::pair<std::uint16_t, std::uint64_t>> ranked(
        perClass[cls].begin(), perClass[cls].end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    std::uint64_t total = 0;
    for (const auto& [subnet, count] : ranked) total += count;
    char top[8] = "-";
    if (!ranked.empty()) {
      std::snprintf(top, sizeof(top), "%04x", ranked.front().first);
    }
    table.addRow({names[cls], std::to_string(ranked.size()), top,
                  ranked.empty() ? "0"
                                 : analysis::withThousands(
                                       ranked.front().second),
                  ranked.empty()
                      ? "0"
                      : std::to_string(ranked[ranked.size() / 2].second),
                  analysis::withThousands(total)});
  }
  table.render(std::cout);

  // Ranked curve, coarse: share of each class's packets in its top-k
  // subnets (concentration signature).
  std::cout << "\nconcentration (share of class packets in top-k subnets)\n";
  analysis::TextTable conc{{"class", "top-1", "top-4", "top-16"}};
  for (int cls = 0; cls < 3; ++cls) {
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    for (const auto& [subnet, count] : perClass[cls]) {
      counts.push_back(count);
      total += count;
    }
    std::sort(counts.rbegin(), counts.rend());
    auto topShare = [&](std::size_t k) {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < counts.size() && i < k; ++i) {
        sum += counts[i];
      }
      return total == 0 ? 0.0 : 100.0 * static_cast<double>(sum) /
                                    static_cast<double>(total);
    };
    conc.addRow({names[cls], analysis::fixed(topShare(1), 1) + "%",
                 analysis::fixed(topShare(4), 1) + "%",
                 analysis::fixed(topShare(16), 1) + "%"});
  }
  conc.render(std::cout);
  std::cout << "paper shape: one-off scanners concentrate on few subnets; "
               "intermittent scanners spread most evenly; periodic "
               "scanners cover a wide range but selectively\n";
  return 0;
}
