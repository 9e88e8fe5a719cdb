// Table 7 — public scan tools identified at T1 during the split period,
// via payload fingerprint clustering and rDNS.
#include "analysis/fingerprint.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"

void table7_tools(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const core::Period split = ctx.splitPeriod();
  const auto& capture = ctx.runner->capture(core::T1);
  const auto sessions =
      core::sessionsIn(ctx.summary.telescope(core::T1).sessions128, split);
  const auto result = analysis::fingerprintSessions(
      capture.packets(), sessions, &ctx.runner->rdns());

  std::uint64_t totalScanners = 0;
  for (const auto& [tool, count] : result.byTool) {
    totalScanners += count.scanners;
  }
  const std::uint64_t totalSessions = sessions.size();

  analysis::TextTable table{{"Scan Tool", "Scanners", "[%]", "Sessions",
                             "[%]", "paper scn% / sess%"}};
  struct Row {
    net::ScanTool tool;
    const char* paper;
  };
  const Row rows[] = {
      {net::ScanTool::RipeAtlas, "54.82 / 12.87"},
      {net::ScanTool::Yarrp6, "0.19 / 0.61"},
      {net::ScanTool::Traceroute, "0.16 / 0.18"},
      {net::ScanTool::Htrace6, "0.08 / 0.02"},
      {net::ScanTool::SixSeeks, "0.04 / 0.02"},
      {net::ScanTool::SixScan, "0.03 / 0.02"},
      {net::ScanTool::CaidaArk, "0.02 / 2.19"},
      {net::ScanTool::SixSense, "(heavy hitter rDNS)"},
      {net::ScanTool::Unknown, "(rest)"},
  };
  for (const Row& row : rows) {
    const auto it = result.byTool.find(row.tool);
    const analysis::ToolCount count =
        it == result.byTool.end() ? analysis::ToolCount{} : it->second;
    table.addRow({std::string{net::toString(row.tool)},
                  analysis::withThousands(count.scanners),
                  analysis::fixed(
                      analysis::percent(count.scanners, totalScanners), 2),
                  analysis::withThousands(count.sessions),
                  analysis::fixed(
                      analysis::percent(count.sessions, totalSessions), 2),
                  row.paper});
  }
  table.render(std::cout);
  std::cout << "payload packets: " << result.payloadPackets
            << ", payload sessions: " << result.payloadSessions
            << ", payload sources: " << result.payloadSources
            << ", DBSCAN clusters: " << result.clusterCount << "\n"
            << "(paper: 40% of packets carry payloads, from 93% of sources "
               "covering 76% of sessions)\n";
}
