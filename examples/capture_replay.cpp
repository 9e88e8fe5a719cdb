// Capture tooling: persist a telescope capture to a v6tcap file, then
// reload it and run the offline analysis pipeline on the file — the
// workflow a real deployment would use (tcpdump during the run, analysis
// afterwards).
//
//   ./capture_replay [output.v6tcap]
#include <fstream>
#include <iostream>

#include "analysis/fingerprint.hpp"
#include "analysis/report.hpp"
#include "analysis/taxonomy.hpp"
#include "core/runner.hpp"

int main(int argc, char** argv) {
  using namespace v6t;
  const std::string path = argc > 1 ? argv[1] : "t1_capture.v6tcap";

  // Phase 1 — "measurement": run a short experiment and dump T1's capture.
  {
    core::ExperimentConfig config;
    config.seed = 5;
    config.sourceScale = 0.05;
    config.volumeScale = 0.005;
    config.baseline = sim::weeks(2);
    config.splits = 3;
    config.routeObjectAt = sim::weeks(3);
    core::RunnerConfig runnerConfig;
    runnerConfig.experiment = config;
    core::ExperimentRunner runner{runnerConfig};
    runner.run();

    std::ofstream out{path, std::ios::binary};
    runner.capture(core::T1).writeTo(out);
    std::cout << "wrote " << runner.capture(core::T1).packetCount()
              << " records to " << path << "\n";
  }

  // Phase 2 — "offline analysis": reload the file and analyze it without
  // any access to the live experiment.
  telescope::CaptureStore replay;
  {
    std::ifstream in{path, std::ios::binary};
    const auto records = replay.readFrom(in);
    std::cout << "reloaded " << records << " records\n\n";
  }

  const auto sessions =
      telescope::sessionize(replay.packets(), telescope::SourceAgg::Addr128);
  const auto taxonomy =
      analysis::classifyCapture(replay.packets(), sessions, nullptr);
  const auto tools = analysis::fingerprintSessions(replay.packets(), sessions);

  const telescope::CaptureStats stats =
      telescope::captureStats(replay.packets());
  analysis::TextTable table{{"metric", "value"}};
  table.addRow({"packets", std::to_string(replay.packetCount())});
  table.addRow({"/128 sources", std::to_string(stats.sources128)});
  table.addRow({"/64 sources", std::to_string(stats.sources64)});
  table.addRow({"sessions", std::to_string(sessions.size())});
  table.addRow({"one-off scanners",
                std::to_string(taxonomy.scannersOf(
                    analysis::TemporalClass::OneOff))});
  table.addRow({"periodic scanners",
                std::to_string(taxonomy.scannersOf(
                    analysis::TemporalClass::Periodic))});
  table.addRow({"payload sessions", std::to_string(tools.payloadSessions)});
  table.render(std::cout);

  std::cout << "\ntools seen offline:\n";
  for (const auto& [tool, count] : tools.byTool) {
    std::cout << "  " << net::toString(tool) << ": " << count.scanners
              << " scanners, " << count.sessions << " sessions\n";
  }
  return 0;
}
