// Fig. 17 (Appendix B) — NIST SP 800-22 results for T1 sessions with
// >= 100 packets, bits tested separately for the subnet part (32 bits
// after the /32) and the IID (last 64 bits), grouped by the scanner's
// temporal class. Scanners iterate IIDs more randomly than subnets.
#include "analysis/nist.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "analysis/taxonomy.hpp"
#include "bench/harness.hpp"

int main() {
  using namespace v6t;
  bench::RunContext ctx = bench::runStandard(
      "Fig. 17: NIST randomness tests on IID vs subnet bits (T1)");

  const core::Period split = ctx.splitPeriod();
  const auto& capture = ctx.runner->capture(core::T1);
  const auto sessions =
      core::sessionsIn(ctx.summary.telescope(core::T1).sessions128, split);
  analysis::PipelineOptions opts;
  opts.heavyHitters = false;
  opts.fingerprint = false;
  opts.nistBattery = true;
  const auto report = bench::analyzeWindow(
      capture.packets(), sessions, &ctx.runner->schedule(), opts);
  const auto& taxonomy = report.taxonomy;

  // Session -> owning scanner's temporal class (every session belongs to
  // exactly one profile).
  std::vector<std::size_t> classOf(sessions.size(), 0);
  for (const auto& profile : taxonomy.profiles) {
    const auto cls = static_cast<std::size_t>(profile.temporal.cls);
    for (std::uint32_t si : profile.sessionIdx) classOf[si] = cls;
  }

  // temporal class x {iid, subnet} x {freq, runs, fft, cusum0, cusum1}
  std::uint64_t pass[3][2][5] = {};
  std::uint64_t totalTested[3] = {};

  for (const auto& sn : report.nist) {
    const std::size_t cls = classOf[sn.sessionIdx];
    ++totalTested[cls];
    const analysis::NistSummary* parts[2] = {&sn.iid, &sn.subnet};
    for (int part = 0; part < 2; ++part) {
      const analysis::NistResult results[5] = {
          parts[part]->frequency, parts[part]->runs, parts[part]->spectral,
          parts[part]->cusumForward, parts[part]->cusumBackward};
      for (int test = 0; test < 5; ++test) {
        if (results[test].pass()) ++pass[cls][part][test];
      }
    }
  }

  const char* classNames[3] = {"one-off", "intermittent", "periodic"};
  const char* testNames[5] = {"frequency", "runs", "fft", "cusum0", "cusum1"};
  for (int part = 0; part < 2; ++part) {
    std::cout << (part == 0 ? "IID bits (64..127)"
                            : "subnet bits (32..63)")
              << " — share of sessions passing (i.e. random)\n";
    analysis::TextTable table{{"class", "tested", testNames[0], testNames[1],
                               testNames[2], testNames[3], testNames[4]}};
    for (int cls = 0; cls < 3; ++cls) {
      std::vector<std::string> cells{classNames[cls],
                                     std::to_string(totalTested[cls])};
      for (int test = 0; test < 5; ++test) {
        cells.push_back(analysis::fixed(
            analysis::percent(pass[cls][part][test],
                              std::max<std::uint64_t>(totalTested[cls], 1)),
            1));
      }
      table.addRow(cells);
    }
    table.render(std::cout);
    std::cout << "\n";
  }
  std::uint64_t tested = totalTested[0] + totalTested[1] + totalTested[2];
  std::cout << "sessions with >= 100 packets: " << tested << " of "
            << sessions.size() << " ("
            << analysis::fixed(analysis::percent(tested, sessions.size()), 1)
            << "%; paper: 2.4% of sessions holding 94% of packets)\n"
            << "paper shape: IID selections pass far more often than subnet "
               "selections — scanners structure the subnet walk but "
               "randomize inside prefixes\n";
  return 0;
}
