// Golden-output regression for the analysis pipeline: a fixed-seed mini
// experiment is run, and the taxonomy / fingerprint / summary results are
// rendered into one canonical report string compared verbatim against the
// embedded golden. Any behavioral drift anywhere in the stack — RNG use,
// event ordering, sessionization, classification — shows up as a diff of
// this report. If a change is INTENDED to alter results, rerun and paste
// the new report (the failure message prints it in full).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/fingerprint.hpp"
#include "analysis/taxonomy.hpp"
#include "core/guidance.hpp"
#include "core/runner.hpp"
#include "core/summary.hpp"

namespace v6t::core {
namespace {

ExperimentConfig goldenConfig() {
  ExperimentConfig config;
  config.seed = 20260805;
  config.sourceScale = 0.04;
  config.volumeScale = 0.003;
  config.baseline = sim::weeks(3);
  config.splits = 3;
  config.routeObjectAt = sim::weeks(4);
  return config;
}

std::string goldenReport() {
  RunnerConfig config;
  config.experiment = goldenConfig();
  ExperimentRunner runner{config};
  runner.run();
  const ExperimentSummary summary = ExperimentSummary::compute(runner);

  std::ostringstream out;
  for (std::size_t t = 0; t < 4; ++t) {
    const telescope::CaptureStore& capture = runner.capture(t);
    const TelescopeSummary& ts = summary.telescope(t);
    const telescope::CaptureStats stats =
        telescope::captureStats(capture.packets());
    out << ts.name << " packets=" << capture.packetCount()
        << " src128=" << stats.sources128
        << " src64=" << stats.sources64
        << " asns=" << stats.asns
        << " sessions128=" << ts.sessions128.size()
        << " sessions64=" << ts.sessions64.size() << " digest=0x" << std::hex
        << capture.digest() << std::dec << "\n";
  }
  // Dispatch order reaches the captures through the digests; the count
  // pins how many events the engine ran to get there.
  out << "events=" << runner.stats().totalEvents << "\n";

  const analysis::TaxonomyResult taxonomy = analysis::classifyCapture(
      runner.capture(T1).packets(), summary.telescope(T1).sessions128,
      &runner.schedule());
  out << "T1 temporal oneoff=" << taxonomy.scannersOf(
             analysis::TemporalClass::OneOff)
      << "/" << taxonomy.sessionsOf(analysis::TemporalClass::OneOff)
      << " periodic=" << taxonomy.scannersOf(analysis::TemporalClass::Periodic)
      << "/" << taxonomy.sessionsOf(analysis::TemporalClass::Periodic)
      << " intermittent="
      << taxonomy.scannersOf(analysis::TemporalClass::Intermittent) << "/"
      << taxonomy.sessionsOf(analysis::TemporalClass::Intermittent) << "\n";
  out << "T1 netsel single="
      << taxonomy.scannersOf(analysis::NetworkSelection::SinglePrefix)
      << " sizeindep="
      << taxonomy.scannersOf(analysis::NetworkSelection::SizeIndependent)
      << " sizedep="
      << taxonomy.scannersOf(analysis::NetworkSelection::SizeDependent)
      << " inconsistent="
      << taxonomy.scannersOf(analysis::NetworkSelection::Inconsistent) << "\n";
  // The numbers behind the five §8 findings.
  const analysis::TaxonomyResult t2Taxonomy = analysis::classifyCapture(
      runner.capture(T2).packets(), summary.telescope(T2).sessions128,
      nullptr);
  for (const Finding& finding :
       GuidanceEngine::derive(runner, summary, taxonomy, t2Taxonomy)) {
    out << "guidance " << finding.evidence << "\n";
  }

  const analysis::FingerprintResult fingerprint = analysis::fingerprintSessions(
      runner.capture(T1).packets(), summary.telescope(T1).sessions128,
      &runner.rdns());
  out << "T1 fingerprint clusters=" << fingerprint.clusterCount
      << " hoplimit=" << fingerprint.hopLimitAttributions
      << " payloadSessions=" << fingerprint.payloadSessions << "\n";
  for (const auto& [tool, count] : fingerprint.byTool) {
    out << "T1 tool " << net::toString(tool) << " scanners=" << count.scanners
        << " sessions=" << count.sessions << "\n";
  }
  return out.str();
}

TEST(GoldenOutputsTest, MiniExperimentAnalysisReport) {
  const std::string kGolden =
      R"(T1 packets=23757 src128=287 src64=287 asns=104 sessions128=878 sessions64=878 digest=0x9b503b4293d5c78c
T2 packets=11292 src128=299 src64=229 asns=94 sessions128=906 sessions64=865 digest=0x802ca01c173d21f8
T3 packets=66 src128=17 src64=17 asns=9 sessions128=21 sessions64=21 digest=0x4bc315dae9ec4dac
T4 packets=3334 src128=189 src64=189 asns=74 sessions128=346 sessions64=346 digest=0x80d06d9f44bff58c
events=54100
T1 temporal oneoff=244/244 periodic=33/567 intermittent=10/67
T1 netsel single=250 sizeindep=27 sizedep=0 inconsistent=10
guidance separately announced telescopes received >= 3x the packets of the busiest covered-only telescope (T1=23,757, T2=11,292 vs T3=66, T4=3,334)
guidance /35 sub-space share of T1 sessions: 0.00% while silent inside the covering prefix vs 57.9% once announced as prefixes
guidance only 6.4% of T1+T2 /128 sources appear at both telescopes
guidance reactive T4 received 51x the packets of the equally-covered silent T3
guidance 72.9% of T1 sessions use structured target selection; 93.4% of scanners probe at least one low-byte address
T1 fingerprint clusters=4 hoplimit=0 payloadSessions=836
T1 tool RIPEAtlasProbe scanners=237 sessions=237
T1 tool Yarrp6 scanners=2 sessions=11
T1 tool Traceroute scanners=2 sessions=19
T1 tool 6Scan scanners=1 sessions=9
T1 tool CAIDA Ark scanners=1 sessions=7
T1 tool Unknown scanners=44 sessions=595
)";
  EXPECT_EQ(goldenReport(), kGolden);
}

} // namespace
} // namespace v6t::core
