// Ablation — the sessionization timeout (§3.3). The paper adopts one hour
// (Richter et al. / Zhao et al.); this section shows how session counts and
// the temporal taxonomy respond to other choices, supporting the claim
// that sessions are a stable measure around the chosen value.
#include "analysis/report.hpp"
#include "analysis/taxonomy.hpp"
#include "bench/harness.hpp"

void ablation_session_timeout(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  const auto& packets = ctx.runner->capture(core::T1).packets();

  analysis::TextTable table{{"timeout", "sessions /128", "sessions /64",
                             "one-off scn", "periodic scn",
                             "intermittent scn"}};
  const std::pair<const char*, sim::Duration> timeouts[] = {
      {"5 min", sim::minutes(5)},   {"30 min", sim::minutes(30)},
      {"1 h (paper)", sim::hours(1)}, {"2 h", sim::hours(2)},
      {"6 h", sim::hours(6)},
  };
  for (const auto& [label, timeout] : timeouts) {
    const auto s128 =
        telescope::sessionize(packets, telescope::SourceAgg::Addr128, timeout);
    const auto s64 =
        telescope::sessionize(packets, telescope::SourceAgg::Net64, timeout);
    const auto taxonomy = analysis::classifyCapture(packets, s128, nullptr);
    table.addRow({label, analysis::withThousands(s128.size()),
                  analysis::withThousands(s64.size()),
                  analysis::withThousands(
                      taxonomy.scannersOf(analysis::TemporalClass::OneOff)),
                  analysis::withThousands(
                      taxonomy.scannersOf(analysis::TemporalClass::Periodic)),
                  analysis::withThousands(taxonomy.scannersOf(
                      analysis::TemporalClass::Intermittent))});
  }
  table.render(std::cout);
  std::cout << "expected shape: session counts change sharply below ~30 min "
               "(scan bursts get fragmented) and only mildly above 1 h — "
               "the paper's choice sits on the plateau\n";
}
