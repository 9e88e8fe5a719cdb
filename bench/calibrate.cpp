// Calibration probe: prints the headline marginals the population is tuned
// against (DESIGN.md §6). Not one of the paper's tables — a development
// aid and regression reference for the overall shape.
#include <iostream>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench/harness.hpp"
#include "telescope/capture_store.hpp"

void calibrate(const v6t::bench::RunContext& ctx) {
  using namespace v6t;
  analysis::TextTable table{{"metric", "T1", "T2", "T3", "T4"}};
  const core::Period initial = ctx.initialPeriod();
  const core::Period whole = ctx.wholePeriod();

  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (std::size_t i = 0; i < 4; ++i) cells.push_back(getter(i));
    table.addRow(cells);
  };

  row("packets (initial 12w)", [&](std::size_t i) {
    return analysis::withThousands(
        ctx.summary.windowStats(ctx.runner->capture(i), i, initial).packets);
  });
  row("packets (full)", [&](std::size_t i) {
    return analysis::withThousands(ctx.runner->capture(i).packetCount());
  });
  row("/128 sources (initial)", [&](std::size_t i) {
    return std::to_string(
        ctx.summary.windowStats(ctx.runner->capture(i), i, initial).sources128);
  });
  row("/64 sources (initial)", [&](std::size_t i) {
    return std::to_string(
        ctx.summary.windowStats(ctx.runner->capture(i), i, initial).sources64);
  });
  row("ASNs (initial)", [&](std::size_t i) {
    return std::to_string(
        ctx.summary.windowStats(ctx.runner->capture(i), i, initial).asns);
  });
  row("sessions /128 (full)", [&](std::size_t i) {
    return analysis::withThousands(
        ctx.summary.telescope(i).sessions128.size());
  });
  row("sessions /64 (full)", [&](std::size_t i) {
    return analysis::withThousands(
        ctx.summary.telescope(i).sessions64.size());
  });
  row("/128 sources (full)", [&](std::size_t i) {
    return std::to_string(
        ctx.summary.windowStats(ctx.runner->capture(i), i, whole).sources128);
  });
  table.render(std::cout);

  // Protocol mix across all telescopes.
  std::uint64_t perProto[3] = {0, 0, 0};
  std::uint64_t total = 0;
  for (const telescope::CaptureStore* capture : ctx.runner->captures()) {
    const telescope::CaptureStats stats =
        telescope::captureStats(capture->packets());
    for (int p = 0; p < 3; ++p) {
      perProto[p] += stats.packetsPerProtocol(static_cast<net::Protocol>(p));
    }
    total += capture->packetCount();
  }
  std::cout << "\nprotocol mix (paper: ICMPv6 66.2% / UDP 23.4% / TCP 10.5%)\n";
  for (int p = 0; p < 3; ++p) {
    std::cout << "  " << net::toString(static_cast<net::Protocol>(p)) << " "
              << analysis::fixed(analysis::percent(perProto[p], total), 1)
              << "%\n";
  }

  const core::RunnerStats& stats = ctx.runner->stats();
  std::cout << "\nfabric: sent="
            << static_cast<std::uint64_t>(
                   ctx.runner->metrics()
                       .value("fabric.packets_sent_total")
                       .value_or(0.0))
            << " noRoute=" << stats.droppedNoRoute
            << " void=" << stats.deliveredToVoid << "\n";
}
