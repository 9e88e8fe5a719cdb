// Fig. 12/13 — structured vs randomized target-address generation, shown
// for two sample sessions: per-nibble diversity profiles in arrival order
// (Fig. 12) and after numeric sorting (Fig. 13's traversal structure).
#include <algorithm>
#include <set>
#include <stdexcept>

#include "analysis/report.hpp"
#include "analysis/taxonomy.hpp"
#include "bench/harness.hpp"

namespace {

using namespace v6t;

// Render a compact nibble-diversity strip: for each of the 32 nibble
// positions, the number of distinct hex values seen in the session
// (1 = constant, 16 = fully mixed) — the textual analogue of the color
// stripes in the paper's figure.
void nibbleProfile(const std::vector<net::Ipv6Address>& targets,
                   const char* label) {
  std::cout << label << " (" << targets.size() << " targets)\n  nibble:   ";
  for (int n = 0; n < 32; ++n) std::cout << (n % 10);
  std::cout << "\n  distinct: ";
  for (std::size_t n = 0; n < 32; ++n) {
    std::set<std::uint8_t> values;
    for (const auto& a : targets) values.insert(a.nibble(n));
    const std::size_t d = values.size();
    std::cout << (d <= 9 ? static_cast<char>('0' + d)
                         : static_cast<char>('a' + d - 10));
  }
  std::cout << "\n";
  // A few raw samples (prefix concealed like the paper's gray area).
  for (std::size_t i = 0; i < targets.size() && i < 5; ++i) {
    std::string hex = targets[i].toHexString();
    hex.replace(0, 8, "xxxxxxxx");
    std::cout << "  " << hex << "\n";
  }
}

} // namespace

void fig12_address_patterns(const v6t::bench::RunContext& ctx) {
  const auto& packets = ctx.runner->capture(core::T1).packets();
  const auto& sessions = ctx.summary.telescope(core::T1).sessions128;

  auto targetsOf = [&](const telescope::Session* s) {
    std::vector<net::Ipv6Address> targets;
    if (s != nullptr) {
      for (std::uint32_t idx : s->packetIdx) {
        targets.push_back(packets[idx].dst);
      }
    }
    return targets;
  };

  // Pick the largest structured and the largest random session (>= 100
  // packets), as the full-period taxonomy labelled them.
  const auto& labels = ctx.reports[core::T1].taxonomy.sessionAddrSel;
  const telescope::Session* structured = nullptr;
  const telescope::Session* random = nullptr;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const telescope::Session& s = sessions[i];
    if (s.packetCount() < 100) continue;
    const analysis::AddressSelection cls = labels[i];
    if (cls == analysis::AddressSelection::Structured &&
        (structured == nullptr ||
         s.packetCount() > structured->packetCount())) {
      structured = &s;
    }
    if (cls == analysis::AddressSelection::Random &&
        (random == nullptr || s.packetCount() > random->packetCount())) {
      random = &s;
    }
  }

  auto structuredTargets = targetsOf(structured);
  auto randomTargets = targetsOf(random);
  if (structuredTargets.empty() || randomTargets.empty()) {
    throw std::runtime_error{
        "could not find both sample sessions at this scale"};
  }

  std::cout << "--- Fig. 12(a): structured session, arrival order ---\n";
  nibbleProfile(structuredTargets, "structured");
  std::cout << "\n--- Fig. 12(b): randomized session, arrival order ---\n";
  nibbleProfile(randomTargets, "random");

  // Fig. 13: sorting the structured session exposes the traversal.
  std::sort(structuredTargets.begin(), structuredTargets.end());
  std::cout << "\n--- Fig. 13: structured session, numerically sorted ---\n";
  nibbleProfile(structuredTargets, "structured (sorted)");
  std::cout << "\npaper shape: the structured session's subnet nibbles "
               "iterate (low distinct counts, monotone after sorting); the "
               "random session mixes all 16 values in the IID nibbles "
               "while the subnet nibbles stay structured\n";
}
