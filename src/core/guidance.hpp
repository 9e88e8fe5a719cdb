// v6t::core — operational guidance for telescope operators (§8).
//
// The paper closes with five practical implications. GuidanceEngine
// recomputes each one from the measured experiment output, with the number
// that backs it, so an operator evaluating a deployment plan gets findings
// grounded in their own run rather than copied constants.
#pragma once

#include <string>
#include <vector>

#include "analysis/taxonomy.hpp"
#include "core/runner.hpp"
#include "core/summary.hpp"

namespace v6t::core {

struct Finding {
  std::string topic; // e.g. "BGP visibility"
  std::string statement; // the recommendation
  std::string evidence; // the measured number(s) backing it
};

class GuidanceEngine {
public:
  /// Derive the §8 guidance from a finished in-memory run. `t1Taxonomy`
  /// and `t2Taxonomy` are the caller's classifications of T1 and T2 over
  /// `summary`'s /128 sessions. Guidance reads T1's per-session address
  /// selection and per-scanner target types, and the profiled sources of
  /// both, so taxonomies built with or without the schedule will do.
  [[nodiscard]] static std::vector<Finding> derive(
      const ExperimentRunner& runner, const ExperimentSummary& summary,
      const analysis::TaxonomyResult& t1Taxonomy,
      const analysis::TaxonomyResult& t2Taxonomy);
};

} // namespace v6t::core
