// v6t::serve — the read-only query engine behind v6t_serve's endpoints.
//
// Every answer is built once, at construction, from one immutable
// analysis::CaptureIndex: the index build (analysis.index_seconds), then
// one taxonomy run, one heavy-hitter ranking and the rendered fixed
// bodies (serve.precompute_seconds). evaluate() is then a lookup:
//
//   /reports/table6     the rendered body (Table 6's rows: taxonomy
//                       scanner/session counts per axis)
//   /heavy-hitters      a prefix of the ranking (findHeavyHitters over
//                       every source: stable-sorted by packets
//                       descending), with prefix sums of packets and
//                       sessions for the impact
//   /sources/<addr>     per-source aggregates + the taxonomy's temporal
//                       class for that source
//   /reaction-delays    the rendered body (first capture into each newly
//                       announced child prefix vs its announceAt), or the
//                       404 when no schedule was given
//   /metrics            Prometheus text from the shared obs::Registry
//   /healthz            liveness probe
//
// The ranking reproduces findHeavyHitters + heavyHitterImpact byte for
// byte: a hitter's share, 100 * packets / total, is monotone in packets,
// so the sources above any threshold are a prefix of the stable ranking;
// and when every session key has one aggregation level, each hitter's key
// covers only itself, so the impact is a prefix sum. The constructor
// therefore rejects a session table that mixes aggregation levels.
//
// Thread safety: the engine is immutable after construction, so
// evaluate() may run concurrently from any number of server workers.
// Responses are deterministic — fixed field order, obs::fmt::fixed for
// floats — which is what makes the cached == uncached byte-equality
// contract testable at all.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/heavy_hitter.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/taxonomy.hpp"
#include "bgp/splitter.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "telescope/session.hpp"

namespace v6t::serve {

struct QueryEngineOptions {
  /// Worker fan-out for the build-once taxonomy (it runs on the
  /// cost-aware scheduler, DESIGN.md §13; results are identical at every
  /// value).
  unsigned analysisThreads = 1;
  std::uint64_t minSplitCost = analysis::kDefaultMinSplitCost;
  /// Hard ceilings for the ?k= / ?threshold= query parameters.
  std::uint64_t maxK = 10000;
};

class QueryEngine {
public:
  /// `packets`/`sessions` must outlive the engine (the index stores
  /// views); every session key must have one aggregation level, or the
  /// constructor throws std::invalid_argument. `schedule` may be null —
  /// /reaction-delays then 404s, as for telescopes without a BGP
  /// experiment; it is only read during construction. `registry` backs
  /// /metrics and receives the serve.* instrumentation; may be null.
  QueryEngine(std::span<const net::Packet> packets,
              std::span<const telescope::Session> sessions,
              const bgp::SplitSchedule* schedule,
              QueryEngineOptions options = {},
              obs::Registry* registry = nullptr);

  struct Response {
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
  };

  /// Evaluate one origin-form target ("/path?query"). Never throws;
  /// malformed targets/parameters, including a repeated parameter name,
  /// come back as 400/404 JSON errors.
  [[nodiscard]] Response evaluate(std::string_view target) const;

  /// False for endpoints whose body is not a pure function of the capture
  /// (/metrics changes under your feet; /healthz is too cheap to cache).
  [[nodiscard]] static bool cacheable(std::string_view path);

  /// Short metric label for a decoded path ("table6", "heavy_hitters",
  /// "sources", "reaction_delays", "metrics", "healthz", "other") — the
  /// per-endpoint request-counter suffix.
  [[nodiscard]] static std::string_view endpointLabel(std::string_view path);

  [[nodiscard]] const analysis::CaptureIndex& index() const {
    return pipeline_.index();
  }

private:
  [[nodiscard]] Response heavyHitters(
      const std::vector<std::pair<std::string, std::string>>& params) const;
  [[nodiscard]] Response sourceDetail(std::string_view addrText) const;
  [[nodiscard]] Response metricsText() const;

  std::uint64_t maxK_;
  obs::Registry* registry_;
  analysis::Pipeline pipeline_; // owns the shared CaptureIndex
  /// /128 source address -> canonical source index, for /sources/<addr>.
  std::map<net::Ipv6Address, std::size_t> sourceByAddr_;
  Response table6_;
  Response reactionDelays_;
  /// Per canonical source: the taxonomy's temporal class.
  std::vector<analysis::TemporalResult> temporal_;
  /// Every source, stable-sorted by packets descending; `packetsUpTo_[m]`
  /// and `sessionsUpTo_[m]` sum the first m entries.
  std::vector<analysis::HeavyHitter> ranking_;
  std::vector<std::uint64_t> packetsUpTo_;
  std::vector<std::uint64_t> sessionsUpTo_;
};

} // namespace v6t::serve
