// v6t::telescope — the four observation points (§3.1).
//
//   T1  BGP-controlled /32 (passive; prefixes change per the split schedule)
//   T2  partially productive /48 (traceable; productive /56 excluded from
//       capture; one DNS-named attractor address outside it)
//   T3  silent /48 inside a covering /29 (passive; never separately
//       announced)
//   T4  reactive /48 inside the same /29 (active; answers TCP from every
//       address)
//
// A Telescope owns address space and records every packet landing in it
// (minus exclusions). Active telescopes additionally report whether they
// responded, which the delivery fabric relays to the scanner so follow-up
// behavior can emerge.
//
// Recording is a plain buffer append (DESIGN.md §11): a shard's telescope
// keeps no statistics. The runner hands the buffers over by move — to the
// capture merge, which accounts each packet once, or to the spill store at
// every epoch boundary.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/prefix.hpp"
#include "obs/trace.hpp"

namespace v6t::telescope {

enum class Mode : std::uint8_t {
  Passive, // originates nothing, answers nothing
  Traceable, // contains author-controlled activity (T2)
  Active, // answers TCP connection attempts (T4)
};

[[nodiscard]] std::string_view toString(Mode m);

struct TelescopeConfig {
  std::string name;
  /// Address space owned by this telescope (capture filter).
  std::vector<net::Prefix> space;
  Mode mode = Mode::Passive;
  /// Sub-prefix whose traffic is excluded from the dataset (T2's productive
  /// /56, per §3.1).
  std::optional<net::Prefix> excludedSubnet;
  /// Single address with a public DNS name (T2's attractor).
  std::optional<net::Ipv6Address> dnsAttractor;
};

/// Outcome of handing a packet to a telescope.
struct DeliveryResult {
  bool captured = false; // recorded in the dataset
  bool responded = false; // an endpoint answered (active telescopes, TCP)
};

class Telescope {
public:
  explicit Telescope(TelescopeConfig config) : config_(std::move(config)) {}

  /// Does this telescope own the destination address?
  [[nodiscard]] bool owns(const net::Ipv6Address& dst) const;

  /// Record a packet unless it falls in the excluded subnet.
  /// Precondition: owns(p.dst) — the delivery fabric tested it.
  DeliveryResult deliver(const net::Packet& p);

  [[nodiscard]] const TelescopeConfig& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

  /// Packets recorded since the last takePackets(), in delivery order
  /// (time-ordered; equal timestamps in event-scheduling order).
  [[nodiscard]] const std::vector<net::Packet>& packets() const {
    return packets_;
  }
  /// Hand the recorded packets over; the buffer starts again empty.
  [[nodiscard]] std::vector<net::Packet> takePackets() {
    return std::exchange(packets_, {});
  }

  /// Packets that landed in the excluded subnet (counted, not stored).
  [[nodiscard]] std::uint64_t excludedPackets() const { return excluded_; }

  /// Cumulative packets captured over the telescope's lifetime. Unlike
  /// packets().size() this survives the epoch-boundary hand-overs of
  /// spill mode — the monotone total the delta-sampler needs.
  [[nodiscard]] std::uint64_t capturedPackets() const { return captured_; }

  /// Attach the owning shard's flight recorder; `entity` is the trace
  /// thread id this telescope's captures render under (distinct from
  /// scanner ids). Delivery is synchronous, so the tracer's context slot
  /// still holds the sending session's causal link when deliver() runs.
  void bindTrace(obs::trace::Tracer* tracer, std::uint32_t entity) {
    tracer_ = tracer;
    traceEntity_ = entity;
  }

private:
  TelescopeConfig config_;
  std::vector<net::Packet> packets_;
  std::uint64_t excluded_ = 0;
  std::uint64_t captured_ = 0;
  obs::trace::Tracer* tracer_ = nullptr;
  std::uint32_t traceEntity_ = 0;
};

} // namespace v6t::telescope
