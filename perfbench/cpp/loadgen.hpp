// perfbench — single-threaded open-loop HTTP/1.1 load generator.
//
// One thread drives a fixed pool of keep-alive connections through one
// epoll instance. Request i of a step is due at t0 + i / rate whatever the
// server is doing (open loop): when every connection is busy the request
// waits in the generator's queue, and its latency still counts from the
// moment it was due, so a stall shows in every request behind it. How
// late the generator actually sent is recorded separately, so a step the
// generator could not keep up with is told apart from one the server
// could not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct StepResult {
  double offeredRate = 0.0; // requests/s the schedule asked for
  double achievedRate = 0.0; // completions / (last response - first due)
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0; // non-200, 5xx/503, wrong body, broken conn
  std::uint64_t rejected = 0; // 503 / 5xx among the failures
  /// Requests due in the step but not yet answered when its schedule
  /// window closed.
  std::uint64_t backlog = 0;
  /// Generator thread CPU time / step wall time: near 1 means the
  /// generator, not the server, set the pace.
  double generatorBusy = 0.0;
  std::vector<double> latencyMs; // response time - due time, per request
  std::vector<double> lateMs; // send time - due time, per request
  std::vector<double> serviceUs; // response time - send time, per request
  std::vector<std::uint32_t> targetOf; // target index per completed request
  std::vector<Clock::time_point> dueAt; // per completed request
  std::vector<Clock::time_point> doneAt; // per completed request
};

class LoadGenerator {
public:
  /// Connects `connections` keep-alive sockets to 127.0.0.1:`port`.
  /// `expected[i]` is the byte-exact body target `targets[i]` must return.
  LoadGenerator(std::uint16_t port, unsigned connections,
                const std::vector<std::string>& targets,
                const std::vector<std::string>& expected);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

  /// Send `requests` (indices into the target table) at `rate` per second
  /// with at most `maxInFlight` outstanding, then wait up to `drainSeconds`
  /// past the schedule for stragglers (those still missing fail).
  /// rate <= 0 sends every request as soon as a connection is free: with
  /// maxInFlight = 1 that is a closed loop.
  StepResult runStep(const std::vector<std::uint32_t>& requests, double rate,
                     unsigned maxInFlight, double drainSeconds);

private:
  struct Conn;
  bool connectOne(Conn& c);
  void closeConn(Conn& c);

  std::uint16_t port_;
  const std::vector<std::string>& expected_;
  std::vector<std::string> rawRequests_;
  std::vector<Conn> conns_;
  int epollFd_ = -1;
  bool ok_ = false;
};

} // namespace perfbench
