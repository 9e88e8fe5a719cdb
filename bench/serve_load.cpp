// bench/serve_load — closed-loop load generator for the v6t_serve query
// service: the cached-vs-uncached throughput contract (DESIGN.md §17).
//
// One small calibrated experiment supplies the capture; a QueryEngine and
// an epoll Server are stood up in-process (ephemeral port), and C client
// threads drive keep-alive HTTP/1.1 connections over a fixed target mix
// for a fixed wall-clock window — once with the result cache disabled
// (serve.cache_bytes = 0) and once with the cache on. The engine built
// every answer at load, so a cache-off request is a QueryEngine::evaluate
// lookup into those answers, not an analysis run; the two legs compare
// that lookup with a cache hit. Every response body is
// compared against a reference computed directly from
// QueryEngine::evaluate before the server starts; a single byte of
// divergence fails the bench (cache_identical = 0, exit nonzero).
// Throughput and latency percentiles are recorded per leg.
//
// Environment knobs (junk or out-of-range values end the bench, exit 2):
//   V6T_SEED                              world seed (default 7)
//   V6T_SOURCE_SCALE / V6T_VOLUME_SCALE   scales in (0, 1]
//   V6T_SERVE_CONNECTIONS   concurrent keep-alive clients, 1..256 (8)
//   V6T_SERVE_SECONDS       measured window per leg, > 0 (2.0)
//   V6T_SERVE_THREADS       server worker threads, 1..256 (2)
//   V6T_ANALYSIS_THREADS    engine-build analysis fan-out, 1..256 (cores)
//
// Output: one JSONL snapshot (V6T_BENCH_OUT / argv[1], default
// BENCH_serve_load.json):
//   bench.serve_load.connections / duration_seconds / cores_available
//   bench.serve_load.requests_cache_off / requests_cache_on
//   bench.serve_load.throughput_cache_off_rps / throughput_cache_on_rps
//   bench.serve_load.cache_speedup            on/off throughput ratio
//   bench.serve_load.p50_us_cache_off / p99_us_cache_off
//   bench.serve_load.p50_us_cache_on  / p99_us_cache_on
//   bench.serve_load.cache_hits / cache_misses (cache-on leg)
//   bench.serve_load.cache_identical           1 = every body byte-equal
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "bgp/splitter.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "telescope/session.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace v6t;

/// A connection or thread count from the environment, 1..256.
unsigned envCount(const char* name, unsigned fallback) {
  return static_cast<unsigned>(bench::envInt(name, fallback, 1, 256));
}

/// Blocking keep-alive client; the server side stays non-blocking.
class Client {
public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ok_ = fd_ >= 0 &&
          ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
              0;
    const timeval tv{30, 0};
    if (ok_) ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

  /// One request-response round trip; empty body string on any failure.
  std::string get(const std::string& target) {
    const std::string raw = "GET " + target + " HTTP/1.1\r\n\r\n";
    if (::send(fd_, raw.data(), raw.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(raw.size())) {
      ok_ = false;
      return {};
    }
    while (true) {
      const std::size_t headEnd = buf_.find("\r\n\r\n");
      if (headEnd != std::string::npos) {
        const std::size_t bodyLen = contentLength(buf_, headEnd);
        const std::size_t total = headEnd + 4 + bodyLen;
        if (buf_.size() >= total) {
          const std::string body = buf_.substr(headEnd + 4, bodyLen);
          buf_.erase(0, total);
          return body;
        }
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ok_ = false;
        return {};
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

private:
  static std::size_t contentLength(const std::string& buf,
                                   std::size_t headEnd) {
    const std::string needle = "Content-Length: ";
    const std::size_t at = buf.find(needle);
    if (at == std::string::npos || at > headEnd) return 0;
    return static_cast<std::size_t>(
        std::strtoull(buf.c_str() + at + needle.size(), nullptr, 10));
  }

  int fd_ = -1;
  bool ok_ = false;
  std::string buf_;
};

struct LegResult {
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
  double seconds = 0;
  double p50us = 0;
  double p99us = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1));
  return v[idx];
}

LegResult runLeg(const serve::QueryEngine& engine, std::uint64_t cacheBytes,
                 unsigned serverThreads, unsigned connections,
                 double seconds, const std::vector<std::string>& targets,
                 const std::map<std::string, std::string>& expected) {
  serve::ServerOptions options;
  options.port = 0;
  options.threads = serverThreads;
  options.cacheBytes = cacheBytes;
  serve::Server server{engine, options};
  server.start();

  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::vector<double>> latencies(connections);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  const auto t0 = Clock::now();
  for (unsigned w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      Client client{server.port()};
      if (!client.ok()) {
        mismatches.fetch_add(1); // a dead client poisons the identity gate
        return;
      }
      std::size_t i = w; // stagger the mix so connections desynchronize
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& target = targets[i++ % targets.size()];
        const auto r0 = Clock::now();
        const std::string body = client.get(target);
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - r0)
                .count();
        if (!client.ok()) break;
        latencies[w].push_back(us);
        requests.fetch_add(1, std::memory_order_relaxed);
        if (body != expected.at(target)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : workers) t.join();

  LegResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.requests = requests.load();
  result.mismatches = mismatches.load();
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  result.p50us = percentile(all, 0.50);
  result.p99us = percentile(all, 0.99);
  result.cacheHits = server.cache().hits();
  result.cacheMisses = server.cache().misses();
  server.stop();
  return result;
}

} // namespace

int main(int argc, char** argv) {
  std::string outPath = "BENCH_serve_load.json";
  if (const char* s = std::getenv("V6T_BENCH_OUT")) outPath = s;
  if (argc > 1) outPath = argv[1];

  std::cout << "== serve_load: cached vs uncached query throughput ==\n";

  // Reduced default workload (env-overridable) — serve_load measures the
  // service, not the simulation: the smoke-test world of the CI job.
  core::ExperimentConfig config;
  config.seed = 7;
  config.sourceScale = 0.05;
  config.volumeScale = 0.004;
  config.baseline = sim::weeks(4);
  config.splits = 6;
  config.routeObjectAt = sim::weeks(6);
  bench::applyWorldEnv(config);

  const unsigned connections = envCount("V6T_SERVE_CONNECTIONS", 8);
  const double seconds = bench::envPositive("V6T_SERVE_SECONDS", 2.0);
  const unsigned serverThreads = envCount("V6T_SERVE_THREADS", 2);
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned analysisThreads =
      envCount("V6T_ANALYSIS_THREADS", hw == 0 ? 1 : hw);

  std::cout << "running calibrated simulation (seed=" << config.seed
            << ", sourceScale=" << config.sourceScale
            << ", volumeScale=" << config.volumeScale << ") ...\n";
  core::RunnerConfig runnerConfig;
  runnerConfig.experiment = config;
  core::ExperimentRunner runner{runnerConfig};
  runner.run();
  const auto& capture = runner.capture(core::T1);
  const auto sessions =
      telescope::sessionize(capture.packets(), telescope::SourceAgg::Addr128);
  std::cout << "workload: T1, " << capture.packetCount() << " packets, "
            << sessions.size() << " sessions\n";

  serve::QueryEngineOptions engineOptions;
  engineOptions.analysisThreads = analysisThreads;
  const serve::QueryEngine engine{capture.packets(), sessions,
                                  &runner.schedule(), engineOptions};

  // Busiest source for the /sources target — a real key, not a 404.
  std::map<net::Ipv6Address, std::uint64_t> bySource;
  for (const net::Packet& p : capture.packets()) ++bySource[p.src];
  net::Ipv6Address top;
  std::uint64_t topCount = 0;
  for (const auto& [addr, count] : bySource) {
    if (count > topCount) {
      top = addr;
      topCount = count;
    }
  }

  const std::vector<std::string> targets = {
      "/reports/table6",
      "/heavy-hitters?k=10",
      "/heavy-hitters?k=25&threshold=5",
      "/reaction-delays",
      "/sources/" + top.toString(),
  };
  std::map<std::string, std::string> expected;
  for (const std::string& t : targets) {
    const auto response = engine.evaluate(t);
    if (response.status != 200) {
      std::cerr << "reference request failed: " << t << " -> "
                << response.status << "\n";
      return 1;
    }
    expected[t] = response.body;
  }

  std::cout << "load: " << connections << " connections x " << seconds
            << "s per leg, " << serverThreads << " server threads, "
            << analysisThreads << " analysis threads\n";
  const LegResult off = runLeg(engine, 0, serverThreads, connections,
                               seconds, targets, expected);
  const LegResult on = runLeg(engine, 64ull << 20, serverThreads,
                              connections, seconds, targets, expected);

  const double offRps =
      off.seconds > 0 ? static_cast<double>(off.requests) / off.seconds : 0;
  const double onRps =
      on.seconds > 0 ? static_cast<double>(on.requests) / on.seconds : 0;
  const double speedup = offRps > 0 ? onRps / offRps : 0;
  const bool identical = off.mismatches == 0 && on.mismatches == 0 &&
                         off.requests > 0 && on.requests > 0;

  std::cout << "cache-off: " << off.requests << " requests in "
            << off.seconds << "s = " << offRps << " rps (p50 " << off.p50us
            << "us, p99 " << off.p99us << "us)\n";
  std::cout << "cache-on:  " << on.requests << " requests in " << on.seconds
            << "s = " << onRps << " rps (p50 " << on.p50us << "us, p99 "
            << on.p99us << "us; " << on.cacheHits << " hits, "
            << on.cacheMisses << " misses)\n";
  std::cout << "speedup: " << speedup << "x, byte-identity "
            << (identical ? "OK" : "FAILED") << "\n";

  obs::Registry registry;
  auto gauge = [&](const char* name, double v) {
    registry.gauge(std::string{"bench.serve_load."} + name).set(v);
  };
  gauge("cores_available", static_cast<double>(hw == 0 ? 1u : hw));
  gauge("connections", connections);
  gauge("duration_seconds", seconds);
  gauge("server_threads", serverThreads);
  gauge("analysis_threads", analysisThreads);
  gauge("packets", static_cast<double>(capture.packetCount()));
  gauge("sessions", static_cast<double>(sessions.size()));
  gauge("targets", static_cast<double>(targets.size()));
  gauge("requests_cache_off", static_cast<double>(off.requests));
  gauge("requests_cache_on", static_cast<double>(on.requests));
  gauge("throughput_cache_off_rps", offRps);
  gauge("throughput_cache_on_rps", onRps);
  gauge("cache_speedup", speedup);
  gauge("p50_us_cache_off", off.p50us);
  gauge("p99_us_cache_off", off.p99us);
  gauge("p50_us_cache_on", on.p50us);
  gauge("p99_us_cache_on", on.p99us);
  gauge("cache_hits", static_cast<double>(on.cacheHits));
  gauge("cache_misses", static_cast<double>(on.cacheMisses));
  gauge("cache_identical", identical ? 1.0 : 0.0);

  std::ofstream out{outPath};
  if (!out) {
    std::cerr << "cannot open " << outPath << " for writing\n";
    return 1;
  }
  registry.writeJsonLine(out, {{"bench", "serve_load"}});
  std::cout << "wrote " << outPath << "\n";
  return identical ? 0 : 1;
}
