// v6t::serve — the single-process, epoll-based event-loop HTTP server.
//
// Shape (DESIGN.md §17): one acceptor thread owns the listening socket
// and pushes accepted, non-blocking connection fds into a bounded
// lock-free ring (single producer, multiple consumers — atomic head, CAS
// tail); N worker threads each own a private epoll instance plus their
// share of the connections, woken through one shared semaphore eventfd.
// A connection lives on exactly one worker for its whole life, so
// per-connection state (parser buffer, pending output) is touched by one
// thread at a time and needs no locks.
//
// Per-connection state machine: non-blocking reads feed the incremental
// RequestParser; each Ready request is answered immediately (cache
// lookup, else QueryEngine::evaluate — a lookup into the answers the
// engine built at load) and the response appended to the connection's
// output buffer; partial writes arm EPOLLOUT and resume when the socket
// drains. Keep-alive and pipelining fall out of the parser's residual
// buffer. Only 200 answers are cached, under canonicalQueryKey.
//
// Backpressure contract: at `maxConnections` concurrent connections the
// acceptor answers new arrivals with a best-effort 503 and closes them
// immediately — bounded memory beats unbounded accept queues. Stuck
// peers (slow loris) are closed after `idleTimeoutSeconds` without
// progress.
//
// Metrics (all on the shared registry, exported via the existing
// Prometheus/JSONL writers; the cache and the engine add their own):
//   serve.connections_accepted_total / connections_closed_total  counters
//   serve.connections_active          gauge (Max)
//   serve.requests_total.<endpoint>   per-endpoint request counts
//   serve.responses_total.<status>    per-status response counts
//   serve.request_latency_seconds     log-scale histogram, 50us..4s
//   serve.backpressure_total          503-and-close accepts
//   serve.parse_errors_total          connections poisoned by bad bytes
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/http.hpp"
#include "serve/query.hpp"

namespace v6t::serve {

struct ServerOptions {
  std::uint16_t port = 0; // 0 = ephemeral (the tests/bench mode)
  unsigned threads = 2; // worker event loops
  std::uint64_t cacheBytes = 64ull << 20; // 0 disables the result cache
  unsigned cacheShards = 8;
  std::size_t maxConnections = 256;
  std::size_t maxRequestBytes = 8192;
  double idleTimeoutSeconds = 30.0;
  obs::Registry* registry = nullptr;
};

/// Log-scale latency bounds for serve.request_latency_seconds: doubling
/// buckets from 50us to ~4s, so lookups (tens of us) and requests stalled
/// behind a slow peer or a busy worker (ms..s) both resolve.
[[nodiscard]] std::span<const double> requestLatencyBoundsSeconds();

class Server {
public:
  /// The engine must outlive the server. start() binds and spawns the
  /// threads; throws std::runtime_error when the port cannot be bound.
  Server(const QueryEngine& engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void start();
  void stop();

  /// Bound port (resolves the ephemeral 0 after start()).
  [[nodiscard]] std::uint16_t port() const { return boundPort_; }
  [[nodiscard]] const ResultCache& cache() const { return *cache_; }
  [[nodiscard]] std::uint64_t requestsServed() const {
    return requestsServed_.load(std::memory_order_relaxed);
  }

private:
  struct Conn;
  struct Worker;

  /// Bounded SPMC ring of accepted fds: the acceptor is the only
  /// producer; workers CAS-claim slots. Capacity is a power of two.
  class AcceptQueue {
  public:
    explicit AcceptQueue(std::size_t capacityPow2);
    [[nodiscard]] bool push(int fd); // acceptor only; false when full
    [[nodiscard]] int pop(); // workers; -1 when empty

  private:
    std::vector<std::atomic<int>> slots_;
    std::size_t mask_;
    std::atomic<std::uint64_t> head_{0}; // next write (producer)
    std::atomic<std::uint64_t> tail_{0}; // next read (consumers)
  };

  void acceptLoop();
  void workerLoop(Worker& worker);
  void handleReadable(Worker& worker, Conn& conn);
  void handleWritable(Worker& worker, Conn& conn);
  void flushOutput(Worker& worker, Conn& conn);
  void respond(Conn& conn, const HttpRequest& request);
  /// Per-status / per-endpoint counters, cached thread-locally so the
  /// request hot path takes the registry mutex once per worker thread.
  void countStatus(int status);
  void countEndpoint(std::string_view label);
  void closeConn(Worker& worker, Conn& conn);
  void sweepIdle(Worker& worker);

  const QueryEngine& engine_;
  ServerOptions options_;
  std::unique_ptr<ResultCache> cache_;

  int listenFd_ = -1;
  int wakeFd_ = -1; // EFD_SEMAPHORE shared by all workers
  std::uint16_t boundPort_ = 0;
  std::atomic<bool> running_{false};
  std::unique_ptr<AcceptQueue> acceptQueue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
  std::vector<std::thread> workerThreads_;

  std::atomic<std::size_t> activeConnections_{0};
  std::atomic<std::uint64_t> requestsServed_{0};

  // Pre-registered metric handles (null when no registry was given).
  obs::Counter* accepted_ = nullptr;
  obs::Counter* closed_ = nullptr;
  obs::Counter* backpressure_ = nullptr;
  obs::Counter* parseErrors_ = nullptr;
  obs::Gauge* active_ = nullptr;
  obs::Histogram* latency_ = nullptr;
};

} // namespace v6t::serve
