#include "serve/server.hpp"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "serve/http.hpp"

namespace v6t::serve {

namespace {

using Clock = std::chrono::steady_clock;

} // namespace

std::span<const double> requestLatencyBoundsSeconds() {
  // Doubling buckets 50us .. ~3.3s: lookups land in the first few,
  // stalled requests in the ms..s range.
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double v = 50e-6; v < 4.0; v *= 2.0) b.push_back(v);
    return b;
  }();
  return bounds;
}

// ---------------------------------------------------------------- conn/worker

struct Server::Conn {
  explicit Conn(int fdIn, std::size_t maxRequestBytes)
      : fd(fdIn), parser(maxRequestBytes), lastActivity(Clock::now()) {}

  int fd;
  RequestParser parser;
  std::string out; // pending response bytes
  std::size_t outPos = 0;
  bool closeAfterWrite = false;
  bool wantWrite = false; // EPOLLOUT currently armed
  Clock::time_point lastActivity;
};

struct Server::Worker {
  int epollFd = -1;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
};

// ------------------------------------------------------------- accept queue

Server::AcceptQueue::AcceptQueue(std::size_t capacityPow2)
    : slots_(capacityPow2), mask_(capacityPow2 - 1) {
  for (auto& s : slots_) s.store(-1, std::memory_order_relaxed);
}

bool Server::AcceptQueue::push(int fd) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) return false; // full
  slots_[head & mask_].store(fd, std::memory_order_release);
  head_.store(head + 1, std::memory_order_release);
  return true;
}

int Server::AcceptQueue::pop() {
  for (;;) {
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail >= head) return -1; // empty
    if (tail_.compare_exchange_weak(tail, tail + 1,
                                    std::memory_order_acq_rel)) {
      // The slot write happened-before the head increment we acquired.
      const int fd = slots_[tail & mask_].load(std::memory_order_acquire);
      slots_[tail & mask_].store(-1, std::memory_order_relaxed);
      return fd;
    }
  }
}

// -------------------------------------------------------------------- server

Server::Server(const QueryEngine& engine, ServerOptions options)
    : engine_(engine), options_(options) {
  ResultCache::Options cacheOptions;
  cacheOptions.totalBytes = options_.cacheBytes;
  cacheOptions.shards = options_.cacheShards;
  cacheOptions.registry = options_.registry;
  cache_ = std::make_unique<ResultCache>(cacheOptions);
  if (options_.registry != nullptr) {
    obs::Registry& r = *options_.registry;
    accepted_ = &r.counter("serve.connections_accepted_total");
    closed_ = &r.counter("serve.connections_closed_total");
    backpressure_ = &r.counter("serve.backpressure_total");
    parseErrors_ = &r.counter("serve.parse_errors_total");
    active_ = &r.gauge("serve.connections_active", obs::GaugeMode::Max);
    latency_ = &r.histogram("serve.request_latency_seconds",
                            requestLatencyBoundsSeconds());
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load()) return;

  listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                       0);
  if (listenFd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("serve: cannot bind port " +
                             std::to_string(options_.port));
  }
  if (::listen(listenFd_, 512) < 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("serve: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  boundPort_ = ntohs(addr.sin_port);

  wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_SEMAPHORE | EFD_CLOEXEC);
  if (wakeFd_ < 0) throw std::runtime_error("serve: eventfd() failed");

  acceptQueue_ = std::make_unique<AcceptQueue>(1024);

  const unsigned threads = std::max(1u, options_.threads);
  for (unsigned i = 0; i < threads; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    if (worker->epollFd < 0) {
      throw std::runtime_error("serve: epoll_create1() failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wakeFd_;
    ::epoll_ctl(worker->epollFd, EPOLL_CTL_ADD, wakeFd_, &ev);
    workers_.push_back(std::move(worker));
  }

  running_.store(true);
  acceptor_ = std::thread([this] { acceptLoop(); });
  for (auto& worker : workers_) {
    workerThreads_.emplace_back(
        [this, w = worker.get()] { workerLoop(*w); });
  }
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  // Wake every worker out of epoll_wait.
  if (wakeFd_ >= 0) {
    const std::uint64_t n = workers_.size() + 1;
    [[maybe_unused]] const auto ignored =
        ::write(wakeFd_, &n, sizeof(n));
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& t : workerThreads_) {
    if (t.joinable()) t.join();
  }
  workerThreads_.clear();
  for (auto& worker : workers_) {
    for (auto& [fd, conn] : worker->conns) ::close(fd);
    worker->conns.clear();
    if (worker->epollFd >= 0) ::close(worker->epollFd);
  }
  workers_.clear();
  // Drain fds stuck in the accept queue.
  if (acceptQueue_) {
    for (int fd = acceptQueue_->pop(); fd >= 0; fd = acceptQueue_->pop()) {
      ::close(fd);
    }
  }
  if (listenFd_ >= 0) ::close(listenFd_);
  listenFd_ = -1;
  if (wakeFd_ >= 0) ::close(wakeFd_);
  wakeFd_ = -1;
  activeConnections_.store(0);
}

// ----------------------------------------------------------------- acceptor

void Server::acceptLoop() {
  const int epollFd = ::epoll_create1(EPOLL_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listenFd_;
  ::epoll_ctl(epollFd, EPOLL_CTL_ADD, listenFd_, &ev);

  while (running_.load(std::memory_order_relaxed)) {
    epoll_event events[16];
    const int n = ::epoll_wait(epollFd, events, 16, 100);
    if (n <= 0) continue;
    for (;;) {
      const int fd = ::accept4(listenFd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break; // EAGAIN or transient error: back to epoll
      const std::size_t active =
          activeConnections_.load(std::memory_order_relaxed);
      if (active >= options_.maxConnections || !acceptQueue_->push(fd)) {
        // Backpressure: a best-effort 503 tells well-behaved clients to
        // retry; closing bounds our memory either way.
        static const std::string overload = formatResponse(
            503, "application/json", "{\"error\":\"overloaded\"}\n",
            /*keepAlive=*/false, /*headOnly=*/false);
        [[maybe_unused]] const auto ignored =
            ::send(fd, overload.data(), overload.size(), MSG_NOSIGNAL);
        ::close(fd);
        if (backpressure_ != nullptr) backpressure_->inc();
        continue;
      }
      activeConnections_.fetch_add(1, std::memory_order_relaxed);
      if (accepted_ != nullptr) accepted_->inc();
      if (active_ != nullptr) {
        active_->max(static_cast<double>(active + 1));
      }
      const std::uint64_t one = 1;
      [[maybe_unused]] const auto ignored =
          ::write(wakeFd_, &one, sizeof(one));
    }
  }
  ::close(epollFd);
}

// ------------------------------------------------------------------- worker

void Server::workerLoop(Worker& worker) {
  // Sweep period: fine-grained enough to catch sub-second test timeouts.
  const int waitMs = std::max(
      20, std::min(500, static_cast<int>(options_.idleTimeoutSeconds *
                                         1000.0 / 4.0)));
  while (running_.load(std::memory_order_relaxed)) {
    epoll_event events[64];
    const int n = ::epoll_wait(worker.epollFd, events, 64, waitMs);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeFd_) {
        std::uint64_t tick = 0;
        [[maybe_unused]] const auto ignored =
            ::read(wakeFd_, &tick, sizeof(tick)); // semaphore decrement
        for (int newFd = acceptQueue_->pop(); newFd >= 0;
             newFd = acceptQueue_->pop()) {
          auto conn =
              std::make_unique<Conn>(newFd, options_.maxRequestBytes);
          epoll_event cev{};
          cev.events = EPOLLIN;
          cev.data.fd = newFd;
          if (::epoll_ctl(worker.epollFd, EPOLL_CTL_ADD, newFd, &cev) < 0) {
            ::close(newFd);
            activeConnections_.fetch_sub(1, std::memory_order_relaxed);
            continue;
          }
          worker.conns.emplace(newFd, std::move(conn));
        }
        continue;
      }
      const auto it = worker.conns.find(fd);
      if (it == worker.conns.end()) continue;
      Conn& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        closeConn(worker, conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handleReadable(worker, conn);
      // handleReadable may have closed the connection; re-find it.
      const auto again = worker.conns.find(fd);
      if (again == worker.conns.end()) continue;
      if ((events[i].events & EPOLLOUT) != 0) {
        handleWritable(worker, *again->second);
      }
    }
    sweepIdle(worker);
  }
}

void Server::handleReadable(Worker& worker, Conn& conn) {
  char buf[4096];
  bool sawBytes = false;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      sawBytes = true;
      conn.parser.feed(std::string_view{buf, static_cast<std::size_t>(n)});
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) { // peer closed
      closeConn(worker, conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    closeConn(worker, conn);
    return;
  }
  if (sawBytes) conn.lastActivity = Clock::now();

  HttpRequest request;
  for (;;) {
    const ParseState state = conn.parser.poll(request);
    if (state == ParseState::NeedMore) break;
    if (state == ParseState::Error) {
      if (parseErrors_ != nullptr) parseErrors_->inc();
      const int status = conn.parser.errorStatus();
      countStatus(status);
      conn.out += formatResponse(status, "application/json",
                                 "{\"error\":\"bad request\"}\n",
                                 /*keepAlive=*/false, /*headOnly=*/false);
      conn.closeAfterWrite = true;
      break;
    }
    respond(conn, request);
    if (conn.closeAfterWrite) break; // no point parsing pipelined rest
  }
  flushOutput(worker, conn);
}

void Server::respond(Conn& conn, const HttpRequest& request) {
  const auto t0 = Clock::now();
  int status = 200;
  std::string contentType = "application/json";
  std::string body;

  const auto parsed = parseTarget(request.target);
  if (!parsed) {
    status = 400;
    body = "{\"error\":\"malformed target\"}\n";
  } else if (QueryEngine::cacheable(parsed->path) && cache_->enabled()) {
    const std::string key = canonicalQueryKey(*parsed);
    if (auto cached = cache_->get(key)) {
      body = std::move(*cached);
    } else {
      QueryEngine::Response r = engine_.evaluate(request.target);
      status = r.status;
      contentType = std::move(r.contentType);
      body = std::move(r.body);
      // Only steady-state successes are worth keeping.
      if (status == 200) cache_->put(key, body);
    }
  } else {
    QueryEngine::Response r = engine_.evaluate(request.target);
    status = r.status;
    contentType = std::move(r.contentType);
    body = std::move(r.body);
  }

  conn.out += formatResponse(status, contentType, body, request.keepAlive,
                             request.headOnly());
  if (!request.keepAlive) conn.closeAfterWrite = true;
  requestsServed_.fetch_add(1, std::memory_order_relaxed);
  if (latency_ != nullptr) {
    latency_->observe(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  countStatus(status);
  countEndpoint(parsed ? QueryEngine::endpointLabel(parsed->path)
                       : std::string_view{"other"});
}

void Server::countStatus(int status) {
  if (options_.registry == nullptr) return;
  // Worker threads are created per Server, so a thread-local cache can
  // never leak handles across server instances.
  thread_local std::unordered_map<int, obs::Counter*> cache;
  auto it = cache.find(status);
  if (it == cache.end()) {
    it = cache
             .emplace(status, &options_.registry->counter(
                                  "serve.responses_total." +
                                  std::to_string(status)))
             .first;
  }
  it->second->inc();
}

void Server::countEndpoint(std::string_view label) {
  if (options_.registry == nullptr) return;
  thread_local std::unordered_map<std::string, obs::Counter*> cache;
  auto it = cache.find(std::string{label});
  if (it == cache.end()) {
    it = cache
             .emplace(std::string{label},
                      &options_.registry->counter(
                          "serve.requests_total." + std::string{label}))
             .first;
  }
  it->second->inc();
}

void Server::handleWritable(Worker& worker, Conn& conn) {
  flushOutput(worker, conn);
}

void Server::flushOutput(Worker& worker, Conn& conn) {
  while (conn.outPos < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.outPos,
               conn.out.size() - conn.outPos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outPos += static_cast<std::size_t>(n);
      conn.lastActivity = Clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.wantWrite) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = conn.fd;
        ::epoll_ctl(worker.epollFd, EPOLL_CTL_MOD, conn.fd, &ev);
        conn.wantWrite = true;
      }
      return; // resume on EPOLLOUT
    }
    closeConn(worker, conn); // hard write error
    return;
  }
  conn.out.clear();
  conn.outPos = 0;
  if (conn.wantWrite) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn.fd;
    ::epoll_ctl(worker.epollFd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.wantWrite = false;
  }
  if (conn.closeAfterWrite) closeConn(worker, conn);
}

void Server::closeConn(Worker& worker, Conn& conn) {
  const int fd = conn.fd;
  ::epoll_ctl(worker.epollFd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  worker.conns.erase(fd); // destroys conn — must be the last touch
  activeConnections_.fetch_sub(1, std::memory_order_relaxed);
  if (closed_ != nullptr) closed_->inc();
}

void Server::sweepIdle(Worker& worker) {
  const auto now = Clock::now();
  const auto limit = std::chrono::duration<double>(
      options_.idleTimeoutSeconds);
  for (auto it = worker.conns.begin(); it != worker.conns.end();) {
    Conn& conn = *it->second;
    ++it; // advance before a potential erase
    if (now - conn.lastActivity > limit) {
      // Slow loris: no complete request in the window — drop the line.
      closeConn(worker, conn);
    }
  }
}

} // namespace v6t::serve
