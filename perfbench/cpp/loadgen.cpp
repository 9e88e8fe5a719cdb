#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>

namespace perfbench {

struct LoadGenerator::Conn {
  int fd = -1;
  std::string buf;
  bool busy = false;
  std::size_t request = 0; // index into the step's request list
  Clock::time_point sentAt;
};

namespace {

/// Status code and Content-Length of a complete head; false if malformed.
bool parseHead(const std::string& buf, std::size_t headEnd, int& status,
               std::size_t& bodyLen) {
  if (buf.compare(0, 9, "HTTP/1.1 ") != 0 || headEnd < 12) return false;
  status = std::atoi(buf.c_str() + 9);
  const std::string needle = "\r\nContent-Length: ";
  const std::size_t at = buf.find(needle);
  if (at == std::string::npos || at > headEnd) return false;
  bodyLen = static_cast<std::size_t>(
      std::strtoull(buf.c_str() + at + needle.size(), nullptr, 10));
  return true;
}

double threadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

LoadGenerator::LoadGenerator(std::uint16_t port, unsigned connections,
                             const std::vector<std::string>& targets,
                             const std::vector<std::string>& expected)
    : port_(port), expected_(expected) {
  rawRequests_.reserve(targets.size());
  for (const std::string& t : targets) {
    rawRequests_.push_back("GET " + t + " HTTP/1.1\r\nHost: bench\r\n\r\n");
  }
  epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
  conns_.resize(connections);
  ok_ = epollFd_ >= 0;
  for (Conn& c : conns_) ok_ = ok_ && connectOne(c);
}

LoadGenerator::~LoadGenerator() {
  for (Conn& c : conns_) closeConn(c);
  if (epollFd_ >= 0) ::close(epollFd_);
}

bool LoadGenerator::connectOne(Conn& c) {
  c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (c.fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    closeConn(c);
    return false;
  }
  const int one = 1;
  ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &c;
  if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, c.fd, &ev) != 0) {
    closeConn(c);
    return false;
  }
  c.buf.clear();
  c.busy = false;
  return true;
}

void LoadGenerator::closeConn(Conn& c) {
  if (c.fd >= 0) ::close(c.fd); // also drops it from the epoll set
  c.fd = -1;
  c.busy = false;
}

StepResult LoadGenerator::runStep(const std::vector<std::uint32_t>& requests,
                                  double rate, unsigned maxInFlight,
                                  double drainSeconds) {
  StepResult r;
  r.offeredRate = rate;
  const std::size_t n = requests.size();
  r.latencyMs.reserve(n);
  r.lateMs.reserve(n);
  r.serviceUs.reserve(n);
  r.targetOf.reserve(n);
  r.dueAt.reserve(n);
  r.doneAt.reserve(n);

  std::deque<Conn*> idle;
  for (Conn& c : conns_) {
    if (c.fd >= 0 && !c.busy) idle.push_back(&c);
  }
  while (idle.size() > maxInFlight) idle.pop_back();

  const double cpu0 = threadCpuSeconds();
  const auto t0 = Clock::now();
  auto due = [&](std::size_t i) {
    if (rate <= 0.0) return t0;
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
  };
  const auto windowEnd =
      rate <= 0.0 ? t0 : due(n); // schedule window of the step
  const auto deadline =
      windowEnd + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(drainSeconds));
  bool backlogTaken = rate <= 0.0;
  std::size_t next = 0;
  std::size_t finished = 0; // completed + failed

  auto finishFailed = [&](Conn& c) {
    ++r.failed;
    ++finished;
    c.busy = false;
  };

  epoll_event events[64];
  while (finished < n) {
    auto now = Clock::now();
    if (!backlogTaken && now >= windowEnd) {
      r.backlog = n - finished;
      backlogTaken = true;
    }
    if (now >= deadline) break;
    while (next < n && !idle.empty() && due(next) <= now) {
      Conn* c = idle.front();
      idle.pop_front();
      const std::string& raw = rawRequests_[requests[next]];
      c->sentAt = Clock::now();
      c->request = next;
      c->busy = true;
      ++r.sent;
      r.lateMs.push_back(
          std::chrono::duration<double, std::milli>(c->sentAt - due(next))
              .count());
      ++next;
      if (::send(c->fd, raw.data(), raw.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(raw.size())) {
        finishFailed(*c);
        closeConn(*c);
        if (connectOne(*c)) idle.push_back(c);
      }
    }
    // Sleep until the next request is due, a response arrives, or the
    // window/deadline passes — whichever is first.
    auto wakeAt = deadline;
    if (next < n && !idle.empty()) wakeAt = std::min(wakeAt, due(next));
    if (!backlogTaken) wakeAt = std::min(wakeAt, windowEnd);
    now = Clock::now();
    const auto wait = wakeAt > now ? wakeAt - now : Clock::duration::zero();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                static_cast<long>(ns % 1'000'000'000)};
    const int got = ::epoll_pwait2(epollFd_, events, 64, &ts, nullptr);
    if (got < 0 && errno != EINTR) break;
    for (int e = 0; e < got; ++e) {
      Conn& c = *static_cast<Conn*>(events[e].data.ptr);
      char chunk[16384];
      const ssize_t len = ::recv(c.fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (len <= 0) {
        if (len < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        // An idle connection is already queued in `idle`; a busy one
        // rejoins after reconnecting.
        const bool wasBusy = c.busy;
        if (wasBusy) finishFailed(c);
        closeConn(c);
        if (connectOne(c) && wasBusy) idle.push_back(&c);
        continue;
      }
      c.buf.append(chunk, static_cast<std::size_t>(len));
      const std::size_t headEnd = c.buf.find("\r\n\r\n");
      if (headEnd == std::string::npos) continue;
      int status = 0;
      std::size_t bodyLen = 0;
      if (!parseHead(c.buf, headEnd, status, bodyLen)) {
        const bool wasBusy = c.busy;
        if (wasBusy) finishFailed(c);
        closeConn(c);
        if (connectOne(c) && wasBusy) idle.push_back(&c);
        continue;
      }
      if (c.buf.size() < headEnd + 4 + bodyLen) continue;
      const auto doneAt = Clock::now();
      if (!c.busy) { // unsolicited bytes: the stream is out of sync
        closeConn(c);
        connectOne(c);
        continue;
      }
      const std::uint32_t target = requests[c.request];
      const std::string_view body{c.buf.data() + headEnd + 4, bodyLen};
      const bool good = status == 200 && body == expected_[target];
      if (status == 503 || status >= 500) ++r.rejected;
      c.buf.erase(0, headEnd + 4 + bodyLen);
      if (good) {
        ++r.completed;
        ++finished;
        r.latencyMs.push_back(std::chrono::duration<double, std::milli>(
                                  doneAt - due(c.request))
                                  .count());
        r.serviceUs.push_back(
            std::chrono::duration<double, std::micro>(doneAt - c.sentAt)
                .count());
        r.targetOf.push_back(target);
        r.dueAt.push_back(due(c.request));
        r.doneAt.push_back(doneAt);
        c.busy = false;
      } else {
        finishFailed(c);
      }
      idle.push_back(&c);
    }
  }
  if (!backlogTaken) r.backlog = n - finished;
  // Whatever is still outstanding at the deadline failed; reset those
  // connections so the next step starts clean.
  r.failed += n - finished;
  for (Conn& c : conns_) {
    if (c.busy) {
      closeConn(c);
      connectOne(c);
    }
  }
  const double stepWall = secondsSince(t0);
  r.generatorBusy =
      stepWall > 0.0 ? (threadCpuSeconds() - cpu0) / stepWall : 0.0;
  // Completions per second from the first due time to the last response.
  const double span =
      r.doneAt.empty()
          ? 0.0
          : std::chrono::duration<double>(r.doneAt.back() - t0).count();
  r.achievedRate = span > 0.0 ? static_cast<double>(r.completed) / span : 0.0;
  return r;
}

} // namespace perfbench
