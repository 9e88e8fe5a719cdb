// The query service (DESIGN.md §17): incremental HTTP parsing under
// adversarial framing (truncated, oversized, pipelined requests), the
// sharded byte-bounded LRU result cache and its keys, the QueryEngine's
// JSON endpoints and error paths, a live epoll server driven over real
// sockets — keep-alive, pipelining, slow-loris idle reaping, and the
// multi-threaded cached == uncached byte-equality contract the result
// cache rests on — and the answers the engine builds at load, checked
// against the analysis entry points they replace.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/heavy_hitter.hpp"
#include "analysis/taxonomy.hpp"
#include "bgp/splitter.hpp"
#include "net/packet.hpp"
#include "obs/format.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/http.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "sim/time.hpp"
#include "telescope/session.hpp"

namespace v6t::serve {
namespace {

// ---------------------------------------------------------------- parser

TEST(RequestParser, AssemblesAcrossArbitraryFragments) {
  RequestParser parser;
  const std::string raw = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  HttpRequest req;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    ASSERT_EQ(parser.poll(req), ParseState::NeedMore) << "byte " << i;
    parser.feed(std::string_view{&raw[i], 1});
  }
  ASSERT_EQ(parser.poll(req), ParseState::Ready);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/healthz");
  EXPECT_TRUE(req.http11);
  EXPECT_TRUE(req.keepAlive);
  EXPECT_EQ(parser.bufferedBytes(), 0u);
}

TEST(RequestParser, PipelinedRequestsComeOutOneAtATime) {
  RequestParser parser;
  parser.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), ParseState::Ready);
  EXPECT_EQ(req.target, "/a");
  EXPECT_GT(parser.bufferedBytes(), 0u);
  ASSERT_EQ(parser.poll(req), ParseState::Ready);
  EXPECT_EQ(req.target, "/b");
  EXPECT_EQ(parser.poll(req), ParseState::NeedMore);
}

TEST(RequestParser, ErrorStatuses) {
  struct Case {
    const char* raw;
    int status;
  };
  const Case cases[] = {
      {"POST /x HTTP/1.1\r\n\r\n", 405},
      {"GET /x HTTP/2.0\r\n\r\n", 505},
      {"GET /x\r\n\r\n", 400},
      {"garbage\r\n\r\n", 400},
      // Bodies are rejected: these are read-only endpoints.
      {"GET /x HTTP/1.1\r\nContent-Length: 5\r\n\r\n", 400},
      {"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400},
  };
  for (const Case& c : cases) {
    RequestParser parser;
    parser.feed(c.raw);
    HttpRequest req;
    ASSERT_EQ(parser.poll(req), ParseState::Error) << c.raw;
    EXPECT_EQ(parser.errorStatus(), c.status) << c.raw;
  }
}

TEST(RequestParser, OversizedHeadIs431) {
  RequestParser parser{128};
  std::string raw = "GET /x HTTP/1.1\r\nX-Pad: ";
  raw.append(200, 'a'); // no terminator yet — a slow loris with a firehose
  parser.feed(raw);
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), ParseState::Error);
  EXPECT_EQ(parser.errorStatus(), 431);
}

TEST(RequestParser, KeepAliveDefaultsFollowVersion) {
  const struct {
    const char* raw;
    bool keepAlive;
  } cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
  };
  for (const auto& c : cases) {
    RequestParser parser;
    parser.feed(c.raw);
    HttpRequest req;
    ASSERT_EQ(parser.poll(req), ParseState::Ready) << c.raw;
    EXPECT_EQ(req.keepAlive, c.keepAlive) << c.raw;
  }
}

TEST(HttpTarget, DecodeAndCanonicalKey) {
  const auto t = parseTarget("/sources/x?b=2&a=1%20z");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->path, "/sources/x");
  ASSERT_EQ(t->params.size(), 2u);
  EXPECT_EQ(t->params[1].second, "1 z");
  // Parameter order never splits the cache.
  const auto t2 = parseTarget("/sources/x?a=1%20z&b=2");
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(canonicalQueryKey(*t), canonicalQueryKey(*t2));
  EXPECT_FALSE(parseTarget("/x?a=%zz").has_value());
  EXPECT_FALSE(parseTarget("no-slash").has_value());
  // Decoded separators are escaped again in the key: a value holding
  // "&threshold=5", or a path holding '?', never imitates a parameter.
  EXPECT_NE(canonicalQueryKey(*parseTarget("/h?k=1&threshold=5")),
            canonicalQueryKey(*parseTarget("/h?k=1%26threshold%3D5")));
  EXPECT_NE(canonicalQueryKey(*parseTarget("/s/x?k=1")),
            canonicalQueryKey(*parseTarget("/s/x%3Fk=1")));
  EXPECT_NE(canonicalQueryKey(*parseTarget("/s/x%3F")),
            canonicalQueryKey(*parseTarget("/s/x%253F")));
}

TEST(HttpResponse, HeadGetsHeadersButNoBody) {
  const std::string get =
      formatResponse(200, "application/json", "{\"a\":1}", true, false);
  const std::string head =
      formatResponse(200, "application/json", "{\"a\":1}", true, true);
  EXPECT_NE(get.find("Content-Length: 7"), std::string::npos);
  EXPECT_NE(get.find("{\"a\":1}"), std::string::npos);
  EXPECT_NE(head.find("Content-Length: 7"), std::string::npos);
  EXPECT_EQ(head.find("{\"a\":1}"), std::string::npos);
}

// ----------------------------------------------------------------- cache

TEST(ResultCache, EvictsColdEntriesAtByteBound) {
  // One shard so the LRU order is globally observable.
  ResultCache cache{{.totalBytes = 512, .shards = 1}};
  ASSERT_TRUE(cache.enabled());
  const std::string body(64, 'x'); // 64 + key + 64 overhead per entry
  cache.put("a", body);
  cache.put("b", body);
  cache.put("c", body);
  EXPECT_EQ(cache.entries(), 3u);
  // Touch "a" so "b" is the cold end, then push it out.
  EXPECT_TRUE(cache.get("a").has_value());
  cache.put("d", body);
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes(), 512u);
}

TEST(ResultCache, OversizedBodiesAreNeverCached) {
  ResultCache cache{{.totalBytes = 256, .shards = 1}};
  cache.put("big", std::string(1024, 'x'));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.get("big").has_value());
}

TEST(ResultCache, ZeroBytesDisables) {
  ResultCache cache{{.totalBytes = 0, .shards = 4}};
  EXPECT_FALSE(cache.enabled());
  cache.put("k", "v");
  EXPECT_FALSE(cache.get("k").has_value());
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

// ------------------------------------------------- engine + live server

/// Synthetic capture: `sources` scanners probing a /32, a couple of
/// sessions each, one heavy hitter. Deterministic — no RNG — so every
/// test run indexes the identical capture.
std::vector<net::Packet> makeCapture(int sources) {
  std::vector<net::Packet> out;
  std::uint64_t seq = 0;
  for (int s = 0; s < sources; ++s) {
    const net::Ipv6Address src{0x2001'0db8'0000'0000ull,
                               static_cast<std::uint64_t>(s + 1)};
    const int bursts = (s == 0) ? 40 : 3; // source 0 is the heavy hitter
    for (int b = 0; b < bursts; ++b) {
      const std::int64_t base = (s * 37 + b * 211) * 60'000ll;
      for (int k = 0; k < 5; ++k) {
        net::Packet p;
        p.ts = sim::SimTime{base + k * 1000};
        p.src = src;
        p.dst = net::Ipv6Address{0x3fff'0100'0000'0000ull,
                                 static_cast<std::uint64_t>(seq)};
        p.srcAsn = net::Asn{static_cast<std::uint32_t>(64500 + s)};
        p.originId = static_cast<std::uint32_t>(s);
        p.originSeq = seq++;
        out.push_back(p);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const net::Packet& a, const net::Packet& b) {
              return std::tuple{a.ts.millis(), a.originId, a.originSeq} <
                     std::tuple{b.ts.millis(), b.originId, b.originSeq};
            });
  return out;
}

/// Two split cycles of 3fff:100::/32, the prefix the captures probe.
bgp::SplitSchedule makeSchedule() {
  bgp::SplitSchedule::Params params;
  params.base = net::Prefix::mustParse("3fff:100::/32");
  params.start = sim::kEpoch;
  params.baseline = sim::weeks(1);
  params.cycle = sim::weeks(1);
  params.withdrawGap = sim::days(1);
  params.splits = 2;
  return bgp::SplitSchedule::make(params);
}

class ServeFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    packets_ = new std::vector<net::Packet>{makeCapture(12)};
    sessions_ = new std::vector<telescope::Session>{
        telescope::sessionize(*packets_, telescope::SourceAgg::Addr128)};
    schedule_ = new bgp::SplitSchedule{makeSchedule()};
    QueryEngineOptions options;
    options.analysisThreads = 2;
    engine_ = new QueryEngine{*packets_, *sessions_, schedule_, options};
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete schedule_;
    delete sessions_;
    delete packets_;
    engine_ = nullptr;
    schedule_ = nullptr;
    sessions_ = nullptr;
    packets_ = nullptr;
  }

  static std::vector<net::Packet>* packets_;
  static std::vector<telescope::Session>* sessions_;
  static bgp::SplitSchedule* schedule_;
  static QueryEngine* engine_;
};

std::vector<net::Packet>* ServeFixture::packets_ = nullptr;
std::vector<telescope::Session>* ServeFixture::sessions_ = nullptr;
bgp::SplitSchedule* ServeFixture::schedule_ = nullptr;
QueryEngine* ServeFixture::engine_ = nullptr;

TEST_F(ServeFixture, EngineAnswersEveryEndpoint) {
  EXPECT_EQ(engine_->evaluate("/healthz").status, 200);
  const auto table6 = engine_->evaluate("/reports/table6");
  EXPECT_EQ(table6.status, 200);
  EXPECT_NE(table6.body.find("\"temporal\""), std::string::npos);
  const auto hitters = engine_->evaluate("/heavy-hitters?k=3");
  EXPECT_EQ(hitters.status, 200);
  EXPECT_NE(hitters.body.find("\"hitters\""), std::string::npos);
  const auto source = engine_->evaluate("/sources/2001:db8::1");
  EXPECT_EQ(source.status, 200);
  EXPECT_NE(source.body.find("\"temporal\""), std::string::npos);
  EXPECT_EQ(engine_->evaluate("/reaction-delays").status, 200);
}

TEST_F(ServeFixture, EngineErrorPaths) {
  EXPECT_EQ(engine_->evaluate("/nope").status, 404);
  EXPECT_EQ(engine_->evaluate("/sources/not-an-address").status, 400);
  EXPECT_EQ(engine_->evaluate("/sources/3fff:ffff::99").status, 404);
  EXPECT_EQ(engine_->evaluate("/heavy-hitters?k=0").status, 400);
  EXPECT_EQ(engine_->evaluate("/heavy-hitters?bogus=1").status, 400);
  // A repeated name is ambiguous, whichever repeat would win.
  EXPECT_EQ(engine_->evaluate("/heavy-hitters?k=3&k=5").status, 400);
  EXPECT_EQ(engine_->evaluate("/heavy-hitters?k=3&k=3").status, 400);
  EXPECT_EQ(engine_->evaluate("bad-target").status, 400);
  // Without a schedule there is nothing to compute delays against.
  const QueryEngine bare{*packets_, *sessions_, nullptr};
  EXPECT_EQ(bare.evaluate("/reaction-delays").status, 404);
}

TEST_F(ServeFixture, CacheabilityAndLabels) {
  EXPECT_TRUE(QueryEngine::cacheable("/reports/table6"));
  EXPECT_FALSE(QueryEngine::cacheable("/metrics"));
  EXPECT_FALSE(QueryEngine::cacheable("/healthz"));
  EXPECT_EQ(QueryEngine::endpointLabel("/heavy-hitters"), "heavy_hitters");
  EXPECT_EQ(QueryEngine::endpointLabel("/sources/::1"), "sources");
  EXPECT_EQ(QueryEngine::endpointLabel("/x"), "other");
}

/// Blocking test client; the server side stays non-blocking.
class Client {
public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(std::string_view bytes) const {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Read one full response (head + Content-Length body). Empty string on
  /// EOF/timeout before a complete head.
  std::string recvResponse() {
    while (true) {
      const std::size_t headEnd = buf_.find("\r\n\r\n");
      if (headEnd != std::string::npos) {
        const std::size_t bodyLen = contentLength(buf_.substr(0, headEnd));
        const std::size_t total = headEnd + 4 + bodyLen;
        if (buf_.size() >= total) {
          std::string out = buf_.substr(0, total);
          buf_.erase(0, total);
          return out;
        }
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Everything the peer sends until it closes the connection.
  std::string recvUntilClosed() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
    return std::move(buf_);
  }

  /// True when the peer closes within the receive timeout.
  bool waitClosed() const {
    char chunk[256];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

private:
  static std::size_t contentLength(const std::string& head) {
    const std::string needle = "Content-Length: ";
    const std::size_t at = head.find(needle);
    if (at == std::string::npos) return 0;
    return static_cast<std::size_t>(
        std::strtoull(head.c_str() + at + needle.size(), nullptr, 10));
  }

  int fd_ = -1;
  std::string buf_;
};

std::string statusLine(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

/// The status code of a raw response ("HTTP/1.1 400 ..." -> 400).
int statusOf(const std::string& response) {
  return std::atoi(response.c_str() + response.find(' ') + 1);
}

std::string bodyOf(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string{} : response.substr(at + 4);
}

class LiveServerFixture : public ServeFixture {
protected:
  static void SetUpTestSuite() {
    ServeFixture::SetUpTestSuite();
    ServerOptions options;
    options.port = 0;
    options.threads = 2;
    options.maxRequestBytes = 2048;
    server_ = new Server{*engine_, options};
    server_->start();
  }
  static void TearDownTestSuite() {
    server_->stop();
    delete server_;
    server_ = nullptr;
    ServeFixture::TearDownTestSuite();
  }
  static Server* server_;
};

Server* LiveServerFixture::server_ = nullptr;

TEST_F(LiveServerFixture, ServesEndpointsOverRealSockets) {
  Client client{server_->port()};
  client.send("GET /reports/table6 HTTP/1.1\r\n\r\n");
  const std::string response = client.recvResponse();
  EXPECT_EQ(statusLine(response), "HTTP/1.1 200 OK");
  EXPECT_EQ(bodyOf(response), engine_->evaluate("/reports/table6").body);
}

TEST_F(LiveServerFixture, KeepAliveServesManyRequestsPerConnection) {
  Client client{server_->port()};
  for (int i = 0; i < 5; ++i) {
    client.send("GET /healthz HTTP/1.1\r\n\r\n");
    const std::string response = client.recvResponse();
    ASSERT_EQ(statusLine(response), "HTTP/1.1 200 OK") << "request " << i;
  }
}

TEST_F(LiveServerFixture, PipelinedRequestsAnsweredInOrder) {
  Client client{server_->port()};
  client.send(
      "GET /healthz HTTP/1.1\r\n\r\n"
      "GET /reports/table6 HTTP/1.1\r\n\r\n"
      "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(bodyOf(client.recvResponse()).find("ok"), std::string::npos);
  EXPECT_NE(bodyOf(client.recvResponse()).find("table6"),
            std::string::npos);
  EXPECT_EQ(statusLine(client.recvResponse()), "HTTP/1.1 404 Not Found");
}

TEST_F(LiveServerFixture, MalformedRequestGets400AndClose) {
  Client client{server_->port()};
  client.send("garbage\r\n\r\n");
  const std::string response = client.recvResponse();
  EXPECT_EQ(statusLine(response), "HTTP/1.1 400 Bad Request");
  EXPECT_TRUE(client.waitClosed());
}

TEST_F(LiveServerFixture, OversizedRequestGets431AndClose) {
  Client client{server_->port()};
  std::string raw = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  raw.append(4096, 'a');
  client.send(raw);
  const std::string response = client.recvResponse();
  EXPECT_EQ(statusLine(response),
            "HTTP/1.1 431 Request Header Fields Too Large");
  EXPECT_TRUE(client.waitClosed());
}

TEST_F(LiveServerFixture, TruncatedRequestThenCleanRequestStillServed) {
  {
    // Half a request head, then the client vanishes.
    Client client{server_->port()};
    client.send("GET /repo");
  }
  Client client{server_->port()};
  client.send("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusLine(client.recvResponse()), "HTTP/1.1 200 OK");
}

TEST_F(LiveServerFixture, HeadRequestOmitsBody) {
  // Connection: close so "everything until EOF" is exactly one response;
  // a HEAD reply carries the true Content-Length but no body bytes.
  Client client{server_->port()};
  client.send("HEAD /reports/table6 HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::string response = client.recvUntilClosed();
  EXPECT_EQ(statusLine(response), "HTTP/1.1 200 OK");
  EXPECT_NE(response.find("Content-Length: "), std::string::npos);
  EXPECT_TRUE(bodyOf(response).empty());
}

TEST_F(LiveServerFixture, ConcurrentClientsGetByteIdenticalBodies) {
  // The cached == uncached contract, exercised the hostile way: many
  // threads racing over a mix of cacheable targets while the cache warms.
  const std::vector<std::string> targets = {
      "/reports/table6", "/heavy-hitters?k=3", "/heavy-hitters?k=5",
      "/sources/2001:db8::1", "/reaction-delays"};
  std::map<std::string, std::string> expected;
  for (const std::string& t : targets) {
    expected[t] = engine_->evaluate(t).body;
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&, w] {
      Client client{server_->port()};
      for (int i = 0; i < 20; ++i) {
        const std::string& target = targets[(w + i) % targets.size()];
        client.send("GET " + target + " HTTP/1.1\r\n\r\n");
        const std::string response = client.recvResponse();
        if (statusLine(response) != "HTTP/1.1 200 OK" ||
            bodyOf(response) != expected[target]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(server_->cache().hits(), 0u);
}

TEST_F(LiveServerFixture, CachedAnswersMatchEvaluate) {
  // In each pair the first request warms the cache and the second would
  // be served from the entry if the two shared a cache key: repeated
  // names, and %-encoded separators in a value or in the path.
  const std::pair<std::string, std::string> pairs[] = {
      {"/heavy-hitters?k=3&k=5", "/heavy-hitters?k=5&k=3"},
      {"/heavy-hitters?k=1&threshold=5",
       "/heavy-hitters?k=1%26threshold%3D5"},
      {"/sources/2001:db8::1?k=1", "/sources/2001:db8::1%3Fk=1"},
  };
  Client client{server_->port()};
  for (const auto& [first, second] : pairs) {
    for (const std::string& target : {first, second}) {
      client.send("GET " + target + " HTTP/1.1\r\n\r\n");
      const std::string response = client.recvResponse();
      const QueryEngine::Response direct = engine_->evaluate(target);
      EXPECT_EQ(statusOf(response), direct.status) << target;
      EXPECT_EQ(bodyOf(response), direct.body) << target;
    }
  }
}

TEST(ServeSlowLoris, IdleConnectionsAreReaped) {
  const auto packets = makeCapture(3);
  const auto sessions =
      telescope::sessionize(packets, telescope::SourceAgg::Addr128);
  const QueryEngine engine{packets, sessions, nullptr};
  ServerOptions options;
  options.port = 0;
  options.threads = 1;
  options.idleTimeoutSeconds = 0.2;
  Server server{engine, options};
  server.start();
  const auto start = std::chrono::steady_clock::now();
  Client client{server.port()};
  client.send("GET /heal"); // partial head, then silence
  EXPECT_TRUE(client.waitClosed());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 4.0); // reaped by the sweep, not the 5s client timeout
  server.stop();
}

// ------------------------------------------------ build-once answers

/// Synthetic capture for the answers the engine builds at load: 48
/// sources whose packet counts repeat every 12 sources (ties between
/// sources far apart in canonical order) plus one heavy source, in three
/// temporal shapes — one burst (one-off), four bursts 6 h apart
/// (periodic), four at irregular gaps (intermittent). Addresses are
/// scrambled, so address order is not canonical order.
std::vector<net::Packet> makeRankedCapture() {
  constexpr std::int64_t kHour = 3'600'000;
  const std::int64_t periodic[] = {0, 6 * kHour, 12 * kHour, 18 * kHour};
  const std::int64_t irregular[] = {0, 5 * kHour, 31 * kHour, 40 * kHour};
  std::vector<net::Packet> out;
  std::uint64_t seq = 0;
  for (int s = 0; s < 48; ++s) {
    const int packets = s == 5 ? 300 : 4 + (s * 7) % 12;
    const int bursts = s % 3 == 0 ? 1 : 4;
    const std::int64_t* offsets = s % 3 == 2 ? irregular : periodic;
    const net::Ipv6Address src{0x2001'0db8'0000'0000ull,
                               static_cast<std::uint64_t>((s * 29) % 97 + 1)};
    for (int k = 0; k < packets; ++k) {
      net::Packet p;
      p.ts = sim::SimTime{s * 600'000ll + offsets[k % bursts] + k * 1000};
      p.src = src;
      p.dst = net::Ipv6Address{0x3fff'0100'0000'0000ull, seq};
      p.srcAsn = net::Asn{static_cast<std::uint32_t>(64500 + s)};
      p.originId = static_cast<std::uint32_t>(s);
      p.originSeq = seq++;
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const net::Packet& a, const net::Packet& b) {
              return std::tuple{a.ts.millis(), a.originId, a.originSeq} <
                     std::tuple{b.ts.millis(), b.originId, b.originSeq};
            });
  return out;
}

/// Every value that follows "key": in a flat JSON body, in order (quoted
/// values keep their quotes).
std::vector<std::string> valuesOf(std::string_view body,
                                  std::string_view key) {
  const std::string needle = "\"" + std::string{key} + "\":";
  std::vector<std::string> out;
  for (std::size_t at = body.find(needle); at != std::string_view::npos;
       at = body.find(needle, at + 1)) {
    const std::size_t begin = at + needle.size();
    const std::size_t end = body.find_first_of(",}]", begin);
    out.emplace_back(body.substr(begin, end - begin));
  }
  return out;
}

std::string jsonString(std::string_view s) {
  return "\"" + std::string{s} + "\"";
}

/// Shortest text that parses back to exactly `v`.
std::string exactText(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string{buf, end};
}

class BuildOnceFixture : public ::testing::Test {
protected:
  std::vector<net::Packet> packets_ = makeRankedCapture();
  std::vector<telescope::Session> sessions_ =
      telescope::sessionize(packets_, telescope::SourceAgg::Addr128);
  bgp::SplitSchedule schedule_ = makeSchedule();
  QueryEngine engine_{packets_, sessions_, &schedule_};
};

TEST_F(BuildOnceFixture, HeavyHittersMatchFindHeavyHittersAndImpact) {
  const analysis::CaptureIndex& idx = engine_.index();
  const std::uint64_t maxK = QueryEngineOptions{}.maxK;
  std::vector<double> thresholds;
  for (std::size_t i = 0; i < idx.sourceCount(); ++i) {
    // Each source's exact share (that source is not a hitter at it) and
    // the doubles on either side.
    const double share =
        100.0 * static_cast<double>(idx.aggregatesOf(i).packets) /
        static_cast<double>(idx.packets().size());
    thresholds.push_back(share);
    thresholds.push_back(std::nextafter(share, 0.0));
    thresholds.push_back(std::nextafter(share, 100.0));
  }
  std::size_t checked = 0;
  for (const double threshold : thresholds) {
    const auto hitters = analysis::findHeavyHitters(idx, threshold);
    const auto impact = analysis::heavyHitterImpact(idx, hitters);
    const std::uint64_t m = hitters.size();
    for (const std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2}, m,
                                  m + 1, maxK}) {
      if (k < 1) continue;
      const std::string target = "/heavy-hitters?k=" + std::to_string(k) +
                                 "&threshold=" + exactText(threshold);
      const QueryEngine::Response r = engine_.evaluate(target);
      ASSERT_EQ(r.status, 200) << target;
      EXPECT_EQ(valuesOf(r.body, "total"),
                std::vector<std::string>{std::to_string(m)})
          << target;
      std::vector<std::string> sources;
      std::vector<std::string> shares;
      for (std::size_t i = 0; i < std::min<std::uint64_t>(k, m); ++i) {
        sources.push_back(jsonString(hitters[i].source.toString()));
        shares.push_back(
            jsonString(obs::fmt::fixed(hitters[i].shareOfTelescope, 4)));
      }
      EXPECT_EQ(valuesOf(r.body, "source"), sources) << target;
      EXPECT_EQ(valuesOf(r.body, "share_percent"), shares) << target;
      const std::string_view tail =
          std::string_view{r.body}.substr(r.body.find("\"impact\":"));
      EXPECT_EQ(valuesOf(tail, "packets"),
                std::vector<std::string>{std::to_string(impact.packets)})
          << target;
      EXPECT_EQ(valuesOf(tail, "sessions"),
                std::vector<std::string>{std::to_string(impact.sessions)})
          << target;
      EXPECT_EQ(valuesOf(tail, "packet_share_percent"),
                std::vector<std::string>{
                    jsonString(obs::fmt::fixed(impact.packetShare, 4))})
          << target;
      EXPECT_EQ(valuesOf(tail, "session_share_percent"),
                std::vector<std::string>{
                    jsonString(obs::fmt::fixed(impact.sessionShare, 4))})
          << target;
      ++checked;
    }
  }
  EXPECT_GT(checked, 3 * idx.sourceCount());
}

TEST_F(BuildOnceFixture, TiedSourcesListInCanonicalOrder) {
  const analysis::CaptureIndex& idx = engine_.index();
  std::map<std::string, std::size_t> canonical;
  for (std::size_t i = 0; i < idx.sourceCount(); ++i) {
    canonical[jsonString(idx.source(i).addr.toString())] = i;
  }
  const QueryEngine::Response r =
      engine_.evaluate("/heavy-hitters?k=10000&threshold=1e-9");
  ASSERT_EQ(r.status, 200);
  const std::vector<std::string> sources = valuesOf(r.body, "source");
  const std::vector<std::string> packets = valuesOf(r.body, "packets");
  ASSERT_EQ(sources.size(), idx.sourceCount());
  std::size_t ties = 0;
  for (std::size_t i = 1; i < sources.size(); ++i) {
    const std::uint64_t prev = std::stoull(packets[i - 1]);
    const std::uint64_t cur = std::stoull(packets[i]);
    ASSERT_GE(prev, cur) << "rank " << i;
    if (prev == cur) {
      ++ties;
      EXPECT_LT(canonical.at(sources[i - 1]), canonical.at(sources[i]))
          << "rank " << i;
    }
  }
  EXPECT_GT(ties, 20u); // the capture is built to be full of ties
}

TEST_F(BuildOnceFixture, SourceTemporalMatchesClassifyTemporal) {
  const analysis::CaptureIndex& idx = engine_.index();
  std::set<std::string> classes;
  for (std::size_t i = 0; i < idx.sourceCount(); ++i) {
    const analysis::TemporalResult expected =
        analysis::classifyTemporal(idx.sessionStartsOf(i));
    const std::string target = "/sources/" + idx.source(i).addr.toString();
    const QueryEngine::Response r = engine_.evaluate(target);
    ASSERT_EQ(r.status, 200) << target;
    EXPECT_EQ(valuesOf(r.body, "temporal"),
              std::vector<std::string>{
                  jsonString(analysis::toString(expected.cls))})
        << target;
    EXPECT_EQ(valuesOf(r.body, "period_ms"),
              std::vector<std::string>{
                  expected.period ? std::to_string(expected.period->millis())
                                  : "null"})
        << target;
    classes.emplace(analysis::toString(expected.cls));
  }
  EXPECT_EQ(classes.size(), 3u); // one-off, intermittent and periodic
}

TEST_F(BuildOnceFixture, BodiesIdenticalAcrossThreadsAndSplitting) {
  const analysis::CaptureIndex& idx = engine_.index();
  std::vector<std::string> targets = {"/reports/table6", "/reaction-delays",
                                      "/heavy-hitters",
                                      "/heavy-hitters?k=5&threshold=0.5",
                                      "/heavy-hitters?k=100&threshold=1e-9"};
  for (std::size_t i = 0; i < idx.sourceCount(); ++i) {
    targets.push_back("/sources/" + idx.source(i).addr.toString());
  }
  const auto bodies = [&](const QueryEngineOptions& options) {
    const QueryEngine engine{packets_, sessions_, &schedule_, options};
    std::vector<std::string> out;
    for (const std::string& t : targets) out.push_back(engine.evaluate(t).body);
    return out;
  };
  const std::vector<std::string> reference = bodies({.analysisThreads = 1});
  EXPECT_EQ(bodies({.analysisThreads = 2}), reference);
  EXPECT_EQ(bodies({.analysisThreads = 4}), reference);
  EXPECT_EQ(bodies({.analysisThreads = 4, .minSplitCost = 1}), reference);
  EXPECT_EQ(bodies({.analysisThreads = 1, .minSplitCost = 1}), reference);
}

TEST_F(BuildOnceFixture, MixedAggregationLevelsAreRejected) {
  // The prefix-sum impact needs each hitter to cover only its own key.
  std::vector<telescope::Session> mixed = sessions_;
  for (telescope::Session& s :
       telescope::sessionize(packets_, telescope::SourceAgg::Net64)) {
    mixed.push_back(std::move(s));
  }
  EXPECT_THROW((QueryEngine{packets_, mixed, &schedule_}),
               std::invalid_argument);
}

TEST_F(BuildOnceFixture, PrecomputeSpanIsRecorded) {
  obs::Registry registry;
  const QueryEngine engine{packets_, sessions_, &schedule_, {}, &registry};
  const std::string metrics = engine.evaluate("/metrics").body;
  EXPECT_NE(metrics.find("serve_precompute_seconds"), std::string::npos);
  EXPECT_NE(metrics.find("analysis_index_seconds"), std::string::npos);
}

} // namespace
} // namespace v6t::serve
