// v6t::serve — minimal HTTP/1.1 machinery for the query service.
//
// The server speaks just enough HTTP for read-only JSON endpoints:
// GET/HEAD request lines, a handful of headers (only Connection and
// Content-Length matter), keep-alive, and pipelining. The parser is
// incremental — bytes arrive in arbitrary fragments from a non-blocking
// socket and are buffered until one full request head is present — and it
// never allocates per byte: fragments append to one rolling buffer whose
// size is bounded by `maxRequestBytes` (oversized heads are a 431, the
// slow-loris-with-a-firehose case).
//
// Pipelined requests are natural: poll() consumes exactly one request's
// bytes and leaves the rest buffered, so the connection state machine just
// keeps polling until NeedMore.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace v6t::serve {

struct HttpRequest {
  std::string method; // "GET" or "HEAD" (anything else is a 405)
  std::string target; // origin-form: /path?query, as received
  bool http11 = true; // false => HTTP/1.0
  bool keepAlive = true; // after Connection header + version defaults
  [[nodiscard]] bool headOnly() const { return method == "HEAD"; }
};

enum class ParseState { NeedMore, Ready, Error };

/// Incremental request parser. feed() appends raw socket bytes; poll()
/// yields at most one parsed request per call and consumes its bytes,
/// leaving pipelined successors buffered. After Error the connection is
/// poisoned: errorStatus() says which 4xx/5xx to send before closing.
class RequestParser {
public:
  explicit RequestParser(std::size_t maxRequestBytes = 8192)
      : maxBytes_(maxRequestBytes) {}

  void feed(std::string_view bytes) { buf_.append(bytes); }

  ParseState poll(HttpRequest& out);

  /// HTTP status to answer with after ParseState::Error: 400 (malformed),
  /// 405 (method), 431 (head too large), 505 (version).
  [[nodiscard]] int errorStatus() const { return errorStatus_; }
  [[nodiscard]] std::size_t bufferedBytes() const { return buf_.size(); }

private:
  ParseState fail(int status) {
    errorStatus_ = status;
    return ParseState::Error;
  }

  std::string buf_;
  std::size_t maxBytes_;
  int errorStatus_ = 0;
};

/// Reason phrase for the status codes the service emits.
[[nodiscard]] std::string_view statusText(int status);

/// Serialize one response. HEAD requests get full headers (including the
/// true Content-Length) and no body, per RFC 9110.
[[nodiscard]] std::string formatResponse(int status,
                                         std::string_view contentType,
                                         std::string_view body,
                                         bool keepAlive, bool headOnly);

/// A request target split into its decoded path and query parameters.
struct ParsedTarget {
  std::string path; // %-decoded, always starts with '/'
  std::vector<std::pair<std::string, std::string>> params; // decoded k/v
};

/// Split "/path?a=1&b=x%20y" into path + decoded params. nullopt on a bad
/// %-escape or a target that does not start with '/' (both are 400s).
[[nodiscard]] std::optional<ParsedTarget> parseTarget(
    std::string_view target);

/// Canonical cache key: decoded path + '?' + params sorted by (name,
/// value) and re-joined — "?b=2&a=1" and "?a=1&b=2" hit the same entry.
/// A bare path (no params) is just the path. '%', '&', '=' and '?' inside
/// the decoded path, names and values are %-encoded again, so two targets
/// share a key only when they decode to the same path and parameters.
[[nodiscard]] std::string canonicalQueryKey(const ParsedTarget& target);

} // namespace v6t::serve
