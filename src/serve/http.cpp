#include "serve/http.hpp"

#include <algorithm>
#include <cctype>

namespace v6t::serve {

namespace {

std::string toLower(std::string_view s) {
  std::string out{s};
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trimSpace(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// One header line without its terminator; CR already stripped.
struct HeaderLine {
  std::string key; // lowercased
  std::string value;
};

int hexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// %XX-decode (plus '+' as space in query components). False on a
/// truncated or non-hex escape.
bool percentDecode(std::string_view in, bool plusIsSpace, std::string& out) {
  out.clear();
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '%') {
      if (i + 2 >= in.size()) return false;
      const int hi = hexDigit(in[i + 1]);
      const int lo = hexDigit(in[i + 2]);
      if (hi < 0 || lo < 0) return false;
      out.push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    } else if (plusIsSpace && c == '+') {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return true;
}

/// Appends a decoded path, name or value to a cache key with the key's
/// own separators (and the escape character) %-encoded, so that no
/// decoded text can imitate a separator.
void appendKeyPart(std::string& key, std::string_view part) {
  for (const char c : part) {
    switch (c) {
      case '%': key += "%25"; break;
      case '&': key += "%26"; break;
      case '=': key += "%3D"; break;
      case '?': key += "%3F"; break;
      default: key += c; break;
    }
  }
}

} // namespace

ParseState RequestParser::poll(HttpRequest& out) {
  if (errorStatus_ != 0) return ParseState::Error;

  // Find the end of the head. Accept \r\n\r\n (the wire norm) and bare
  // \n\n (hand-typed netcat traffic).
  std::size_t headEnd = buf_.find("\r\n\r\n");
  std::size_t sepLen = 4;
  {
    const std::size_t bare = buf_.find("\n\n");
    if (bare != std::string::npos &&
        (headEnd == std::string::npos || bare + 1 < headEnd)) {
      headEnd = bare;
      sepLen = 2;
    }
  }
  if (headEnd == std::string::npos) {
    // Nothing parseable yet; a head that can no longer fit is fatal.
    if (buf_.size() > maxBytes_) return fail(431);
    return ParseState::NeedMore;
  }
  if (headEnd + sepLen > maxBytes_) return fail(431);

  const std::string_view head{buf_.data(), headEnd};

  // --- request line ------------------------------------------------------
  std::size_t lineEnd = head.find('\n');
  std::string_view requestLine =
      lineEnd == std::string_view::npos ? head : head.substr(0, lineEnd);
  if (!requestLine.empty() && requestLine.back() == '\r') {
    requestLine.remove_suffix(1);
  }
  const std::size_t sp1 = requestLine.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos
                                    : requestLine.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return fail(400);
  }
  const std::string_view method = requestLine.substr(0, sp1);
  const std::string_view target = requestLine.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = requestLine.substr(sp2 + 1);
  if (method.empty() || target.empty()) return fail(400);
  if (version == "HTTP/1.1") {
    out.http11 = true;
  } else if (version == "HTTP/1.0") {
    out.http11 = false;
  } else if (version.starts_with("HTTP/")) {
    return fail(505);
  } else {
    return fail(400);
  }
  if (method != "GET" && method != "HEAD") return fail(405);
  if (target.front() != '/') return fail(400);

  // --- headers -----------------------------------------------------------
  out.keepAlive = out.http11; // 1.1 defaults to keep-alive, 1.0 to close
  std::string_view rest = lineEnd == std::string_view::npos
                              ? std::string_view{}
                              : head.substr(lineEnd + 1);
  while (!rest.empty()) {
    std::size_t e = rest.find('\n');
    std::string_view line =
        e == std::string_view::npos ? rest : rest.substr(0, e);
    rest = e == std::string_view::npos ? std::string_view{}
                                       : rest.substr(e + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return fail(400);
    const std::string key = toLower(trimSpace(line.substr(0, colon)));
    const std::string_view value = trimSpace(line.substr(colon + 1));
    if (key == "connection") {
      const std::string v = toLower(value);
      if (v.find("close") != std::string::npos) {
        out.keepAlive = false;
      } else if (v.find("keep-alive") != std::string::npos) {
        out.keepAlive = true;
      }
    } else if (key == "content-length") {
      // Read-only service: request bodies are not accepted.
      if (value != "0") return fail(400);
    } else if (key == "transfer-encoding") {
      return fail(400);
    }
  }

  out.method = std::string{method};
  out.target = std::string{target};
  buf_.erase(0, headEnd + sepLen);
  return ParseState::Ready;
}

std::string_view statusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Error";
  }
}

std::string formatResponse(int status, std::string_view contentType,
                           std::string_view body, bool keepAlive,
                           bool headOnly) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += statusText(status);
  out += "\r\nContent-Type: ";
  out += contentType;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: ";
  out += keepAlive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  if (!headOnly) out += body;
  return out;
}

std::optional<ParsedTarget> parseTarget(std::string_view target) {
  if (target.empty() || target.front() != '/') return std::nullopt;
  ParsedTarget out;
  const std::size_t q = target.find('?');
  const std::string_view rawPath =
      q == std::string_view::npos ? target : target.substr(0, q);
  if (!percentDecode(rawPath, /*plusIsSpace=*/false, out.path)) {
    return std::nullopt;
  }
  if (q == std::string_view::npos) return out;

  std::string_view query = target.substr(q + 1);
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    std::string_view pair =
        amp == std::string_view::npos ? query : query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{}
                                          : query.substr(amp + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    std::string key;
    std::string value;
    if (eq == std::string_view::npos) {
      if (!percentDecode(pair, true, key)) return std::nullopt;
    } else {
      if (!percentDecode(pair.substr(0, eq), true, key)) return std::nullopt;
      if (!percentDecode(pair.substr(eq + 1), true, value)) {
        return std::nullopt;
      }
    }
    out.params.emplace_back(std::move(key), std::move(value));
  }
  return out;
}

std::string canonicalQueryKey(const ParsedTarget& target) {
  std::string key;
  appendKeyPart(key, target.path);
  if (target.params.empty()) return key;
  auto sorted = target.params;
  std::sort(sorted.begin(), sorted.end());
  key += '?';
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) key += '&';
    first = false;
    appendKeyPart(key, k);
    key += '=';
    appendKeyPart(key, v);
  }
  return key;
}

} // namespace v6t::serve
