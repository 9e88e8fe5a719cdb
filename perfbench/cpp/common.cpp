#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

namespace {

/// A "<field>: N kB" line of /proc/self/status in MiB, or -1 when absent.
double statusMib(std::string_view field) {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.size() > field.size() && line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

} // namespace

double peakRssMib() {
  if (const double hwm = statusMib("VmHWM"); hwm >= 0.0) return hwm;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // Linux: KiB
}

bool startPeakRssWindow() {
  ::malloc_trim(0);
  {
    std::ofstream clear{"/proc/self/clear_refs"};
    clear << "5"; // resets VmHWM to the current RSS
  }
  // After a reset the peak sits at the current RSS; without one it keeps
  // the earlier, larger peak. The slack covers the kernel's batched RSS
  // accounting.
  constexpr double kSlackMib = 4.0;
  const double hwm = statusMib("VmHWM");
  const double rss = statusMib("VmRSS");
  return hwm >= 0.0 && rss >= 0.0 && hwm <= rss + kSlackMib;
}

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

v6t::core::ExperimentConfig benchConfig(std::uint64_t seed, bool tiny) {
  v6t::core::ExperimentConfig config;
  config.seed = seed;
  config.threads = 1;
  config.analysisThreads = 1;
  if (tiny) {
    config.sourceScale = 0.04;
    config.volumeScale = 0.003;
    config.baseline = v6t::sim::weeks(3);
    config.splits = 3;
    config.routeObjectAt = v6t::sim::weeks(4);
  }
  return config;
}

namespace {

std::string referenceKey(std::string_view scale, std::uint64_t seed,
                         std::string_view kind, std::string_view telescope) {
  return std::string{scale} + " " + std::to_string(seed) + " " +
         std::string{kind} + " " + std::string{telescope};
}

} // namespace

bool References::load(const std::string& path, std::string& error) {
  std::ifstream in{path};
  if (!in) {
    error = "cannot open references file " + path;
    return false;
  }
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string scale, kind, telescope, digest;
    std::uint64_t seed = 0;
    if (!(fields >> scale >> seed >> kind >> telescope >> digest)) {
      error = path + ":" + std::to_string(lineNo) + ": expected 5 fields";
      return false;
    }
    digests_[referenceKey(scale, seed, kind, telescope)] =
        std::stoull(digest, nullptr, 16);
  }
  return true;
}

const std::uint64_t* References::find(std::string_view scale,
                                      std::uint64_t seed,
                                      std::string_view kind,
                                      std::string_view telescope) const {
  const auto it = digests_.find(referenceKey(scale, seed, kind, telescope));
  return it == digests_.end() ? nullptr : &it->second;
}

// ------------------------------------------------------------- spans

std::int64_t SpanRecorder::begin(std::string name, std::uint64_t runId) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.start = std::chrono::duration<double>(Clock::now() - origin_).count();
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.runId = runId;
  spans_.push_back(std::move(rec));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanRecorder::add(std::string name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t runId) {
  if (!enabled_) return;
  SpanRecord rec;
  rec.name = std::move(name);
  rec.start = std::chrono::duration<double>(start - origin_).count();
  rec.end = std::chrono::duration<double>(end - origin_).count();
  rec.runId = runId;
  spans_.push_back(std::move(rec));
}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

namespace {

bool inside(const SpanRecord& s, double from, double to) {
  return s.start >= from && s.end <= to;
}

} // namespace

double SpanRecorder::total(std::string_view name, double from,
                           double to) const {
  double sum = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && inside(s, from, to)) sum += s.end - s.start;
  }
  return sum;
}

std::map<std::string, double> SpanRecorder::selfTimeByLayer(double from,
                                                            double to) const {
  std::vector<double> childTime(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 && inside(s, from, to)) {
      childTime[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (!inside(s, from, to)) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += (s.end - s.start) - childTime[i];
  }
  return out;
}

double SpanRecorder::rootCovered(double from, double to) const {
  std::vector<std::pair<double, double>> roots;
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0 && inside(s, from, to)) roots.emplace_back(s.start, s.end);
  }
  std::sort(roots.begin(), roots.end());
  double covered = 0.0;
  double reach = from;
  for (const auto& [a, b] : roots) {
    const double start = std::max(a, reach);
    if (b > start) covered += b - start;
    reach = std::max(reach, b);
  }
  return covered;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"start\":%.9f,\"end\":%.9f,\"parent\":%lld,\"run\":%llu}",
                  s.start, s.end, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.runId));
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\"," << buf
        << "\n";
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- spin probe

double effectiveCores(unsigned threads) {
  // A fixed amount of integer work per loop; the optimizer cannot fold it
  // because the result is published through an atomic.
  std::atomic<std::uint64_t> sink{0};
  auto spin = [&sink] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  const auto t1 = Clock::now();
  spin();
  const double one = secondsSince(t1);
  const auto tn = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  const double many = secondsSince(tn);
  return many > 0.0 ? static_cast<double>(threads) * one / many : 0.0;
}

} // namespace perfbench
