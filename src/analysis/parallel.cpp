#include "analysis/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "obs/trace.hpp"

namespace v6t::analysis {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall-domain trace timebase: microseconds since the first scheduler
/// activity of the process, shared across parallelForCosted invocations so
/// consecutive analysis stages land on one contiguous timeline.
std::int64_t traceMicros() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               t0)
      .count();
}

/// Record one executed task as a wall-domain SchedSlice on `worker`'s lane.
void traceSlice(obs::trace::Tracer* tracer, unsigned worker, std::size_t task,
                std::int64_t startUs) {
  tracer->recordWall({startUs, 0, task,
                      static_cast<std::uint64_t>(traceMicros() - startUs),
                      worker, obs::trace::EventKind::SchedSlice,
                      obs::trace::ClockDomain::Wall});
}

constexpr unsigned kMaxWorkers = 64;

ParallelForStats inlineRun(
    std::size_t n, const std::function<void(unsigned, std::size_t)>& fn) {
  ParallelForStats stats;
  stats.items.assign(1, 0);
  stats.busySeconds.assign(1, 0.0);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) fn(0, i);
  stats.items[0] = n;
  stats.busySeconds[0] = secondsSince(t0);
  return stats;
}

unsigned workerCount(std::size_t n, unsigned threads) {
  return static_cast<unsigned>(
      std::min<std::size_t>(std::min<std::size_t>(threads, n), kMaxWorkers));
}

/// The one dispatch loop: `workers` workers (the caller is worker 0) take
/// positions [begin, begin + chunk) off one atomic cursor until all `n`
/// are taken, calling run(worker, position) for each.
template <typename Run>
ParallelForStats dispatch(std::size_t n, unsigned workers, std::size_t chunk,
                          const Run& run) {
  ParallelForStats stats;
  stats.items.assign(workers, 0);
  stats.busySeconds.assign(workers, 0.0);
  std::atomic<std::size_t> cursor{0};

  auto work = [&](unsigned worker) {
    const auto t0 = Clock::now();
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(begin + chunk, n);
      for (std::size_t p = begin; p < end; ++p) run(worker, p);
      stats.items[worker] += end - begin;
    }
    stats.busySeconds[worker] = secondsSince(t0);
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();
  return stats;
}

} // namespace

void ParallelForStats::absorb(const ParallelForStats& other) {
  if (other.items.size() > items.size()) {
    items.resize(other.items.size(), 0);
    busySeconds.resize(other.busySeconds.size(), 0.0);
  }
  for (std::size_t w = 0; w < other.items.size(); ++w) {
    items[w] += other.items[w];
    busySeconds[w] += other.busySeconds[w];
  }
  splits += other.splits;
  taskCosts.insert(taskCosts.end(), other.taskCosts.begin(),
                   other.taskCosts.end());
}

std::vector<std::size_t> lptOrder(std::span<const std::uint64_t> costs) {
  std::vector<std::size_t> order(costs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // stable_sort keeps equal-cost items in index order — the canonical
  // tie-break the property tests pin.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  return order;
}

ParallelForStats parallelFor(
    std::size_t n, unsigned threads,
    const std::function<void(unsigned worker, std::size_t index)>& fn) {
  if (threads <= 1 || n <= 1) return inlineRun(n, fn);
  const unsigned workers = workerCount(n, threads);
  // Chunked grabbing keeps cursor contention negligible while still
  // letting fast workers absorb a slow worker's tail.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(workers) * 8));
  return dispatch(n, workers, chunk, fn);
}

ParallelForStats parallelForCosted(
    std::span<const std::uint64_t> costs, unsigned threads,
    const std::function<void(unsigned worker, std::size_t index)>& fn) {
  const std::size_t n = costs.size();
  ParallelForStats stats;
  if (threads <= 1 || n <= 1) {
    stats = inlineRun(n, fn);
  } else {
    // One task per grab, in LPT order: the worker that goes idle first
    // always takes the largest task nobody has started.
    const std::vector<std::size_t> order = lptOrder(costs);
    obs::trace::Tracer* tracer = obs::trace::wallTracer();
    stats = dispatch(n, workerCount(n, threads), 1,
                     [&](unsigned worker, std::size_t position) {
                       const std::size_t task = order[position];
                       const std::int64_t startUs =
                           tracer != nullptr ? traceMicros() : 0;
                       fn(worker, task);
                       if (tracer != nullptr) {
                         traceSlice(tracer, worker, task, startUs);
                       }
                     });
  }
  stats.taskCosts.assign(costs.begin(), costs.end());
  return stats;
}

} // namespace v6t::analysis
