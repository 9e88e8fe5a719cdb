#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/log.hpp"

namespace v6t::sim {

namespace {
constexpr std::size_t kArity = 4;
} // namespace

void Engine::siftUp(std::size_t i) {
  const Key k = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!later(heap_[parent], k)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void Engine::siftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  const Key k = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (later(heap_[best], heap_[c])) best = c;
    }
    if (!later(k, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

void Engine::push(Key k) {
  heap_.push_back(k);
  siftUp(heap_.size() - 1);
  if (heap_.size() > queueHighWater_) queueHighWater_ = heap_.size();
}

void Engine::dropTop() {
  if (heap_.size() > 1) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    siftDown(0);
  } else {
    heap_.pop_back();
  }
}

SimTime Engine::notBeforeNow(SimTime when) const {
  if (when >= now_) return when;
  // Clamped-to-now is tolerated but suspicious; surface it without
  // flooding (schedule() is the hottest call in the system).
  if (obs::Logger::global().enabled(obs::Level::Debug)) {
    static obs::EveryN rateLimit{4096};
    if (rateLimit.allow()) {
      obs::logDebug("sim", "schedule in the past clamped to now",
                    {{"behind_ms", (now_ - when).millis()},
                     {"occurrences", rateLimit.seen()}});
    }
  }
  return now_;
}

void Engine::schedule(SimTime when, Action action) {
  when = notBeforeNow(when);
  std::uint32_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[slot] = std::move(action);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(action));
  }
  push(Key{when, nextSeq_++, slot});
}

bool Engine::continueInline(SimTime when) {
  when = notBeforeNow(when);
  if (when > horizon_) return false;
  // The key a schedule() would push must sort before the root.
  if (!heap_.empty() && !later(heap_.front(), Key{when, nextSeq_, 0})) {
    return false;
  }
  ++nextSeq_;
  now_ = when;
  ++executed_;
  ++inlineEvents_;
  return true;
}

void Engine::dispatchTop() {
  const Key top = heap_.front();
  now_ = top.when;
  // Move the action out before it runs: it may schedule, and a new slot
  // can grow (reallocate) the table under it.
  Action action = std::move(slots_[top.slot]);
  freeSlots_.push_back(top.slot);
  dropTop();
  action();
  ++executed_;
}

std::uint64_t Engine::drain(SimTime until) {
  const std::uint64_t before = executed_;
  const SimTime outer = std::exchange(horizon_, until);
  // Peek-before-pop: a key past the horizon is simply left at the root —
  // no pop, no re-push through the heap.
  while (!heap_.empty() && heap_.front().when <= until) dispatchTop();
  horizon_ = outer;
  return executed_ - before;
}

std::uint64_t Engine::run(SimTime until) {
  const std::uint64_t n = drain(until);
  if (now_ < until) now_ = until;
  return n;
}

std::uint64_t Engine::runEpochs(
    SimTime until, Duration epoch,
    const std::function<void(int, SimTime)>& beforeEpoch) {
  std::uint64_t n = 0;
  int index = 0;
  while (now_ < until) {
    const SimTime sliceEnd = std::min(now_ + epoch, until);
    beforeEpoch(index, sliceEnd);
    n += run(sliceEnd);
    ++index;
  }
  return n;
}

std::uint64_t Engine::runAll() {
  return drain(SimTime{std::numeric_limits<std::int64_t>::max()});
}

} // namespace v6t::sim
