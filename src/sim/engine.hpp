// v6t::sim — discrete-event simulation engine.
//
// A minimal, deterministic event loop: events are (time, sequence, action)
// triples ordered by time with FIFO tie-breaking, so two events scheduled
// for the same instant always fire in scheduling order regardless of heap
// internals. Actions may schedule further events. Memory is proportional to
// the number of *pending* events, not to the total executed — a full
// 44-week experiment executes millions of events.
//
// Hot-path layout (DESIGN.md §11): the priority queue is a 4-ary implicit
// heap of trivially copyable 24-byte keys — (when, seq, slot) — so a sift
// step is a plain copy, never a call through an action's relocate hook.
// The action itself (a SmallFunc: inline captures only, no allocation)
// lives in a slot table; a slot is owned by its key until the key leaves
// the heap, and freed slots are reused. An action whose successor would be
// the very next event popped runs it in place instead (continueInline): no
// key, no slot, same order.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/small_func.hpp"
#include "sim/time.hpp"

namespace v6t::sim {

class Engine {
public:
  using Action = SmallFunc;

  /// Current simulated time. Starts at kEpoch; monotonically non-decreasing.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `action` at absolute time `when`. Scheduling in the past is a
  /// logic error and is clamped to `now()` (the event fires immediately on
  /// the next step) — the capture path must never time-travel.
  void schedule(SimTime when, Action action);

  /// Schedule `action` after a relative delay.
  void scheduleAfter(Duration delay, Action action) {
    schedule(now_ + delay, std::move(action));
  }

  /// An action's last act in place of scheduling its successor at `when`
  /// (clamped to now() as in schedule()). Returns true when that successor
  /// is the very next event run() would pop: its key (when, next seq)
  /// sorts before every pending key, and `when` is within the horizon of
  /// the run() or runAll() in progress, so an inline step never crosses an
  /// epoch barrier. It then takes the seq, advances now() and counts the
  /// event, exactly as a push and a pop would, and the caller runs the
  /// successor itself. Otherwise, and always outside run(), nothing
  /// changes and the caller schedules the successor.
  bool continueInline(SimTime when);

  /// Run events until the queue is empty or simulated time would exceed
  /// `until` (events at exactly `until` still run). Advances now() to
  /// `until` even if the queue drains early. Returns events executed, the
  /// change in executedEvents() (inline continuations included).
  std::uint64_t run(SimTime until);

  /// Run everything to quiescence. Returns events executed, as run().
  std::uint64_t runAll();

  /// Epoch-wise execution: advance from now() to `until` in fixed slices of
  /// `epoch`, invoking `beforeEpoch(index, epochEnd)` before the events of
  /// each slice run. Epoch k covers (now + k*epoch, now + (k+1)*epoch]; the
  /// last slice is clipped to `until`. This is the synchronization hook of
  /// the sharded experiment runner: the callback is where a worker waits on
  /// the cross-shard barrier and injects the control-plane actions falling
  /// inside the upcoming slice. Equivalent to run(until) when the callback
  /// schedules nothing. Returns events executed.
  std::uint64_t runEpochs(SimTime until, Duration epoch,
                          const std::function<void(int, SimTime)>& beforeEpoch);

  [[nodiscard]] std::size_t pendingEvents() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executedEvents() const { return executed_; }
  /// The part of executedEvents() that ran through continueInline().
  [[nodiscard]] std::uint64_t inlineEvents() const { return inlineEvents_; }
  /// Largest pending-queue size ever reached — the engine's memory
  /// high-water mark, reported through the obs registry. It counts heap
  /// keys, and each BGP feed delivery in flight holds one.
  [[nodiscard]] std::size_t queueDepthHighWater() const {
    return queueHighWater_;
  }

private:
  /// Heap key: ordering fields plus the slot holding the action.
  struct Key {
    SimTime when;
    std::uint64_t seq; // monotonic scheduling order; FIFO tie-break
    std::uint32_t slot;
  };

  // Min-heap ordering on (when, seq).
  static bool later(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  /// Clamp a time in the past to now() (logged, rate-limited).
  SimTime notBeforeNow(SimTime when) const;
  /// Dispatch keys up to `until` with continueInline() bounded by it;
  /// returns events executed.
  std::uint64_t drain(SimTime until);
  /// Pop the root key, advance now() to it and run its action.
  void dispatchTop();

  void push(Key k);
  /// Remove the root key (heap must be non-empty).
  void dropTop();
  void siftUp(std::size_t i);
  void siftDown(std::size_t i);

  SimTime now_ = kEpoch;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t inlineEvents_ = 0;
  /// The running drain's horizon; kNotRunning outside run() and runAll().
  static constexpr SimTime kNotRunning{
      std::numeric_limits<std::int64_t>::min()};
  SimTime horizon_ = kNotRunning;
  std::size_t queueHighWater_ = 0;
  std::vector<Key> heap_; // 4-ary implicit heap
  std::vector<Action> slots_; // a key's action; empty once popped
  std::vector<std::uint32_t> freeSlots_;
};

} // namespace v6t::sim
