// v6t::sim — small-buffer move-only callable for engine actions.
//
// std::function's inline buffer (two pointers on libstdc++) is smaller
// than the typical engine lambda — `[this, feed]`, `[this, sub, update,
// ts]`, `[this, cycleIndex]` — so the old `Engine::Action` paid one heap
// allocation per scheduled event, millions per run. SmallFunc stores the
// capture state inline, always: a callable that does not fit kInlineBytes
// (or whose move may throw) is a compile error, not a slower path
// (DESIGN.md §11). Nothing here allocates, and nothing is shared between
// the engines of different shard threads.
//
// Move-only by design: the event queue never copies actions, and dropping
// the copy requirement is what lets move-only captures (unique_ptr, etc.)
// ride along for free.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace v6t::sim {

class SmallFunc {
public:
  /// Inline capture capacity: `this` plus a handful of values. Every
  /// lambda the simulation schedules fits; the constructor enforces it.
  static constexpr std::size_t kInlineBytes = 48;

  SmallFunc() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, SmallFunc> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  SmallFunc(F&& f) { // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>,
                  "engine actions must fit SmallFunc's inline buffer with a "
                  "noexcept move (DESIGN.md §11): capture an index or a "
                  "pointer instead of a large value");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &opsFor<Fn>;
  }

  SmallFunc(SmallFunc&& other) noexcept { moveFrom(other); }
  SmallFunc& operator=(SmallFunc&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  SmallFunc(const SmallFunc&) = delete;
  SmallFunc& operator=(const SmallFunc&) = delete;

  ~SmallFunc() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops opsFor{
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](void* from, void* to) noexcept {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  void moveFrom(SmallFunc& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

} // namespace v6t::sim
