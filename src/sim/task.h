#ifndef HERMES_SIM_TASK_H_
#define HERMES_SIM_TASK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace hermes::sim {

/// A move-only `void()` callable with inline storage: the simulator's unit
/// of scheduled work (events, staged effects, worker completions, message
/// deliveries).
///
/// A closure of at most kInlineBytes bytes with alignment at most 8 lives
/// inside the Task, so building, moving and firing it allocates nothing;
/// a larger closure is boxed on the heap. The engine's continuations —
/// `this` plus a few ids, a record snapshot, or a moved-in vector — fit
/// the buffer; InlineTask() turns that into a compile-time check at hot
/// call sites. Unlike std::function (16 inline bytes in libstdc++, copy
/// required) a Task takes move-only captures, and a closure that is
/// trivially copyable moves as one flat copy with no indirect call.
class Task {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  /// True when a closure of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::uint64_t) &&
      std::is_nothrow_move_constructible_v<F>;

  Task() noexcept = default;
  Task(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Task> &&
                                        std::is_invocable_r_v<void, D&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): closures convert
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* boxed = new D(std::forward<F>(f));
      std::memcpy(buf_, &boxed, sizeof(boxed));
      ops_ = &kBoxedOps<D>;
    }
  }

  Task(Task&& other) noexcept { Take(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Reset();
      Take(other);
    }
    return *this;
  }
  Task& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the closure was boxed on the heap (oversize or
  /// over-aligned); false for inline closures and empty Tasks.
  bool boxed() const noexcept { return ops_ != nullptr && ops_->boxed; }

  /// Runs the closure. Requires a non-empty Task.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the closure at `dst` from `src` and destroys the
    /// source; null when a flat byte copy does the same.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Destroys the closure; null when there is nothing to destroy.
    void (*destroy)(void* self) noexcept;
    bool boxed;
  };

  template <typename D>
  static constexpr bool kFlat = std::is_trivially_copyable_v<D> &&
                                std::is_trivially_destructible_v<D>;

  template <typename D>
  static void InvokeInline(void* self) {
    (*static_cast<D*>(self))();
  }
  template <typename D>
  static void RelocateInline(void* dst, void* src) noexcept {
    D* from = static_cast<D*>(src);
    ::new (dst) D(std::move(*from));
    from->~D();
  }
  template <typename D>
  static void DestroyInline(void* self) noexcept {
    static_cast<D*>(self)->~D();
  }
  template <typename D>
  static D* Unbox(void* self) {
    D* boxed;
    std::memcpy(&boxed, self, sizeof(boxed));
    return boxed;
  }
  template <typename D>
  static void InvokeBoxed(void* self) {
    (*Unbox<D>(self))();
  }
  template <typename D>
  static void DestroyBoxed(void* self) noexcept {
    delete Unbox<D>(self);
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      &InvokeInline<D>, kFlat<D> ? nullptr : &RelocateInline<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &DestroyInline<D>,
      false};
  template <typename D>
  static constexpr Ops kBoxedOps = {&InvokeBoxed<D>, nullptr,
                                    &DestroyBoxed<D>, true};

  void Take(Task& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    } else {
      ops_->relocate(buf_, other.buf_);
    }
    other.ops_ = nullptr;
  }
  void Reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(std::uint64_t) unsigned char buf_[kInlineBytes];
};

static_assert(sizeof(Task) == 64, "Task is one cache line");

/// Builds a Task from `f` and fails to compile if the closure would be
/// boxed. Hot paths use it, so a capture added later cannot quietly put a
/// heap allocation back on every event.
template <typename F>
Task InlineTask(F&& f) {
  static_assert(Task::kFitsInline<std::decay_t<F>>,
                "hot-path closure exceeds Task's inline buffer");
  return Task(std::forward<F>(f));
}

/// A free-list slab that parks a continuation's payload while an event is
/// pending, so the event itself captures only a slot index and stays
/// inline. Slots are recycled; a warmed-up slab allocates nothing.
template <typename T>
class SlotPool {
 public:
  uint32_t Park(T value) {
    if (!free_.empty()) {
      const uint32_t slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(value);
      return slot;
    }
    slots_.push_back(std::move(value));
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  T& operator[](uint32_t slot) { return slots_[slot]; }

  /// Moves the payload out and frees the slot.
  T Take(uint32_t slot) {
    T value = std::move(slots_[slot]);
    free_.push_back(slot);
    return value;
  }

  /// Payloads currently parked.
  std::size_t size() const { return slots_.size() - free_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace hermes::sim

#endif  // HERMES_SIM_TASK_H_
