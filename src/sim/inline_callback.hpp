// Small-buffer-optimized move-only callable for the event hot path.
//
// std::function is the wrong tool for a 10^8-event run: it requires
// copy-constructible targets, its small-object budget (16 bytes in
// libstdc++) is blown by any capture beyond one pointer, and every miss is
// a malloc/free round-trip on the critical path. InlineCallback stores up
// to kInlineBytes of capture in place — sized for the platform's real
// closures, which carry a few pointers plus a packet handle — and falls
// back to the heap only beyond that. Fallbacks are counted (a relaxed
// atomic tick, off the common path) so regressions surface as a moving
// `sim.alloc.callback_heap_fallbacks` counter instead of a silent perf
// cliff.
//
// Move-only on purpose: event callbacks are scheduled once and dispatched
// once, and move-only targets (a pooled PacketRef, a unique_ptr) are
// exactly what the zero-allocation path wants to carry. The dispatcher of
// a type-erased callable never needs to copy it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace p2plab::sim {

class InlineCallback {
 public:
  /// Inline capture budget. 64 bytes holds the largest steady-state
  /// closure in the stack (the pipe-walk continuation: ref + host + pipe
  /// list + stage) and is one cache line together with the ops pointer.
  static constexpr std::size_t kInlineBytes = 64;

  InlineCallback() = default;
  InlineCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& other) noexcept { steal(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  InlineCallback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  /// Invoke the target (repeatedly invocable; PeriodicTask relies on it).
  void operator()() {
    P2PLAB_ASSERT_MSG(ops_ != nullptr, "invoking an empty InlineCallback");
    ops_->invoke(buf_);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True if the target lives on the heap (capture exceeded kInlineBytes
  /// or is not nothrow-move-constructible). The simulation kernel samples
  /// this per schedule into sim.alloc.callback_heap_fallbacks.
  bool on_heap() const { return ops_ != nullptr && ops_->heap; }

  /// Process-wide count of heap-fallback constructions, for benches and
  /// tests that have no registry at hand. Relaxed: diagnostic only.
  static std::uint64_t heap_fallbacks() {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the target from `src` storage into `dst` storage and
    /// destroy the source (storage relocation for slab/queue moves).
    /// nullptr: the target is trivially copyable (or a heap pointer), so a
    /// byte copy of the buffer relocates it without an indirect call.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr: trivially destructible, nothing to run.
    void (*destroy)(void*) noexcept;
    bool heap;
  };

  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static void relocate_inline(void* dst, void* src) noexcept {
    D* s = std::launder(reinterpret_cast<D*>(src));
    ::new (dst) D(std::move(*s));
    s->~D();
  }

  template <typename D>
  static void destroy_inline(void* p) noexcept {
    std::launder(reinterpret_cast<D*>(p))->~D();
  }

  template <typename D>
  static const Ops* inline_ops() {
    static constexpr Ops ops = {
        [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
        std::is_trivially_copyable_v<D> ? nullptr : &relocate_inline<D>,
        std::is_trivially_destructible_v<D> ? nullptr : &destroy_inline<D>,
        /*heap=*/false};
    return &ops;
  }

  template <typename D>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {
        [](void* p) { (**static_cast<D**>(p))(); },
        /*relocate=*/nullptr,  // the buffer holds a plain D*
        [](void* p) noexcept { delete *static_cast<D**>(p); },
        /*heap=*/true};
    return &ops;
  }

  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = heap_ops<D>();
      heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void steal(InlineCallback& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->relocate != nullptr) {
        other.ops_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  inline static std::atomic<std::uint64_t> heap_fallbacks_{0};

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace p2plab::sim
