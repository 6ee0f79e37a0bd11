// Move-only callable with inline storage: the one type-erased callable of
// the simulated dataflow — every simulator event, future Then() callback,
// HBM admission hook, link and DCN delivery callback and CPU work item.
//
// A callable of up to N bytes (default 40) is constructed in place, so
// storing, moving and invoking it performs no heap allocation; a larger one
// falls back to a single owned heap object. Unlike std::function it never
// copies its target, so move-only captures (unique_ptr, promises held by
// value) work. sizeof(InlineFunction<Sig>) == 48, exactly the inline slot of
// a simulator event (sim::EventCallback), so an event wrapping one
// continuation also stays allocation-free.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace pw::sim {

template <typename Sig, std::size_t N = 40>
class InlineFunction;

template <typename R, typename... Args, std::size_t N>
class InlineFunction<R(Args...), N> {
  template <typename Fn, typename F = std::decay_t<Fn>>
  using EnableIfTarget =
      std::enable_if_t<!std::is_same_v<F, InlineFunction> &&
                       !std::is_same_v<F, std::nullptr_t> &&
                       std::is_invocable_r_v<R, F&, Args...>>;

 public:
  static constexpr std::size_t kInlineBytes = N;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT: mirrors std::function

  template <typename Fn, typename = EnableIfTarget<Fn>>
  InlineFunction(Fn&& fn) {  // NOLINT: implicit, like std::function
    Emplace(std::forward<Fn>(fn));
  }

  InlineFunction(InlineFunction&& other) noexcept { TakeFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  // Replaces the target with `fn`, constructed directly in this object's
  // storage (no temporary InlineFunction, no relocation).
  template <typename Fn, typename = EnableIfTarget<Fn>>
  void Emplace(Fn&& fn) {
    using F = std::decay_t<Fn>;
    Reset();
    if constexpr (kStoredInline<F>) {
      ::new (static_cast<void*>(storage_)) F(std::forward<Fn>(fn));
    } else {
      ::new (static_cast<void*>(storage_)) F*(new F(std::forward<Fn>(fn)));
    }
    ops_ = &kOps<F>;
  }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    PW_CHECK(ops_ != nullptr) << "InlineFunction: call of an empty function";
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  // One-shot call: runs the target and destroys it in a single indirect
  // call, leaving *this empty. The target counts as gone from the moment
  // of the call, so it may not re-enter *this. Precondition: non-empty.
  R InvokeAndReset(Args... args) {
    const Ops* ops = ops_;
    ops_ = nullptr;
    return ops->invoke_and_destroy(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    R (*invoke_and_destroy)(void*, Args&&...);
    // Move-constructs the target at `dst` from `src` and ends `src`'s.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  static F& Target(void* p) {
    if constexpr (kStoredInline<F>) {
      return *std::launder(reinterpret_cast<F*>(p));
    } else {
      return **std::launder(reinterpret_cast<F**>(p));
    }
  }

  template <typename F>
  static void Destroy(void* p) {
    if constexpr (kStoredInline<F>) {
      std::launder(reinterpret_cast<F*>(p))->~F();
    } else {
      delete *std::launder(reinterpret_cast<F**>(p));
    }
  }

  template <typename F>
  static constexpr Ops kOps = {
      [](void* p, Args&&... args) -> R {
        return static_cast<R>(Target<F>(p)(std::forward<Args>(args)...));
      },
      [](void* p, Args&&... args) -> R {
        if constexpr (std::is_void_v<R>) {
          Target<F>(p)(std::forward<Args>(args)...);
          Destroy<F>(p);
        } else {
          R result = Target<F>(p)(std::forward<Args>(args)...);
          Destroy<F>(p);
          return result;
        }
      },
      [](void* dst, void* src) {
        if constexpr (kStoredInline<F>) {
          F* from = std::launder(reinterpret_cast<F*>(src));
          ::new (dst) F(std::move(*from));
          from->~F();
        } else {
          ::new (dst) F*(*std::launder(reinterpret_cast<F**>(src)));
        }
      },
      &Destroy<F>};

  void TakeFrom(InlineFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  void Reset() {
    if (ops_ == nullptr) return;
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->destroy(storage_);
  }

  alignas(void*) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace pw::sim
