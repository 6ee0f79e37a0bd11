// One-shot futures for the simulated world.
//
// A SimFuture<T> is fulfilled exactly once by its SimPromise<T>. Callbacks
// added via Then() run as zero-delay simulator events — never inline — so
// completion order is deterministic and re-entrancy is impossible. These
// futures are the "buffer futures" of the paper's data plane: executors
// enqueue kernels whose inputs are futures, and network sends are triggered
// by future completion.
//
// Ownership: a promise and every future copied from it share one
// heap-allocated FutureState, freed when the last of them (or the last
// pending continuation event of a non-Unit future) lets go. The count is a
// plain int, not an atomic one, and so is JoinOf()'s shared join: both are
// owned by handles that live inside one Simulator's events and objects.
//
// Thread confinement: a state is only ever touched by the thread that runs
// its Simulator. Sweep points run on pool threads, each with its own
// Simulator and everything built on it; no future, promise or join may be
// shared between two simulators.
//
// Where continuations live: the first continuation registered on a pending
// future is stored in place in the state, later ones in an overflow vector,
// so the common one-waiter future allocates nothing beyond its state. Each
// is an InlineFunction<void(const T&)>: a capture of up to
// InlineFunction::kInlineBytes (40 B) is stored in place, a larger one in a
// single heap object. Set() moves each continuation, in registration order
// (the in-place one, then the overflow vector's), into its own zero-delay
// event. For a Unit future that event is the 48-byte continuation alone,
// which fits the inline slot of the event's own InlineFunction
// (EventCallback), so firing a continuation allocates nothing.
#pragma once

#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace pw::sim {

// Empty payload for futures that only signal completion.
struct Unit {};

namespace internal {

// Owning handle to a simulator-local object that carries a plain
// `int refs` count, starting at 1 for the handle that adopts it. Copies
// bump the count; the last handle to go deletes the object.
template <typename T>
class LocalRef {
 public:
  LocalRef() = default;
  explicit LocalRef(T* adopted) : ptr_(adopted) {}
  LocalRef(const LocalRef& other) : ptr_(other.ptr_) {
    if (ptr_ != nullptr) ++ptr_->refs;
  }
  LocalRef(LocalRef&& other) noexcept
      : ptr_(std::exchange(other.ptr_, nullptr)) {}
  LocalRef& operator=(LocalRef other) noexcept {
    std::swap(ptr_, other.ptr_);
    return *this;
  }
  ~LocalRef() {
    if (ptr_ != nullptr && --ptr_->refs == 0) Destroy(ptr_);
  }

  T* get() const { return ptr_; }
  T* operator->() const { return ptr_; }
  T& operator*() const { return *ptr_; }

 private:
  // Kept out of line: with the delete inlined, GCC's -Wuse-after-free
  // flags the other handles' later decrements, not seeing that the count
  // kept their object alive.
  [[gnu::noinline]] static void Destroy(T* p) { delete p; }

  T* ptr_ = nullptr;
};

template <typename T>
struct FutureState {
  using Continuation = InlineFunction<void(const T&)>;

  explicit FutureState(Simulator* s) : sim(s) {}

  int refs = 1;
  Simulator* sim;
  std::optional<T> value;
  Continuation first;                  // the first pending continuation
  std::vector<Continuation> overflow;  // every later one, in order
};

template <typename T>
using StateRef = LocalRef<FutureState<T>>;

// Schedules `fn` as a zero-delay event that runs it on the state's value.
// A Unit payload carries no data, so the event holds the callable alone;
// any other payload keeps the state alive until the event has run.
static_assert(sizeof(InlineFunction<void(const Unit&)>) <=
                  EventCallback::kInlineBytes,
              "a Unit continuation's event must fit the inline event slot");

template <typename T, typename Fn>
void ScheduleContinuation(const StateRef<T>& st, Fn&& fn) {
  if constexpr (std::is_same_v<T, Unit>) {
    st->sim->Schedule(Duration::Zero(),
                      [fn = std::forward<Fn>(fn)]() mutable { fn(Unit{}); });
  } else {
    st->sim->Schedule(Duration::Zero(),
                      [st, fn = std::forward<Fn>(fn)]() mutable {
                        fn(*st->value);
                      });
  }
}

}  // namespace internal

template <typename T>
class SimFuture {
 public:
  SimFuture() = default;

  bool valid() const { return state_.get() != nullptr; }
  bool ready() const { return valid() && state_->value.has_value(); }

  const T& value() const {
    PW_CHECK(ready()) << "SimFuture::value() on unready future";
    return *state_->value;
  }

  // Registers a continuation; runs as a zero-delay event once the value is
  // set (immediately scheduled if already set).
  template <typename Fn>
  void Then(Fn&& fn) const {
    static_assert(std::is_invocable_v<std::decay_t<Fn>&, const T&>,
                  "continuation must be callable as fn(const T&)");
    PW_CHECK(valid());
    internal::FutureState<T>& st = *state_;
    if (st.value.has_value()) {
      internal::ScheduleContinuation(state_, std::forward<Fn>(fn));
    } else if (st.first) {
      st.overflow.emplace_back(std::forward<Fn>(fn));
    } else {
      st.first.Emplace(std::forward<Fn>(fn));
    }
  }

 private:
  template <typename U>
  friend class SimPromise;

  explicit SimFuture(internal::StateRef<T> state) : state_(std::move(state)) {}

  internal::StateRef<T> state_;
};

template <typename T>
class SimPromise {
 public:
  explicit SimPromise(Simulator* sim)
      : state_(new internal::FutureState<T>(sim)) {}

  SimFuture<T> future() const { return SimFuture<T>(state_); }

  bool fulfilled() const { return state_->value.has_value(); }

  void Set(T value) {
    internal::FutureState<T>& st = *state_;
    PW_CHECK(!st.value.has_value()) << "SimPromise::Set called twice";
    st.value = std::move(value);
    if (!st.first) return;  // overflow is only used once first is taken
    internal::ScheduleContinuation(state_, std::move(st.first));
    for (auto& cb : st.overflow) {
      internal::ScheduleContinuation(state_, std::move(cb));
    }
    st.overflow.clear();
  }

 private:
  internal::StateRef<T> state_;
};

// Returns a future already holding `value`.
template <typename T>
SimFuture<T> ReadyFuture(Simulator* sim, T value) {
  SimPromise<T> p(sim);
  p.Set(std::move(value));
  return p.future();
}

// Completes when all of `futures` complete (with Unit payload).
// An empty set completes immediately.
SimFuture<Unit> WhenAll(Simulator* sim, const std::vector<SimFuture<Unit>>& futures);

namespace internal {

template <typename Fn>
struct Join {
  int refs;
  Simulator* sim;
  int remaining;
  Fn fn;
};

}  // namespace internal

// Returns the arrival continuation of a join of `n` (> 0) completions: call
// it (or register it with Then()) once per completion, and the n-th call
// schedules `fn` as its own zero-delay event. Event-for-event the same as
// WhenAll(sim, inputs).Then(fn) over n unready inputs, but the join is one
// counted allocation instead of a vector, a latch, its future state and
// callback vector; each copy of the continuation is one pointer.
template <typename Fn>
auto JoinOf(Simulator* sim, int n, Fn fn) {
  PW_CHECK_GT(n, 0);
  internal::LocalRef<internal::Join<Fn>> join(
      new internal::Join<Fn>{1, sim, n, std::move(fn)});
  return [join](const Unit&) {
    if (--join->remaining == 0) {
      join->sim->Schedule(Duration::Zero(), [join] { join->fn(); });
    }
  };
}

// Runs `fn` once both `a` and `b` have completed; the same events as
// WhenAll(sim, {a, b}).Then(fn).
template <typename Fn>
void WhenBoth(Simulator* sim, const SimFuture<Unit>& a,
              const SimFuture<Unit>& b, Fn fn) {
  auto arrive = JoinOf(sim, 2, std::move(fn));
  a.Then(arrive);
  b.Then(std::move(arrive));
}

// Counts down to zero; exposes a Unit future that fires at zero.
// Useful for joining N independent completions without materializing their
// futures (e.g. all shards of a gang finishing).
class CountdownLatch {
 public:
  CountdownLatch(Simulator* sim, int count)
      : remaining_(count), promise_(sim) {
    PW_CHECK_GE(count, 0);
    if (count == 0) promise_.Set(Unit{});
  }

  void CountDown() {
    if (forced_) return;  // latch was force-completed; late arrivals are moot
    PW_CHECK_GT(remaining_, 0);
    if (--remaining_ == 0) promise_.Set(Unit{});
  }

  // Fires the future now regardless of the remaining count and turns every
  // subsequent CountDown() into a no-op. Fault handling uses this to unwind
  // dataflow that will never complete normally (e.g. a gang whose device
  // crashed); completions already in flight then land harmlessly.
  void ForceComplete() {
    if (forced_) return;
    forced_ = true;
    if (remaining_ > 0) {
      remaining_ = 0;
      promise_.Set(Unit{});
    }
  }

  int remaining() const { return remaining_; }
  bool forced() const { return forced_; }
  SimFuture<Unit> done() const { return promise_.future(); }

 private:
  int remaining_;
  bool forced_ = false;
  SimPromise<Unit> promise_;
};

}  // namespace pw::sim
