// One-shot futures for the simulated world.
//
// A SimFuture<T> is fulfilled exactly once by its SimPromise<T>. Callbacks
// added via Then() run as zero-delay simulator events — never inline — so
// completion order is deterministic and re-entrancy is impossible. These
// futures are the "buffer futures" of the paper's data plane: executors
// enqueue kernels whose inputs are futures, and network sends are triggered
// by future completion.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sim/simulator.h"

namespace pw::sim {

// Empty payload for futures that only signal completion.
struct Unit {};

namespace internal {

template <typename T>
struct FutureState {
  explicit FutureState(Simulator* s) : sim(s) {}

  Simulator* sim;
  std::optional<T> value;
  std::vector<std::function<void(const T&)>> callbacks;
};

}  // namespace internal

template <typename T>
class SimFuture {
 public:
  SimFuture() = default;

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->value.has_value(); }

  const T& value() const {
    PW_CHECK(ready()) << "SimFuture::value() on unready future";
    return *state_->value;
  }

  // Registers a continuation; runs as a zero-delay event once the value is
  // set (immediately scheduled if already set).
  void Then(std::function<void(const T&)> fn) const {
    PW_CHECK(valid());
    if (state_->value.has_value()) {
      auto st = state_;
      state_->sim->Schedule(Duration::Zero(),
                            [st, fn = std::move(fn)] { fn(*st->value); });
    } else {
      state_->callbacks.push_back(std::move(fn));
    }
  }

 private:
  template <typename U>
  friend class SimPromise;

  explicit SimFuture(std::shared_ptr<internal::FutureState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::FutureState<T>> state_;
};

template <typename T>
class SimPromise {
 public:
  explicit SimPromise(Simulator* sim)
      : state_(std::make_shared<internal::FutureState<T>>(sim)) {}

  SimFuture<T> future() const { return SimFuture<T>(state_); }

  bool fulfilled() const { return state_->value.has_value(); }

  void Set(T value) {
    PW_CHECK(!state_->value.has_value()) << "SimPromise::Set called twice";
    state_->value = std::move(value);
    auto st = state_;
    for (auto& cb : st->callbacks) {
      st->sim->Schedule(Duration::Zero(),
                        [st, cb = std::move(cb)] { cb(*st->value); });
    }
    st->callbacks.clear();
  }

 private:
  std::shared_ptr<internal::FutureState<T>> state_;
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

// Runs `fn` once both `a` and `b` have completed. Event-for-event the same as
// WhenAll(sim, {a, b}).Then(fn) — one zero-delay event per input as it
// completes, then one zero-delay event running `fn` — but the join is one
// shared allocation instead of a vector, a latch, its future state and
// callback vector.
template <typename Fn>
void WhenBoth(Simulator* sim, const SimFuture<Unit>& a,
              const SimFuture<Unit>& b, Fn fn) {
  struct Join {
    int remaining;
    Fn fn;
  };
  auto join = std::make_shared<Join>(Join{2, std::move(fn)});
  auto arrive = [sim, join](const Unit&) {
    if (--join->remaining == 0) {
      sim->Schedule(Duration::Zero(), [join] { join->fn(); });
    }
  };
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
