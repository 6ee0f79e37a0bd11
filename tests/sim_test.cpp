#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/future.h"
#include "sim/serial_resource.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace pw::sim {
namespace {

// ------------------------------------------------------------ Simulator --

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Duration::Micros(30), [&] { order.push_back(3); });
  sim.Schedule(Duration::Micros(10), [&] { order.push_back(1); });
  sim.Schedule(Duration::Micros(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint() + Duration::Micros(30));
}

TEST(SimulatorTest, EqualTimestampsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Duration::Micros(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, NestedSchedulingFromCallbacks) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Micros(1), [&] {
    sim.Schedule(Duration::Micros(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ToMicros(), 2.0);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(Duration::Micros(10), [&] { ++ran; });
  sim.Schedule(Duration::Micros(30), [&] { ++ran; });
  sim.RunUntil(TimePoint() + Duration::Micros(20));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now().ToMicros(), 20.0);
  sim.Run();
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.Schedule(Duration::Micros(5), [] {});
  sim.RunFor(Duration::Micros(3));
  EXPECT_EQ(sim.now().ToMicros(), 3.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Duration::Micros(i + 1), [&] { ++count; });
  }
  const bool hit = sim.RunUntilPredicate([&] { return count == 4; });
  EXPECT_TRUE(hit);
  EXPECT_EQ(count, 4);
}

TEST(SimulatorTest, RunUntilPredicateFalseWhenQueueDrains) {
  Simulator sim;
  sim.Schedule(Duration::Micros(1), [] {});
  EXPECT_FALSE(sim.RunUntilPredicate([] { return false; }));
}

TEST(SimulatorTest, BlockedProbesReportDeadlock) {
  Simulator sim;
  bool blocked = true;
  sim.RegisterBlockedProbe([&]() -> std::string {
    return blocked ? "devA waiting at collective" : "";
  });
  sim.Run();
  EXPECT_TRUE(sim.Deadlocked());
  ASSERT_EQ(sim.BlockedEntities().size(), 1u);
  blocked = false;
  EXPECT_FALSE(sim.Deadlocked());
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.Schedule(Duration::Nanos(100 * (i % 7)), [&order, i] { order.push_back(i); });
    }
    sim.Run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// -------------------------------------------------------------- Futures --

TEST(FutureTest, ThenRunsAfterSet) {
  Simulator sim;
  SimPromise<int> p(&sim);
  int got = 0;
  p.future().Then([&](const int& v) { got = v; });
  p.Set(42);
  EXPECT_EQ(got, 0);  // callbacks are events, not inline calls
  sim.Run();
  EXPECT_EQ(got, 42);
}

TEST(FutureTest, ThenOnAlreadyReadyFuture) {
  Simulator sim;
  auto fut = ReadyFuture(&sim, std::string("hello"));
  std::string got;
  fut.Then([&](const std::string& v) { got = v; });
  sim.Run();
  EXPECT_EQ(got, "hello");
}

TEST(FutureTest, MultipleCallbacksAllFire) {
  Simulator sim;
  SimPromise<int> p(&sim);
  int sum = 0;
  for (int i = 0; i < 5; ++i) p.future().Then([&](const int& v) { sum += v; });
  p.Set(10);
  sim.Run();
  EXPECT_EQ(sum, 50);
}

TEST(FutureTest, ReadyAndValueObservable) {
  Simulator sim;
  SimPromise<int> p(&sim);
  auto f = p.future();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.ready());
  p.Set(5);
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.value(), 5);
}

TEST(FutureTest, WhenAllEmptyCompletesImmediately) {
  Simulator sim;
  auto all = WhenAll(&sim, {});
  sim.Run();
  EXPECT_TRUE(all.ready());
}

TEST(FutureTest, WhenAllWaitsForEveryInput) {
  Simulator sim;
  SimPromise<Unit> a(&sim), b(&sim), c(&sim);
  auto all = WhenAll(&sim, {a.future(), b.future(), c.future()});
  a.Set(Unit{});
  b.Set(Unit{});
  sim.Run();
  EXPECT_FALSE(all.ready());
  c.Set(Unit{});
  sim.Run();
  EXPECT_TRUE(all.ready());
}

// Runs one two-input join and returns the order in which every callback and
// event fired, tagged with its time, plus the executed-event count. Input a
// is a 2-count latch's future (so ForceComplete is covered), b a promise's.
// Steps in `before` run before the join is registered; each step in `after`
// runs in its own event, 1 us apart, between unrelated zero-delay events.
// Steps: 'a' counts a down to zero, 'h' counts it down once, 'f'
// force-completes it, 'b' sets b.
std::vector<std::string> JoinFiringOrder(bool when_both,
                                         const std::string& before,
                                         const std::string& after) {
  Simulator sim;
  std::vector<std::string> log;
  CountdownLatch a(&sim, 2);
  SimPromise<Unit> b(&sim);
  auto note = [&](const std::string& tag) {
    log.push_back(tag + "@" + std::to_string(sim.now().ToMicros()));
  };
  auto unrelated = [&](const std::string& tag) {
    sim.Schedule(Duration::Zero(), [&note, tag] { note(tag); });
  };
  auto step = [&](char c) {
    if (c == 'a') {
      a.CountDown();
      a.CountDown();
    } else if (c == 'h') {
      a.CountDown();
    } else if (c == 'f') {
      a.ForceComplete();
    } else {
      b.Set(Unit{});
    }
  };
  a.done().Then([&](const Unit&) { note("a-earlier"); });
  for (const char c : before) step(c);
  unrelated("u-before");
  if (when_both) {
    WhenBoth(&sim, a.done(), b.future(), [&] { note("join"); });
  } else {
    WhenAll(&sim, {a.done(), b.future()}).Then([&](const Unit&) {
      note("join");
    });
  }
  b.future().Then([&](const Unit&) { note("b-later"); });
  unrelated("u-after");
  for (std::size_t i = 0; i < after.size(); ++i) {
    const char c = after[i];
    const std::string tag(1, c);
    sim.Schedule(Duration::Micros(static_cast<std::int64_t>(i) + 1),
                 [&, c, tag] {
                   unrelated("u-pre-" + tag);
                   note("step-" + tag);
                   step(c);
                   unrelated("u-post-" + tag);
                 });
  }
  sim.Run();
  log.push_back("events=" + std::to_string(sim.events_executed()));
  return log;
}

TEST(FutureTest, WhenBothFiresInWhenAllOrder) {
  const struct {
    const char* before;
    const char* after;
  } kCases[] = {
      {"", "ab"},    // a set first
      {"", "ba"},    // b set first
      {"ab", ""},    // both already ready
      {"a", "b"},    // a already ready
      {"b", "a"},    // b already ready
      {"", "hfb"},   // a force-completed with one count left, then b
      {"b", "hf"},   // b ready, a force-completed later
      {"f", "b"},    // a force-completed before the join
      {"", "bfa"},   // counting down a force-completed latch is a no-op
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(testing::Message()
                 << "before '" << c.before << "' after '" << c.after << "'");
    const auto both = JoinFiringOrder(true, c.before, c.after);
    EXPECT_EQ(both, JoinFiringOrder(false, c.before, c.after));
    EXPECT_EQ(std::count_if(both.begin(), both.end(),
                            [](const std::string& s) {
                              return s.rfind("join@", 0) == 0;
                            }),
              1);
  }
}

// ------------------------------------------------------------- SimFuture --

TEST(SimFuture, ContinuationsFireInRegistrationOrder) {
  // The order std::function continuations produced: Set() schedules the
  // pending continuations, in registration order, at the point of the
  // Set(); a continuation added to a ready future is scheduled at the point
  // of its Then(). Both payload paths are covered (Unit and int).
  Simulator sim;
  std::vector<std::string> log;
  auto note = [&log](std::string tag) {
    return [&log, tag = std::move(tag)] { log.push_back(tag); };
  };
  SimPromise<Unit> u(&sim);
  SimPromise<int> n(&sim);
  u.future().Then([&](const Unit&) { log.push_back("u1"); });
  sim.Schedule(Duration::Zero(), note("e1"));
  n.future().Then(
      [&](const int& v) { log.push_back("n1=" + std::to_string(v)); });
  u.future().Then([&](const Unit&) { log.push_back("u2"); });
  sim.Schedule(Duration::Zero(), [&] {
    log.push_back("e2");
    n.Set(7);
    sim.Schedule(Duration::Zero(), note("e3"));
    n.future().Then(
        [&](const int& v) { log.push_back("n2=" + std::to_string(v)); });
  });
  u.Set(Unit{});
  sim.Schedule(Duration::Zero(), note("e4"));
  u.future().Then([&](const Unit&) { log.push_back("u3"); });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"e1", "e2", "u1", "u2", "e4", "u3",
                                           "n1=7", "e3", "n2=7"}));
  EXPECT_EQ(sim.events_executed(), 9);
}

// Counts the moves and the destruction of one live instance; moved-from
// copies count nothing.
struct CaptureProbe {
  struct Counts {
    int moves = 0;
    int destroyed = 0;
  };
  explicit CaptureProbe(Counts* c) : counts(c) {}
  CaptureProbe(CaptureProbe&& other) noexcept
      : counts(std::exchange(other.counts, nullptr)) {
    if (counts != nullptr) ++counts->moves;
  }
  CaptureProbe(const CaptureProbe&) = delete;
  CaptureProbe& operator=(const CaptureProbe&) = delete;
  CaptureProbe& operator=(CaptureProbe&&) = delete;
  ~CaptureProbe() {
    if (counts != nullptr) ++counts->destroyed;
  }
  Counts* counts;
};

TEST(SimFuture, MoveOnlyAndOversizedCaptures) {
  using Continuation = InlineFunction<void(const Unit&)>;
  Simulator sim;
  SimPromise<Unit> p(&sim);
  int calls = 0;
  int seen = 0;
  p.future().Then([token = std::make_unique<int>(42), &calls,
                   &seen](const Unit&) {
    ++calls;
    seen = *token;
  });

  // Same continuation shape, inline-sized and oversized.
  CaptureProbe::Counts small_counts;
  CaptureProbe::Counts big_counts;
  std::array<unsigned char, 256> pad{};
  pad.back() = 3;
  auto small = [probe = CaptureProbe(&small_counts), &calls](const Unit&) {
    ++calls;
  };
  auto big = [probe = CaptureProbe(&big_counts), pad, &calls](const Unit&) {
    calls += pad.back();
  };
  static_assert(sizeof(small) <= Continuation::kInlineBytes);
  static_assert(sizeof(big) > Continuation::kInlineBytes);
  p.future().Then(std::move(small));
  p.future().Then(std::move(big));
  const int small_moves = small_counts.moves;
  const int big_moves = big_counts.moves;
  // Regrow the callback vector, then hand every continuation to an event.
  for (int i = 0; i < 8; ++i) p.future().Then([](const Unit&) {});
  p.Set(Unit{});
  sim.Run();

  EXPECT_EQ(calls, 1 + 1 + 3);
  EXPECT_EQ(seen, 42);
  // Inline storage relocates the capture itself; the heap fallback moves
  // only its pointer, so the 256-byte capture is never moved again.
  EXPECT_GT(small_counts.moves, small_moves);
  EXPECT_EQ(big_counts.moves, big_moves);
  EXPECT_EQ(small_counts.destroyed, 1);
  EXPECT_EQ(big_counts.destroyed, 1);

  // The one-shot call runs the target and destroys it, inline-stored or
  // heap-stored, leaving the function empty: nothing is left to destroy.
  CaptureProbe::Counts once_small;
  CaptureProbe::Counts once_big;
  {
    Continuation small_once = [probe = CaptureProbe(&once_small),
                               &calls](const Unit&) { ++calls; };
    Continuation big_once = [probe = CaptureProbe(&once_big), pad,
                             &calls](const Unit&) { calls += pad.back(); };
    small_once.InvokeAndReset(Unit{});
    big_once.InvokeAndReset(Unit{});
    EXPECT_EQ(calls, 5 + 1 + 3);
    EXPECT_EQ(once_small.destroyed, 1);
    EXPECT_EQ(once_big.destroyed, 1);
    EXPECT_FALSE(small_once);
    EXPECT_FALSE(big_once);
  }
  EXPECT_EQ(once_small.destroyed, 1);
  EXPECT_EQ(once_big.destroyed, 1);
}

TEST(SimFuture, UnfulfilledPromiseReleasesContinuations) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  {
    SimPromise<Unit> p(&sim);
    SimFuture<Unit> f = p.future();
    std::array<unsigned char, 128> pad{};
    f.Then([token](const Unit&) {});
    f.Then([token, pad](const Unit&) { (void)pad; });  // heap fallback
    SimPromise<int> q(&sim);
    q.future().Then([token](const int&) {});
    EXPECT_EQ(token.use_count(), 4);
  }
  // The last handles died with nothing fired: every capture is gone.
  EXPECT_EQ(token.use_count(), 1);
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 0);
}

TEST(SimFuture, OrderAcrossInPlaceAndOverflowContinuations) {
  // A pending future keeps its first continuation in place and the rest in
  // an overflow vector; either way they fire in registration order. With
  // `before_set` every continuation is pending when Set() schedules them
  // (plus one late Then() behind them); otherwise each Then() on the ready
  // future schedules its continuation at once, between the marker events.
  for (const int n : {1, 2, 5}) {
    for (const bool before_set : {true, false}) {
      SCOPED_TRACE(testing::Message() << n << " continuations, "
                                      << (before_set ? "before" : "after")
                                      << " Set");
      Simulator sim;
      std::vector<std::string> log;
      SimPromise<Unit> u(&sim);
      SimPromise<int> v(&sim);
      if (!before_set) {
        u.Set(Unit{});
        v.Set(7);
      }
      for (int i = 0; i < n; ++i) {
        const std::string tag = std::to_string(i);
        u.future().Then([&log, tag](const Unit&) { log.push_back("u" + tag); });
        sim.Schedule(Duration::Zero(), [&log, tag] { log.push_back("e" + tag); });
        v.future().Then([&log, tag](const int& x) {
          log.push_back("v" + tag + "=" + std::to_string(x));
        });
      }
      std::vector<std::string> e, us, vs, expected;
      for (int i = 0; i < n; ++i) {
        const std::string tag = std::to_string(i);
        e.push_back("e" + tag);
        us.push_back("u" + tag);
        vs.push_back("v" + tag + "=7");
      }
      if (before_set) {
        u.Set(Unit{});
        v.Set(7);
        u.future().Then([&log](const Unit&) { log.push_back("u-late"); });
        for (const auto* group : {&e, &us, &vs}) {
          expected.insert(expected.end(), group->begin(), group->end());
        }
        expected.push_back("u-late");
      } else {
        for (std::size_t i = 0; i < e.size(); ++i) {
          expected.insert(expected.end(), {us[i], e[i], vs[i]});
        }
      }
      sim.Run();
      EXPECT_EQ(log, expected);
      EXPECT_EQ(sim.events_executed(),
                static_cast<std::int64_t>(expected.size()));
    }
  }
}

TEST(SimFuture, PendingContinuationKeepsNonUnitStateAlive) {
  // A non-Unit continuation reads the value from the shared state when its
  // event runs, so the queued event holds the state even after the promise
  // and every future are gone, and frees it once it has run.
  Simulator sim;
  auto token = std::make_shared<int>(42);
  std::vector<int> seen;
  {
    SimPromise<std::shared_ptr<int>> p(&sim);
    p.future().Then(
        [&seen](const std::shared_ptr<int>& v) { seen.push_back(*v); });
    p.Set(token);
    // Then() on the ready future takes the same path.
    p.future().Then(
        [&seen](const std::shared_ptr<int>& v) { seen.push_back(*v + 1); });
  }
  EXPECT_EQ(token.use_count(), 2);  // the state's value, held by two events
  sim.RunUntilPredicate([&seen] { return !seen.empty(); });  // one event
  EXPECT_EQ(seen, (std::vector<int>{42}));
  EXPECT_EQ(token.use_count(), 2);  // the second event still holds it
  sim.Run();
  EXPECT_EQ(seen, (std::vector<int>{42, 43}));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimFuture, CopiesOutlivingTheirPromiseReleaseTheStateOnce) {
  Simulator sim;
  auto token = std::make_shared<int>(7);
  std::vector<SimFuture<std::shared_ptr<int>>> copies;
  {
    SimPromise<std::shared_ptr<int>> p(&sim);
    SimFuture<std::shared_ptr<int>> f = p.future();
    for (int i = 0; i < 4; ++i) copies.push_back(f);
    copies.push_back(std::move(f));
    EXPECT_FALSE(f.valid());  // NOLINT: checking the moved-from handle
    copies[0] = copies[1];    // copy-assign between handles of one state
    copies[2] = copies[2];    // self-assign keeps the count
    SimPromise<std::shared_ptr<int>> q = p;  // a second promise handle
    q.Set(token);
  }
  EXPECT_EQ(token.use_count(), 2);  // held once, by the one shared state
  for (const auto& c : copies) {
    ASSERT_TRUE(c.ready());
    EXPECT_EQ(c.value(), token);
  }
  while (copies.size() > 1) {
    copies.pop_back();
    EXPECT_EQ(token.use_count(), 2);
  }
  copies.clear();
  EXPECT_EQ(token.use_count(), 1);

  // A join's state follows the same count: copies of the arrival
  // continuation that never all arrive release `fn` exactly once.
  CaptureProbe::Counts counts;
  {
    auto arrive = JoinOf(&sim, 3, [probe = CaptureProbe(&counts)] {});
    SimPromise<Unit> a(&sim);
    a.future().Then(arrive);
    auto kept = arrive;
    kept(Unit{});
    EXPECT_EQ(counts.destroyed, 0);
  }
  EXPECT_EQ(counts.destroyed, 1);
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 0);
}

TEST(CountdownLatchTest, FiresAtZero) {
  Simulator sim;
  CountdownLatch latch(&sim, 3);
  latch.CountDown();
  latch.CountDown();
  sim.Run();
  EXPECT_FALSE(latch.done().ready());
  latch.CountDown();
  sim.Run();
  EXPECT_TRUE(latch.done().ready());
}

TEST(CountdownLatchTest, ZeroCountIsImmediatelyDone) {
  Simulator sim;
  CountdownLatch latch(&sim, 0);
  EXPECT_TRUE(latch.done().ready());
}

// ------------------------------------------------------- SerialResource --

TEST(SerialResourceTest, SerializesWork) {
  Simulator sim;
  SerialResource cpu(&sim, "cpu0");
  std::vector<double> completion_us;
  for (int i = 0; i < 3; ++i) {
    cpu.Submit(Duration::Micros(10),
               [&] { completion_us.push_back(sim.now().ToMicros()); });
  }
  sim.Run();
  EXPECT_EQ(completion_us, (std::vector<double>{10, 20, 30}));
  EXPECT_EQ(cpu.jobs_processed(), 3);
  EXPECT_EQ(cpu.total_busy().ToMicros(), 30.0);
}

TEST(SerialResourceTest, IdleGapsDoNotAccumulate) {
  Simulator sim;
  SerialResource cpu(&sim, "cpu0");
  double done2 = 0;
  cpu.Submit(Duration::Micros(5));
  sim.Schedule(Duration::Micros(100), [&] {
    cpu.Submit(Duration::Micros(5), [&] { done2 = sim.now().ToMicros(); });
  });
  sim.Run();
  EXPECT_EQ(done2, 105.0);  // starts fresh at t=100, not queued behind t=5
}

// ----------------------------------------------------------------- Trace --

TEST(TraceTest, UtilizationSingleResource) {
  TraceRecorder tr;
  const TimePoint t0;
  tr.Record("dev0", 0, "step", t0, t0 + Duration::Micros(50));
  tr.Record("dev0", 0, "step", t0 + Duration::Micros(75), t0 + Duration::Micros(100));
  EXPECT_DOUBLE_EQ(tr.Utilization("dev0", t0, t0 + Duration::Micros(100)), 0.75);
}

TEST(TraceTest, BusyPerClientShares) {
  TraceRecorder tr;
  const TimePoint t0;
  tr.Record("dev0", 1, "a", t0, t0 + Duration::Micros(10));
  tr.Record("dev0", 2, "b", t0 + Duration::Micros(10), t0 + Duration::Micros(30));
  tr.Record("dev1", 2, "b", t0, t0 + Duration::Micros(20));
  auto busy = tr.BusyPerClient(t0, t0 + Duration::Micros(30));
  EXPECT_EQ(busy[1].ToMicros(), 10.0);
  EXPECT_EQ(busy[2].ToMicros(), 40.0);
}

TEST(TraceTest, ClipsSpansToWindow) {
  TraceRecorder tr;
  const TimePoint t0;
  tr.Record("dev0", 0, "x", t0, t0 + Duration::Micros(100));
  EXPECT_DOUBLE_EQ(
      tr.Utilization("dev0", t0 + Duration::Micros(40), t0 + Duration::Micros(60)),
      1.0);
}

TEST(TraceTest, MeanUtilizationAcrossResources) {
  TraceRecorder tr;
  const TimePoint t0;
  tr.Record("dev0", 0, "x", t0, t0 + Duration::Micros(100));
  tr.Record("dev1", 0, "x", t0, t0 + Duration::Micros(50));
  EXPECT_DOUBLE_EQ(tr.MeanUtilization(t0, t0 + Duration::Micros(100)), 0.75);
}

}  // namespace
}  // namespace pw::sim
