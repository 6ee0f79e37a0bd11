// Property/stress tests for the pooled-event Simulator: randomized
// schedules (seeded pw::Rng) pinning the ordering contract, RunUntil/RunFor
// boundary semantics, cancellation and handle staleness, teardown with
// events pending, and death on scheduling in the past.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace pw::sim {
namespace {

// ------------------------------------------------- randomized ordering --

// The engine's whole contract in one property: events run in (time, seq)
// order. A randomized schedule (including duplicates and nested schedules)
// must replay exactly like a stable sort of (time, insertion index).
TEST(SimPropertyTest, RandomScheduleRunsInStableTimeOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Simulator sim;
    std::vector<std::pair<std::int64_t, int>> expected;  // (time, id)
    std::vector<int> actual;
    const int n = 200 + static_cast<int>(rng.NextBounded(300));
    for (int i = 0; i < n; ++i) {
      // Small time range forces many FIFO ties.
      const auto t = static_cast<std::int64_t>(rng.NextBounded(50));
      expected.emplace_back(t, i);
      sim.Schedule(Duration::Nanos(t), [&actual, i] { actual.push_back(i); });
    }
    sim.Run();
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i].second) << "seed " << seed << " pos " << i;
    }
  }
}

// Nested scheduling: events scheduled from callbacks at the current time
// run after everything already queued for that time (their seq is larger).
TEST(SimPropertyTest, NestedZeroDelayEventsRunAfterQueuedPeers) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Duration::Nanos(5), [&] {
    order.push_back(0);
    sim.Schedule(Duration::Zero(), [&] { order.push_back(2); });
  });
  sim.Schedule(Duration::Nanos(5), [&] { order.push_back(1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// A future event at time t scheduled earlier (smaller seq) runs before
// events that land at t with larger seq — the heap and the zero-delay
// now-ring merge by sequence number.
TEST(SimPropertyTest, HeapAndNowRingMergeBySequence) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Duration::Nanos(10), [&] { order.push_back(1); });
  sim.Schedule(Duration::Nanos(10), [&] { order.push_back(2); });
  sim.Schedule(Duration::Nanos(4), [&] {
    // At t=4: schedule for t=10 — seq after the two events above.
    sim.Schedule(Duration::Nanos(6), [&] { order.push_back(3); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Stress: randomized interleaving of upfront and nested scheduling must be
// bit-identical across runs.
TEST(SimPropertyTest, StressDeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Rng rng(seed);
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      const auto t = static_cast<std::int64_t>(rng.NextBounded(1000));
      const int fan = 1 + static_cast<int>(rng.NextBounded(3));
      sim.Schedule(Duration::Nanos(t), [&sim, &order, i, fan] {
        order.push_back(i);
        for (int f = 0; f < fan; ++f) {
          sim.Schedule(Duration::Nanos(f * 17), [&order, i, f] {
            order.push_back(1000 * (f + 1) + i);
          });
        }
      });
    }
    sim.Run();
    return order;
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_EQ(run_once(seed), run_once(seed)) << "seed " << seed;
  }
}

// -------------------------------------------------- boundary semantics --

TEST(SimPropertyTest, RunUntilExecutesEventsAtExactlyT) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(Duration::Micros(10), [&] { ++ran; });  // exactly t: runs
  sim.Schedule(Duration::Micros(10) + Duration::Nanos(1), [&] { ++ran; });
  sim.RunUntil(TimePoint() + Duration::Micros(10));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now().nanos(), Duration::Micros(10).nanos());  // clock lands on t
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimPropertyTest, RunForBoundaryIsInclusiveAndClockAdvances) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(Duration::Micros(3), [&] { ++ran; });
  const std::int64_t executed = sim.RunFor(Duration::Micros(3));
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now().ToMicros(), 3.0);
  // Empty window still advances the clock.
  sim.RunFor(Duration::Micros(7));
  EXPECT_EQ(sim.now().ToMicros(), 10.0);
}

TEST(SimPropertyTest, RunUntilThenRunResumesExactly) {
  Rng rng(7);
  Simulator sim;
  std::vector<std::int64_t> fire_times;
  for (int i = 0; i < 200; ++i) {
    const auto t = static_cast<std::int64_t>(rng.NextBounded(2000));
    sim.Schedule(Duration::Nanos(t),
                 [&fire_times, &sim] { fire_times.push_back(sim.now().nanos()); });
  }
  sim.RunUntil(TimePoint() + Duration::Nanos(1000));
  const std::size_t at_boundary = fire_times.size();
  for (std::size_t i = 0; i < at_boundary; ++i) EXPECT_LE(fire_times[i], 1000);
  sim.Run();
  for (std::size_t i = at_boundary; i < fire_times.size(); ++i) {
    EXPECT_GT(fire_times[i], 1000);
  }
  EXPECT_EQ(fire_times.size(), 200u);
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
}

// ------------------------------------------------------- cancellation --

TEST(SimCancelTest, CancelPendingEventPreventsFiring) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.Schedule(Duration::Micros(5), [&] { ++fired; });
  EXPECT_TRUE(sim.IsPending(h));
  EXPECT_TRUE(sim.Cancel(h));
  EXPECT_FALSE(sim.IsPending(h));
  EXPECT_TRUE(sim.empty());
  sim.Run();
  EXPECT_EQ(fired, 0);
  // Second cancel is a stale no-op.
  EXPECT_FALSE(sim.Cancel(h));
}

TEST(SimCancelTest, CancelFiredHandleIsStaleNoOp) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.Schedule(Duration::Micros(1), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.IsPending(h));
  EXPECT_FALSE(sim.Cancel(h));
}

TEST(SimCancelTest, StaleHandleStaysStaleAfterNodeRecycling) {
  Simulator sim;
  int first = 0, second = 0;
  EventHandle h1 = sim.Schedule(Duration::Micros(1), [&] { ++first; });
  sim.Run();
  // The pool recycles h1's node for the next event; h1 must not be able to
  // cancel the new occupant.
  EventHandle h2 = sim.Schedule(Duration::Micros(1), [&] { ++second; });
  EXPECT_FALSE(sim.Cancel(h1));
  EXPECT_TRUE(sim.IsPending(h2));
  sim.Run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(SimCancelTest, DefaultHandleIsInvalid) {
  Simulator sim;
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(sim.IsPending(h));
  EXPECT_FALSE(sim.Cancel(h));
}

TEST(SimCancelTest, RandomizedCancellationExactlyTheSurvivorsFire) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    Simulator sim;
    std::vector<int> fired;
    std::vector<EventHandle> handles;
    const int n = 300;
    for (int i = 0; i < n; ++i) {
      handles.push_back(sim.Schedule(
          Duration::Nanos(static_cast<std::int64_t>(rng.NextBounded(100))),
          [&fired, i] { fired.push_back(i); }));
    }
    std::vector<bool> cancelled(n, false);
    for (int i = 0; i < n; ++i) {
      if (rng.NextBounded(2) == 0) {
        const auto idx = static_cast<std::size_t>(i);
        cancelled[idx] = sim.Cancel(handles[idx]);
        EXPECT_TRUE(cancelled[idx]);
      }
    }
    const std::size_t survivors = static_cast<std::size_t>(
        std::count(cancelled.begin(), cancelled.end(), false));
    EXPECT_EQ(sim.pending_events(), survivors);
    sim.Run();
    EXPECT_EQ(fired.size(), survivors) << "seed " << seed;
    for (int id : fired) EXPECT_FALSE(cancelled[static_cast<std::size_t>(id)]);
  }
}

TEST(SimCancelTest, CancelReleasesCapturedResourcesEagerly) {
  // The watchdog pattern: the cancelled callback's captures must die at
  // Cancel() time, not when simulated time reaches the original timestamp.
  Simulator sim;
  auto guarded = std::make_shared<int>(7);
  EventHandle h =
      sim.Schedule(Duration::Seconds(10), [guarded] { (void)*guarded; });
  EXPECT_EQ(guarded.use_count(), 2);
  EXPECT_TRUE(sim.Cancel(h));
  EXPECT_EQ(guarded.use_count(), 1);  // released immediately
  sim.Run();
  EXPECT_EQ(guarded.use_count(), 1);
}

TEST(SimCancelTest, CancelledEventsDoNotCountAsExecuted) {
  Simulator sim;
  EventHandle h = sim.Schedule(Duration::Micros(1), [] {});
  sim.Schedule(Duration::Micros(2), [] {});
  sim.Cancel(h);
  EXPECT_EQ(sim.Run(), 1);
  EXPECT_EQ(sim.events_executed(), 1);
}

// ----------------------------------------------------------- teardown --

// Counts destructions of live instances; moved-from copies count nothing.
struct DestroyCounter {
  explicit DestroyCounter(int* n) : count(n) {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : count(std::exchange(other.count, nullptr)) {}
  DestroyCounter(const DestroyCounter&) = delete;
  DestroyCounter& operator=(const DestroyCounter&) = delete;
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (count != nullptr) ++*count;
  }
  int* count;
};

// A simulator destroyed with events still queued releases every capture
// exactly once, wherever the event waits: the now-ring, the timing wheel
// (< 1024 ns ahead), the heap, or as a cancelled tombstone whose capture
// Cancel() already released.
TEST(SimTeardownTest, DestroyWithPendingEventsReleasesEveryCaptureOnce) {
  enum { kRing, kWheel, kHeap, kHeapOversized, kTombstone, kKinds };
  int destroyed[kKinds] = {};
  int fired = 0;
  std::array<unsigned char, 128> pad{};
  {
    Simulator sim;
    sim.Schedule(Duration::Nanos(5), [&fired] { ++fired; });
    sim.RunUntil(TimePoint() + Duration::Nanos(5));  // off the zero clock
    auto probe = [&destroyed](int kind) {
      return [c = DestroyCounter(&destroyed[kind])] { (void)c; };
    };
    for (int i = 0; i < 3; ++i) {
      sim.Schedule(Duration::Zero(), probe(kRing));
      sim.Schedule(Duration::Nanos(1 + 511 * i), probe(kWheel));
      sim.Schedule(Duration::Nanos(1024) + Duration::Micros(i), probe(kHeap));
    }
    sim.Schedule(Duration::Seconds(1),
                 [c = DestroyCounter(&destroyed[kHeapOversized]), pad] {
                   (void)c;
                   (void)pad;
                 });
    for (Duration d : {Duration::Zero(), Duration::Nanos(7),
                       Duration::Millis(3)}) {
      EXPECT_TRUE(sim.Cancel(sim.Schedule(d, probe(kTombstone))));
    }
    EXPECT_EQ(destroyed[kTombstone], 3);  // released at Cancel()
    EXPECT_EQ(sim.pending_events(), 10u);
    for (int kind : {kRing, kWheel, kHeap, kHeapOversized}) {
      EXPECT_EQ(destroyed[kind], 0) << "kind " << kind;
    }
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(destroyed[kRing], 3);
  EXPECT_EQ(destroyed[kWheel], 3);
  EXPECT_EQ(destroyed[kHeap], 3);
  EXPECT_EQ(destroyed[kHeapOversized], 1);
  EXPECT_EQ(destroyed[kTombstone], 3);
}

// ------------------------------------------------------------- deaths --

TEST(SimDeathTest, SchedulingInThePastDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Simulator sim;
  sim.Schedule(Duration::Micros(10), [] {});
  sim.Run();  // now() == 10us
  EXPECT_DEATH(sim.ScheduleAt(TimePoint() + Duration::Micros(5), [] {}),
               "cannot schedule in the past");
}

}  // namespace
}  // namespace pw::sim
