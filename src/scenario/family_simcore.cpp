// Family "simcore": wall-clock throughput of the simulator's event engine,
// the pooled engine (sim::Simulator) against the pre-overhaul engine, plus
// handle-cancellation cost. Every SimFuture runs on sim::Simulator, so its
// events/s bounds how large a cluster the other scenarios can afford to
// model. scenarios/simcore.json gates the speedup.
//
// The pre-overhaul engine (binary heap of std::function events, as of
// commit 2e93231) is kept below as LegacySimulator so the speedup claim
// stays measurable on any machine.
//
// The values are wall-clock, so the sweep has one axis, `events`, and the
// shipped scenario gives it one value. With one grid point the SweepRunner
// uses one thread and every timing below runs serially; that is why the
// workloads and engines are loops inside Measure rather than axes, which
// the pool would time concurrently (as it would several `events` values).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "scenario/family_common.h"

namespace pw::scenario {
namespace {

// --------------------------------------------------------------------- //
// The pre-overhaul engine, verbatim (minus probes): one heap-owned
// std::function per event, moved through the priority queue on every sift.
class LegacySimulator {
 public:
  TimePoint now() const { return now_; }

  void Schedule(Duration delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  void ScheduleAt(TimePoint at, std::function<void()> fn) {
    PW_CHECK_GE(at.nanos(), now_.nanos()) << "cannot schedule in the past";
    events_.push(Event{at, next_seq_++, std::move(fn)});
  }

  std::int64_t Run() {
    std::int64_t n = 0;
    while (!events_.empty()) {
      Event ev = std::move(const_cast<Event&>(events_.top()));
      events_.pop();
      PW_CHECK_GE(ev.at.nanos(), now_.nanos());
      now_ = ev.at;
      ev.fn();
      ++n;
    }
    return n;
  }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return b.at < a.at;
      return b.seq < a.seq;
    }
  };
  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
};

// --------------------------------------------------------------------- //
// Workloads, engine-generic. Each returns its engine's Run() count.

// Pre-scheduled burst of trivial (captureless) events at scattered times:
// pure heap push/pop cost.
template <typename Sim>
std::int64_t WorkloadEmpty(Sim& sim, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    sim.Schedule(Duration::Nanos((i * 7919) % 997), [] {});
  }
  return sim.Run();
}

// 40-byte captures: over std::function's inline buffer (heap allocation per
// event in the legacy engine), within the 48-byte inline slot of the pooled
// engine's EventCallback (no allocation). This is the realistic case — most sim
// callbacks capture `this` plus a few values.
// Defeats dead-code elimination of the callback bodies below.
volatile std::int64_t g_capture_sink = 0;

template <typename Sim>
std::int64_t WorkloadCapture40(Sim& sim, std::int64_t n) {
  std::int64_t sink = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t a = i, b = i * 3, c = i * 5, d = i * 7;
    sim.Schedule(Duration::Nanos((i * 31) % 811),
                 [&sink, a, b, c, d] { sink += a ^ b ^ c ^ d; });
  }
  const std::int64_t events = sim.Run();
  g_capture_sink = sink;
  return events;
}

// Steady-state churn: 256 self-rescheduling chains, each event scheduling
// its successor — the free-list recycling path, and the shape the Pathways
// runtime actually produces (bounded live set, high turnover).
template <typename Sim>
std::int64_t WorkloadChurn(Sim& sim, std::int64_t n) {
  struct Chain {
    Sim* sim;
    std::int64_t budget;
    std::uint64_t rng;
    void Fire() {
      if (--budget <= 0) return;
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      sim->Schedule(Duration::Nanos(static_cast<std::int64_t>((rng >> 33) & 1023)),
                    [this] { Fire(); });
    }
  };
  constexpr int kChains = 256;
  std::vector<std::unique_ptr<Chain>> chains;
  chains.reserve(kChains);
  for (int c = 0; c < kChains; ++c) {
    chains.push_back(std::make_unique<Chain>(
        Chain{&sim, n / kChains, 0x9E3779B97F4A7C15ULL * (c + 1)}));
    Chain* chain = chains.back().get();
    sim.Schedule(Duration::Nanos(c), [chain] { chain->Fire(); });
  }
  return sim.Run();
}

// Zero-delay storms: 256 chains of events firing at the *current* instant,
// each callback scheduling its successor with Duration::Zero(). This is
// the dominant event shape in the actual simulator — every SimFuture
// Then(), WhenAll() completion, and device wakeup is a zero-delay event —
// and the pooled engine services it from the O(1) now-ring instead of the
// heap.
template <typename Sim>
std::int64_t WorkloadZeroDelay(Sim& sim, std::int64_t n) {
  struct Chain {
    Sim* sim;
    std::int64_t budget;
    void Fire() {
      if (--budget <= 0) return;
      sim->Schedule(Duration::Zero(), [this] { Fire(); });
    }
  };
  constexpr int kChains = 256;
  std::vector<std::unique_ptr<Chain>> chains;
  chains.reserve(kChains);
  for (int c = 0; c < kChains; ++c) {
    chains.push_back(std::make_unique<Chain>(Chain{&sim, n / kChains}));
    Chain* chain = chains.back().get();
    sim.Schedule(Duration::Zero(), [chain] { chain->Fire(); });
  }
  return sim.Run();
}

// Realistic mix calibrated on the Pathways runtime's traffic: ~3/4 of
// events are zero-delay completions, the rest land at scattered future
// times (kernel durations, link latencies, scheduler costs).
template <typename Sim>
std::int64_t WorkloadMixed(Sim& sim, std::int64_t n) {
  struct Chain {
    Sim* sim;
    std::int64_t budget;
    std::uint64_t rng;
    void Fire() {
      if (--budget <= 0) return;
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const bool timed = ((rng >> 33) & 3) == 0;  // 1 in 4
      const Duration d = timed
          ? Duration::Nanos(static_cast<std::int64_t>((rng >> 35) & 2047))
          : Duration::Zero();
      sim->Schedule(d, [this] { Fire(); });
    }
  };
  constexpr int kChains = 256;
  std::vector<std::unique_ptr<Chain>> chains;
  chains.reserve(kChains);
  for (int c = 0; c < kChains; ++c) {
    chains.push_back(std::make_unique<Chain>(
        Chain{&sim, n / kChains, 0xDEADBEEFCAFEF00DULL * (c + 1)}));
    Chain* chain = chains.back().get();
    sim.Schedule(Duration::Nanos(c & 7), [chain] { chain->Fire(); });
  }
  return sim.Run();
}

// A workload both engines run, one instantiation each.
struct Workload {
  const char* name;
  std::int64_t (*legacy)(LegacySimulator&, std::int64_t);
  std::int64_t (*pooled)(sim::Simulator&, std::int64_t);
};

const Workload kWorkloads[] = {
    {"empty", WorkloadEmpty<LegacySimulator>, WorkloadEmpty<sim::Simulator>},
    {"capture40", WorkloadCapture40<LegacySimulator>,
     WorkloadCapture40<sim::Simulator>},
    {"churn", WorkloadChurn<LegacySimulator>, WorkloadChurn<sim::Simulator>},
    {"zerodelay", WorkloadZeroDelay<LegacySimulator>,
     WorkloadZeroDelay<sim::Simulator>},
    {"mixed", WorkloadMixed<LegacySimulator>, WorkloadMixed<sim::Simulator>},
};

// --------------------------------------------------------------------- //
// Pooled-engine-only workload (the legacy engine has no handles).

std::int64_t WorkloadCancelHalf(sim::Simulator& sim, std::int64_t n) {
  std::vector<sim::EventHandle> handles;
  handles.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    handles.push_back(
        sim.Schedule(Duration::Nanos((i * 13) % 701), [] {}));
  }
  for (std::int64_t i = 0; i < n; i += 2) {
    sim.Cancel(handles[static_cast<std::size_t>(i)]);
  }
  sim.Run();
  return n;  // n/2 fire + n/2 cancelled tombstones processed
}

// --------------------------------------------------------------------- //

constexpr int kReps = 3;

struct Timing {
  double events_per_sec = 0;
  std::int64_t events = 0;  // the last rep's count
};

// The fastest of kReps timed calls of `run`, which returns the events it
// executed. `setup`, when given, runs before each call outside the timed
// window (simulator construction, pool prebuild).
Timing BestOf(const std::function<std::int64_t()>& run,
              const std::function<void()>& setup = nullptr) {
  Timing best;
  for (int r = 0; r < kReps; ++r) {
    if (setup) setup();
    const auto start = std::chrono::steady_clock::now();
    best.events = run();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    const double rate = static_cast<double>(best.events) / wall.count();
    if (rate > best.events_per_sec) best.events_per_sec = rate;
  }
  return best;
}

// Engine construction and teardown are inside the timed window.
template <typename Sim>
Timing TimeOn(std::int64_t (*workload)(Sim&, std::int64_t), std::int64_t n) {
  return BestOf([&] {
    Sim sim;
    return workload(sim, n);
  });
}

sweep::Metrics Measure(const Scenario&, bool, const sweep::ParamPoint& p) {
  const std::int64_t n = p.GetInt("events");
  sweep::Metrics m;
  for (const Workload& w : kWorkloads) {
    const Timing legacy = TimeOn(w.legacy, n);
    const Timing pooled = TimeOn(w.pooled, n);
    PW_CHECK_EQ(legacy.events, pooled.events)
        << w.name << ": the engines executed different work";
    const std::string name = w.name;
    m.emplace_back(name + "_legacy_events_per_sec", legacy.events_per_sec);
    m.emplace_back(name + "_pooled_events_per_sec", pooled.events_per_sec);
    m.emplace_back(name + "_speedup",
                   pooled.events_per_sec / legacy.events_per_sec);
  }

  // Handle cancellation (pooled engine only — the legacy engine cannot
  // express it).
  std::optional<sim::Simulator> sim;
  const Timing cancel = BestOf(
      [&] { return WorkloadCancelHalf(*sim, n); },
      [&] {
        sim.emplace();
        sim->ReserveEvents(static_cast<std::size_t>(n));
      });
  m.emplace_back("cancel_half_pooled_events_per_sec", cancel.events_per_sec);
  return m;
}

// Geomeans over every comparable workload: pooled and legacy events/s and
// their ratio (the headline claim).
std::map<std::string, double> Summarize(
    const Scenario&, bool, const sweep::ResultTable& table,
    const std::vector<sweep::ParamPoint>&, bool) {
  double speedup = 1.0, pooled = 1.0, legacy = 1.0;
  int count = 0;
  for (const sweep::ResultRow& row : table.rows()) {
    for (const Workload& w : kWorkloads) {
      const std::string name = w.name;
      speedup *= row.Metric(name + "_speedup");
      pooled *= row.Metric(name + "_pooled_events_per_sec");
      legacy *= row.Metric(name + "_legacy_events_per_sec");
      ++count;
    }
  }
  return {{"events_per_sec", std::pow(pooled, 1.0 / count)},
          {"legacy_events_per_sec", std::pow(legacy, 1.0 / count)},
          {"speedup_vs_legacy", std::pow(speedup, 1.0 / count)}};
}

}  // namespace

Family MakeSimcoreFamily() {
  Family f;
  f.name = "simcore";
  f.description =
      "event-engine throughput: pooled engine vs the pre-overhaul engine, "
      "events/s per workload";
  f.axes = {{"events", AxisKind::kInt}};
  f.check_determinism = false;  // wall-clock values
  f.measure = Measure;
  f.summarize = Summarize;
  return f;
}

}  // namespace pw::scenario
