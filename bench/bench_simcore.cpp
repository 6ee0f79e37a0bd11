// Wall-clock microbenchmarks of the simulation substrate itself: event
// throughput of the pooled-event engine vs the pre-overhaul engine, plus
// handle-cancellation cost. These bound how large a cluster the scenarios
// can afford to model.
//
// Needs no external dependency: a built-in timing loop measures
// events/second and writes BENCH_simcore.json via the sweep result
// emission. The pre-PR engine (binary heap of std::function events, as of
// commit 2e93231) is kept below as LegacySimulator so the speedup claim
// stays measurable on any machine.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "bench_common.h"
#include "sim/simulator.h"

namespace {

using namespace pw;

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
// Workloads, engine-generic. Each returns the number of events executed.

// Pre-scheduled burst of trivial (captureless) events at scattered times:
// pure heap push/pop cost.
template <typename Sim>
std::int64_t WorkloadEmpty(Sim& sim, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    sim.Schedule(Duration::Nanos((i * 7919) % 997), [] {});
  }
  sim.Run();
  return n;
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
  sim.Run();
  g_capture_sink = sink;
  return n;
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
  sim.Run();
  return kChains * (n / kChains);
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
  sim.Run();
  return kChains * (n / kChains);
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
  sim.Run();
  return kChains * (n / kChains);
}

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

double BestRateOf(int reps, const std::function<std::int64_t()>& run) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const std::int64_t events = run();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    const double rate = static_cast<double>(events) / wall.count();
    if (rate > best) best = rate;
  }
  return best;
}

// Like BestRateOf, but per-rep setup (simulator construction, pool
// prebuild) stays outside the timed window.
double BestRateWithSetup(
    int reps, const std::function<void(sim::Simulator&)>& setup,
    const std::function<std::int64_t(sim::Simulator&)>& run) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    sim::Simulator sim;
    setup(sim);
    const auto start = std::chrono::steady_clock::now();
    const std::int64_t events = run(sim);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    const double rate = static_cast<double>(events) / wall.count();
    if (rate > best) best = rate;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::Parse(argc, argv);
  // --min-speedup <x>: the enforced acceptance bar (default 2.0). CI on
  // shared runners passes a lower value so noisy-neighbor slowdowns don't
  // flake the job while gross regressions still fail.
  const double min_speedup = args.min_speedup;
  bench::Header(
      "simcore: event-engine throughput, pooled engine vs pre-PR engine",
      "infrastructure bench (no paper figure); acceptance: pooled >= 2x "
      "legacy events/sec");

  const std::int64_t n = args.quick ? 100'000 : 1'000'000;
  const int reps = args.quick ? 2 : 3;

  // Comparable workloads run through the sweep machinery (single thread:
  // wall-clock timing must not be perturbed by sibling measurements).
  sweep::ParamGrid grid;
  grid.AxisStrings("workload",
                   {"empty", "capture40", "churn", "zerodelay", "mixed"})
      .AxisStrings("engine", {"legacy", "pooled"});
  sweep::SweepRunner runner({.threads = 1});
  sweep::ResultTable table =
      runner.Run(grid, [&](const sweep::ParamPoint& p) -> sweep::Metrics {
        const std::string& workload = p.GetString("workload");
        const bool pooled = p.GetString("engine") == "pooled";
        auto dispatch = [&](auto& sim) -> std::int64_t {
          if (workload == "empty") return WorkloadEmpty(sim, n);
          if (workload == "capture40") return WorkloadCapture40(sim, n);
          if (workload == "zerodelay") return WorkloadZeroDelay(sim, n);
          if (workload == "mixed") return WorkloadMixed(sim, n);
          return WorkloadChurn(sim, n);
        };
        auto once = [&]() -> std::int64_t {
          if (pooled) {
            sim::Simulator sim;
            return dispatch(sim);
          }
          LegacySimulator sim;
          return dispatch(sim);
        };
        return {{"events_per_sec", BestRateOf(reps, once)}};
      });

  // Pair up legacy/pooled rates per workload for the report.
  std::printf("%-12s %16s %16s %10s   (%lld events/run)\n", "workload",
              "legacy (ev/s)", "pooled (ev/s)", "speedup",
              static_cast<long long>(n));
  bench::Reporter report("simcore", args);
  double geomean = 1.0;
  double pooled_geomean = 1.0;
  double legacy_geomean = 1.0;
  int workloads = 0;
  std::vector<std::pair<const char*, double>> per_case_speedups;
  for (const char* workload :
       {"empty", "capture40", "churn", "zerodelay", "mixed"}) {
    double legacy = 0, pooled = 0;
    for (const auto& row : table.rows()) {
      if (std::get<std::string>(row.params[0].second) != workload) continue;
      const double rate = row.metrics[0].second;
      (std::get<std::string>(row.params[1].second) == "pooled" ? pooled
                                                               : legacy) = rate;
    }
    const double speedup = pooled / legacy;
    std::printf("%-12s %16.0f %16.0f %9.2fx\n", workload, legacy, pooled,
                speedup);
    report.AddRow({{"workload", std::string(workload)}},
                  {{"legacy_events_per_sec", legacy},
                   {"pooled_events_per_sec", pooled},
                   {"speedup", speedup}});
    geomean *= speedup;
    pooled_geomean *= pooled;
    legacy_geomean *= legacy;
    per_case_speedups.emplace_back(workload, speedup);
    ++workloads;
  }
  geomean = std::pow(geomean, 1.0 / workloads);
  pooled_geomean = std::pow(pooled_geomean, 1.0 / workloads);
  legacy_geomean = std::pow(legacy_geomean, 1.0 / workloads);

  // Handle cancellation (pooled engine only — the legacy engine cannot
  // express it).
  {
    const double cancel = BestRateWithSetup(
        reps,
        [&](sim::Simulator& sim) {
          sim.ReserveEvents(static_cast<std::size_t>(n));
        },
        [&](sim::Simulator& sim) { return WorkloadCancelHalf(sim, n); });
    std::printf("%-12s %16s %16.0f\n", "cancel-half", "-", cancel);
    report.AddRow({{"workload", std::string("cancel-half")}},
                  {{"pooled_events_per_sec", cancel}});
  }

  std::printf("\ngeomean speedup (pooled / legacy): %.2fx\n", geomean);
  report.Summary("events_per_sec", pooled_geomean);
  report.Summary("legacy_events_per_sec", legacy_geomean);
  report.Summary("speedup_vs_legacy", geomean);
  report.Write();
  // Enforce the acceptance bars so CI fails on an engine perf regression.
  // Full-size runs only: --quick's small event counts sit in a cache
  // regime that underestimates the heap-bound workloads.
  //   1. The geomean must clear --min-speedup (headline claim).
  //   2. Every individual workload must be at least as fast as the legacy
  //      engine: a geomean carried by zerodelay must not paper over a
  //      regression on a specific engine path (this caught the pooled
  //      engine losing to the legacy one on `churn` before the timing
  //      wheel landed).
  bool below_bar = !args.quick && geomean < min_speedup;
  constexpr double kPerWorkloadFloor = 1.0;
  bool case_regressed = false;
  for (const auto& [workload, speedup] : per_case_speedups) {
    if (speedup < kPerWorkloadFloor) case_regressed = true;
  }
  if (below_bar || (!args.quick && case_regressed)) {
    if (below_bar) {
      std::fprintf(stderr,
                   "FAIL: pooled/legacy geomean speedup %.2fx is below the "
                   "%.2fx acceptance bar\n",
                   geomean, min_speedup);
    } else {
      std::fprintf(stderr,
                   "FAIL: a workload regressed below %.2fx of the legacy "
                   "engine (geomean %.2fx is fine)\n",
                   kPerWorkloadFloor, geomean);
    }
    // Per-case ratios make the CI log actionable: a regression localized to
    // one workload (e.g. only `zerodelay`) points at a specific engine path
    // rather than generic machine noise.
    for (const auto& [workload, speedup] : per_case_speedups) {
      std::fprintf(stderr, "  %-12s %5.2fx%s\n", workload, speedup,
                   speedup < min_speedup || speedup < kPerWorkloadFloor
                       ? "  <-- below bar"
                       : "");
    }
    return 1;
  }
  return 0;
}
