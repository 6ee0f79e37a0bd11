// Property/fuzz layer for the fault-injection subsystem: seeded random
// FaultPlans drive a retry-until-success training workload, and invariants
// are asserted over the resulting traces rather than example-specific
// values (Couto et al.: back failure-handling subsystems with automated
// property checks, not example tests alone).
//
// Invariants checked across seeds:
//   1. Liveness: the workload always completes — no deadlock, no stuck
//      retries — for any plan whose crashes all recover.
//   2. No event fires on a down device: no device trace span overlaps any
//      of that device's crash windows.
//   3. Recovery restores steady state: once every fault has reverted, step
//      latency settles (and, for crash-free plans, equals the fault-free
//      baseline exactly).
//   4. Determinism: identical seeds give identical traces — including when
//      points run concurrently on SweepRunner threads — and the trace is
//      reproducible run-to-run within a process.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "hw/cluster.h"
#include "pathways/pathways.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "sweep/param_grid.h"
#include "sweep/sweep_runner.h"

namespace pw::faults {
namespace {

using pathways::Client;
using pathways::ExecutionResult;
using pathways::PathwaysProgram;
using pathways::PathwaysRuntime;
using pathways::ProgramBuilder;
using xlasim::CompiledFunction;

constexpr int kSeeds = 24;

struct ScenarioResult {
  std::vector<double> step_ms;   // latency of each successful step
  std::vector<sim::TraceSpan> spans;
  std::int64_t events_executed = 0;
  std::int64_t final_now_ns = 0;
  std::int64_t aborted = 0;
  std::int64_t completed = 0;

  std::uint64_t Checksum() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::int64_t v) {
      const auto* p = reinterpret_cast<const unsigned char*>(&v);
      for (std::size_t i = 0; i < sizeof(v); ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
      }
    };
    for (const sim::TraceSpan& s : spans) {
      mix(static_cast<std::int64_t>(s.resource.size()));
      for (const char c : s.resource) mix(c);  // full bytes: "dev2" != "dev5"
      mix(static_cast<std::int64_t>(s.label.size()));
      for (const char c : s.label) mix(c);
      mix(s.client);
      mix(s.start.nanos());
      mix(s.end.nanos());
    }
    mix(events_executed);
    mix(final_now_ns);
    return h;
  }
};

FaultPlan PlanForSeed(std::uint64_t seed, const ClusterShape& shape,
                      bool include_crashes) {
  FaultPlan::RandomSpec spec;
  spec.device_crashes = include_crashes ? 2 : 0;
  spec.stragglers = 2;
  spec.link_degrades = 1;
  spec.partitions = 1;
  spec.horizon = Duration::Millis(6);
  spec.min_window = Duration::Micros(200);
  spec.max_window = Duration::Millis(2);
  spec.always_recover = true;  // liveness invariant needs eventual recovery
  return FaultPlan::Random(seed, shape, spec);
}

// Runs `steps` successful training steps (retrying failed ones without
// bound — recovery is guaranteed by always_recover) under the seeded plan.
ScenarioResult RunScenario(std::uint64_t seed, bool include_crashes,
                           int steps = 10) {
  sim::Simulator sim;
  hw::SystemParams params = hw::SystemParams::TpuDefault();
  // Zero host jitter: the steady-state property compares step latencies
  // bit-for-bit, and aborted attempts would otherwise shift the shared
  // jitter Rng stream for every step after them. (Determinism *with*
  // jitter is regression-gated by sim_determinism_test's goldens.)
  params.host_jitter_frac = 0;
  auto cluster = std::make_unique<hw::Cluster>(&sim, params, /*islands=*/2,
                                               /*hosts_per_island=*/2,
                                               /*devices_per_host=*/2);
  cluster->EnableTrace();
  PathwaysRuntime runtime(cluster.get(), pathways::PathwaysOptions{});
  Client* client = runtime.CreateClient();
  auto slice = client->AllocateSlice(4, hw::IslandId(0)).value();
  auto fn = CompiledFunction::Synthetic("step", 4, Duration::Micros(300),
                                        net::CollectiveKind::kAllReduce,
                                        KiB(32));
  ProgramBuilder pb("train");
  pb.Call(fn, slice, {});
  PathwaysProgram prog = std::move(pb).Build();

  const ClusterShape shape{cluster->num_devices(), cluster->num_hosts()};
  FaultInjector injector(cluster.get(), &runtime,
                         PlanForSeed(seed, shape, include_crashes));
  injector.Arm();

  ScenarioResult out;
  pathways::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = Duration::Micros(250);
  for (int i = 0; i < steps; ++i) {
    // Retry-until-success: RunWithRetry handles transient aborts; if a
    // whole retry burst fails (device still down), submit a fresh one.
    while (true) {
      const TimePoint begin = sim.now();
      auto r = client->RunWithRetry(&prog, {}, policy);
      const bool done = sim.RunUntilPredicate([&r] { return r.ready(); });
      EXPECT_TRUE(done) << "seed " << seed << ": step " << i
                        << " never resolved (lost wakeup?)";
      if (!done) return out;  // liveness already failed; don't spin forever
      if (!r.value().failed) {
        out.step_ms.push_back((sim.now() - begin).ToMillis());
        break;
      }
    }
  }
  sim.Run();
  EXPECT_FALSE(sim.Deadlocked()) << "seed " << seed;
  out.spans = cluster->trace().spans();
  out.events_executed = sim.events_executed();
  out.final_now_ns = sim.now().nanos();
  out.aborted = runtime.executions_aborted();
  out.completed = runtime.executions_completed();

  // Invariant 2 (in-run check): every device ends healthy and no span
  // overlaps a crash window.
  for (const FaultEvent& e : injector.plan().events()) {
    if (e.kind != FaultKind::kDeviceCrash) continue;
    EXPECT_TRUE(injector.device_up(e.device)) << "seed " << seed;
    const std::string resource = "dev" + std::to_string(e.device.value());
    for (const sim::TraceSpan& s : out.spans) {
      if (s.resource != resource) continue;
      const bool overlaps =
          s.start < e.recovery_at() && s.end > e.at;
      EXPECT_FALSE(overlaps)
          << "seed " << seed << ": kernel '" << s.label << "' ran on "
          << resource << " during its down window [" << e.at << ", "
          << e.recovery_at() << "): span [" << s.start << ", " << s.end << ")";
    }
  }
  return out;
}

TEST(FaultPropertyTest, RandomPlansAlwaysCompleteWithoutDeadlock) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ScenarioResult r = RunScenario(seed, /*include_crashes=*/true);
    // Every step eventually succeeded: exactly 10 completions, and every
    // abort was accounted for by a resubmission rather than a hang.
    EXPECT_EQ(r.step_ms.size(), 10u);
    EXPECT_EQ(r.completed, 10);
    EXPECT_GE(r.aborted, 0);
  }
}

TEST(FaultPropertyTest, IdenticalSeedsGiveIdenticalTraces) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ScenarioResult a = RunScenario(seed, true);
    const ScenarioResult b = RunScenario(seed, true);
    EXPECT_EQ(a.Checksum(), b.Checksum());
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.final_now_ns, b.final_now_ns);
    EXPECT_EQ(a.aborted, b.aborted);
  }
}

TEST(FaultPropertyTest, TracesIdenticalAcrossSweepThreadCounts) {
  // The same seeded fault scenarios, fanned out through SweepRunner with 1
  // and 4 threads: thread interleaving must not leak into any point.
  auto sweep = [](int threads) {
    sweep::ParamGrid grid;
    std::vector<std::int64_t> seeds;
    for (std::int64_t s = 0; s < 6; ++s) seeds.push_back(s);
    grid.AxisInts("seed", seeds);
    sweep::SweepRunner runner({.threads = threads});
    return runner.Run(grid, [](const sweep::ParamPoint& p) -> sweep::Metrics {
      ScenarioResult r = RunScenario(
          static_cast<std::uint64_t>(p.GetInt("seed")), true, /*steps=*/5);
      return {{"checksum", static_cast<double>(r.Checksum() >> 11)},
              {"events", static_cast<double>(r.events_executed)},
              {"aborted", static_cast<double>(r.aborted)}};
    });
  };
  const sweep::ResultTable t1 = sweep(1);
  const sweep::ResultTable t4 = sweep(4);
  ASSERT_EQ(t1.size(), t4.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    for (std::size_t m = 0; m < t1.rows()[i].metrics.size(); ++m) {
      EXPECT_EQ(t1.rows()[i].metrics[m].second, t4.rows()[i].metrics[m].second)
          << "row " << i << " metric " << t1.rows()[i].metrics[m].first;
    }
  }
}

TEST(FaultPropertyTest, RecoveryRestoresSteadyStateThroughput) {
  // Crash-free plans fully revert (stragglers and links return to nominal),
  // so once the last window closes, step latency must equal the fault-free
  // baseline bit-for-bit. The final steps run long after the 6ms+2ms
  // worst-case fault horizon.
  const ScenarioResult baseline = RunScenario(/*seed=*/0, false, 14);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const ScenarioResult faulted = RunScenario(seed, false, 14);
    ASSERT_EQ(faulted.step_ms.size(), baseline.step_ms.size());
    EXPECT_EQ(faulted.step_ms.back(), baseline.step_ms.back())
        << "post-recovery step latency did not return to baseline";
    EXPECT_EQ(faulted.aborted, 0);  // nothing crashes in these plans
  }
  // With crashes, steady state means *stable*, not necessarily baseline
  // (virtual devices may have been remapped onto shared spares): the last
  // two steps must cost the same.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("crash seed=" + std::to_string(seed));
    const ScenarioResult faulted = RunScenario(seed, true, 14);
    const auto n = faulted.step_ms.size();
    EXPECT_EQ(faulted.step_ms[n - 1], faulted.step_ms[n - 2])
        << "step latency still drifting long after the last recovery";
  }
}

TEST(FaultPropertyTest, ZeroFaultSpecMatchesNoInjectorRun) {
  // A Random spec with all counts at zero must behave exactly like not
  // having a fault subsystem at all.
  auto bare = [] {
    sim::Simulator sim;
    auto cluster = std::make_unique<hw::Cluster>(
        &sim, hw::SystemParams::TpuDefault(), 2, 2, 2);
    PathwaysRuntime runtime(cluster.get(), pathways::PathwaysOptions{});
    Client* client = runtime.CreateClient();
    auto slice = client->AllocateSlice(4, hw::IslandId(0)).value();
    auto fn = CompiledFunction::Synthetic("step", 4, Duration::Micros(300),
                                          net::CollectiveKind::kAllReduce,
                                          KiB(32));
    auto r = client->RunFunction(fn, slice);
    sim.Run();
    EXPECT_TRUE(r.ready());
    return std::make_pair(sim.events_executed(), sim.now().nanos());
  };
  auto with_empty_injector = [] {
    sim::Simulator sim;
    auto cluster = std::make_unique<hw::Cluster>(
        &sim, hw::SystemParams::TpuDefault(), 2, 2, 2);
    PathwaysRuntime runtime(cluster.get(), pathways::PathwaysOptions{});
    FaultPlan::RandomSpec zero;
    zero.device_crashes = 0;
    zero.stragglers = 0;
    zero.link_degrades = 0;
    zero.partitions = 0;
    FaultInjector injector(
        cluster.get(), &runtime,
        FaultPlan::Random(3, ClusterShape{cluster->num_devices(),
                                          cluster->num_hosts()}, zero));
    injector.Arm();
    Client* client = runtime.CreateClient();
    auto slice = client->AllocateSlice(4, hw::IslandId(0)).value();
    auto fn = CompiledFunction::Synthetic("step", 4, Duration::Micros(300),
                                          net::CollectiveKind::kAllReduce,
                                          KiB(32));
    auto r = client->RunFunction(fn, slice);
    sim.Run();
    EXPECT_TRUE(r.ready());
    return std::make_pair(sim.events_executed(), sim.now().nanos());
  };
  EXPECT_EQ(bare(), with_empty_injector());
}

}  // namespace
}  // namespace pw::faults
