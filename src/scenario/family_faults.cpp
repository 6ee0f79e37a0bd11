// Family "faults": goodput and recovery latency under injected device
// crashes, stragglers, and link degrades, each grid point paired with its
// own fault-free baseline. The cluster shape is derived per point from the island_devices axis; the
// scenario's cluster section supplies only the base SystemParams.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "pathways/pathways.h"
#include "scenario/family_common.h"

namespace pw::scenario {
namespace {

using pathways::Client;
using pathways::PathwaysProgram;
using pathways::PathwaysRuntime;
using pathways::ProgramBuilder;

// The workload every faults scenario runs; a scenario sets only the horizon
// and, optionally, a fault_plan (FaultsSpec). The windows shape the
// axis-derived random plans.
constexpr double kMinWindowMs = 1;
constexpr double kMaxWindowMs = 5;
constexpr int kRetryMaxAttempts = 6;
constexpr double kRetryInitialBackoffUs = 250;
constexpr double kStepUs = 300;
constexpr std::int64_t kCollectiveKib = 64;
constexpr std::int64_t kSeedBase = 0x5eed;

struct PointResult {
  double steps_ok = 0;
  double horizon_sec = 0;
  double recovery_mean_us = 0;
  double recovery_max_us = 0;
  double recovery_samples = 0;
  double aborted = 0;
  double retries = 0;

  double goodput() const { return steps_ok / horizon_sec; }
};

// The declarative fault_plan section lowered onto the builder API.
// Out-of-range targets die in FaultPlan::Validate when the injector arms,
// naming the offending event.
faults::FaultPlan PlanFromSpec(const FaultsSpec& spec) {
  faults::FaultPlan plan;
  for (const FaultPlanEvent& e : spec.fault_plan) {
    const TimePoint at = TimePoint() + Duration::Millis(e.at_ms);
    const Duration window = Duration::Millis(e.window_ms);
    if (e.kind == "device_crash") {
      plan.CrashDevice(hw::DeviceId(e.device), at, window);
    } else if (e.kind == "straggler") {
      plan.SlowDevice(hw::DeviceId(e.device), at, window, e.severity);
    } else if (e.kind == "link_degrade") {
      plan.DegradeHostLink(net::HostId(e.host), at, window, e.severity);
    } else {  // "partition" — the parser admits no other kind
      plan.PartitionHost(net::HostId(e.host), at, window);
    }
  }
  return plan;
}

// The axis-derived random plan (empty when crashes == 0, the baseline arm).
// RandomSpec's defaults supply one link degrade, no partitions, and crashes
// that always recover.
faults::FaultPlan RandomPlan(const FaultsSpec& spec, int island_devices,
                             int crashes, std::uint64_t seed) {
  if (crashes <= 0) return {};
  const int hosts = std::max(1, island_devices / 4);
  faults::FaultPlan::RandomSpec fspec;
  fspec.device_crashes = crashes;
  fspec.stragglers = crashes / 2;
  fspec.horizon = Duration::Millis(spec.horizon_ms);
  fspec.min_window = Duration::Millis(kMinWindowMs);
  fspec.max_window = Duration::Millis(kMaxWindowMs);
  return faults::FaultPlan::Random(
      seed, faults::ClusterShape{island_devices, hosts}, fspec);
}

// Runs the training loop on an island of `island_devices` with `plan`
// armed (an empty plan = the fault-free baseline) over the spec's horizon.
PointResult RunPoint(const Scenario& sc, const FaultsSpec& spec,
                     int island_devices, const faults::FaultPlan& plan) {
  const Duration horizon = Duration::Millis(spec.horizon_ms);
  sim::Simulator sim;
  const hw::SystemParams params = BaseSystemParams(sc.cluster);
  const int hosts = std::max(1, island_devices / 4);
  const int devs_per_host = island_devices / hosts;
  auto cluster = std::make_unique<hw::Cluster>(&sim, params, /*islands=*/1,
                                               hosts, devs_per_host);
  PathwaysRuntime runtime(cluster.get(), pathways::PathwaysOptions{});

  faults::FaultInjector injector(cluster.get(), &runtime, plan);
  injector.Arm();

  Client* client = runtime.CreateClient();
  auto slice = client->AllocateSlice(island_devices / 2).value();
  auto fn = xlasim::CompiledFunction::Synthetic(
      "step", island_devices / 2, Duration::Micros(kStepUs),
      net::CollectiveKind::kAllReduce, KiB(kCollectiveKib));
  ProgramBuilder pb("train");
  pb.Call(fn, slice, {});
  PathwaysProgram prog = std::move(pb).Build();

  pathways::RetryPolicy policy;
  policy.max_attempts = kRetryMaxAttempts;
  policy.initial_backoff = Duration::Micros(kRetryInitialBackoffUs);

  PointResult out;
  const TimePoint end = TimePoint() + horizon;
  while (sim.now() < end) {
    auto r = client->RunWithRetry(&prog, {}, policy);
    const bool resolved = sim.RunUntilPredicate([&r] { return r.ready(); });
    if (!resolved) break;  // would only happen on a liveness bug
    if (!r.value().failed) out.steps_ok += 1;
  }
  sim.Run();  // drain outstanding recoveries
  out.horizon_sec = horizon.ToSeconds();
  out.recovery_mean_us = injector.stats().recovery_latency_us.mean();
  out.recovery_max_us = injector.stats().recovery_latency_us.max();
  out.recovery_samples =
      static_cast<double>(injector.stats().recovery_latency_us.count());
  out.aborted = static_cast<double>(runtime.executions_aborted());
  out.retries = static_cast<double>(client->retries());
  return out;
}

sweep::Metrics Measure(const Scenario& sc, bool quick,
                       const sweep::ParamPoint& p) {
  const FaultsSpec& spec = sc.faults.For(quick);
  const int devices = static_cast<int>(p.GetInt("island_devices"));
  faults::FaultPlan plan;
  if (!spec.fault_plan.empty()) {
    // Declarative timeline: the same events replay at every grid point
    // (the faults_per_sec axis, if present, does not shape the plan).
    plan = PlanFromSpec(spec);
  } else {
    const int rate = static_cast<int>(p.GetInt("faults_per_sec"));
    const int crashes =
        std::max(1, static_cast<int>(
                        rate * Duration::Millis(spec.horizon_ms).ToSeconds()));
    // Seed varies per point so grid cells see different fault draws but
    // every rerun of the bench sees the same ones.
    const std::uint64_t seed =
        static_cast<std::uint64_t>(kSeedBase) + p.index();
    plan = RandomPlan(spec, devices, crashes, seed);
  }
  const PointResult faulted = RunPoint(sc, spec, devices, plan);
  const PointResult baseline = RunPoint(sc, spec, devices, {});
  return {{"goodput_steps_per_sec", faulted.goodput()},
          {"baseline_steps_per_sec", baseline.goodput()},
          {"goodput_ratio", faulted.goodput() / baseline.goodput()},
          {"recovery_latency_mean_us", faulted.recovery_mean_us},
          {"recovery_latency_max_us", faulted.recovery_max_us},
          {"recovery_samples", faulted.recovery_samples},
          {"executions_aborted", faulted.aborted},
          {"client_retries", faulted.retries}};
}

std::map<std::string, double> Summarize(
    const Scenario&, bool, const sweep::ResultTable& table,
    const std::vector<sweep::ParamPoint>&, bool) {
  double ratio_sum = 0, recovery_sum = 0;
  for (const auto& row : table.rows()) {
    ratio_sum += row.Metric("goodput_ratio");
    recovery_sum += row.Metric("recovery_latency_mean_us");
  }
  const double rows = static_cast<double>(table.rows().size());
  return {{"mean_goodput_ratio", ratio_sum / rows},
          {"mean_recovery_latency_us", recovery_sum / rows}};
}

}  // namespace

Family MakeFaultsFamily() {
  Family f;
  f.name = "faults";
  f.description =
      "goodput & recovery latency vs fault rate x island size, each point "
      "vs its own fault-free baseline";
  f.axes = {{"island_devices", AxisKind::kInt},
            {"faults_per_sec", AxisKind::kInt}};
  // The faults sweep never carried the determinism rerun (every point
  // already runs two private simulators); keep its BENCH summary
  // byte-stable.
  f.check_determinism = false;
  f.measure = Measure;
  f.summarize = Summarize;
  return f;
}

}  // namespace pw::scenario
