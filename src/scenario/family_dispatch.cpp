// Family "dispatch": §5.1's dispatch-overhead microbenchmark (Figs. 5 and 6)
// through the comparison systems in src/baselines/. A point runs one arm — a
// system, an enqueue mode and a measurement window — on `hosts` hosts of the
// `preset` configuration with `compute_ms` of device time per computation,
// and, when the arm names one, its baseline arm on the same point.
// scenarios/fig5_dispatch.json and fig6_convergence.json gate the
// arm/baseline ratios.
#include <algorithm>
#include <memory>
#include <string>

#include "baselines/jax_mc.h"
#include "baselines/pathways_driver.h"
#include "baselines/raylike.h"
#include "baselines/tf1.h"
#include "common/logging.h"
#include "scenario/family_common.h"

namespace pw::scenario {
namespace {

using baselines::CallMode;

// Windows grow with the computation so slow ones still complete many times
// inside them: warmup >= warmup_per_compute x compute, measure >= 40 x it.
struct Arm {
  const char* name;
  const char* system;  // JAX, PW, TF or Ray
  CallMode mode;
  int chain_length;
  int max_inflight_calls;
  double warmup_ms, measure_ms;
  int warmup_per_compute;
  int max_hosts;         // larger points are not measured
  const char* baseline;  // the arm this one is compared against, or ""
};

constexpr Arm kArms[] = {
    // Figure 5. Chained programs are long (a 128-node program at 512 shards
    // carries ~1.1 s of per-shard descriptor work), so two run in flight in
    // a window wide enough for several whole programs. Only fused JAX and
    // PW run past 128 hosts, as in the paper.
    {"JAX-F", "JAX", CallMode::kFused, 128, 8, 50, 400, 10, 512, ""},
    {"PW-F", "PW", CallMode::kFused, 128, 8, 50, 400, 10, 512, "JAX-F"},
    {"PW-C", "PW", CallMode::kChained, 128, 2, 1500, 5000, 10, 128, "JAX-O"},
    {"JAX-O", "JAX", CallMode::kOpByOp, 128, 8, 50, 400, 10, 128, ""},
    {"Ray-F", "Ray", CallMode::kFused, 128, 8, 50, 400, 10, 128, "JAX-F"},
    {"TF-C", "TF", CallMode::kChained, 128, 2, 1500, 5000, 10, 128, "JAX-O"},
    {"PW-O", "PW", CallMode::kOpByOp, 128, 8, 50, 400, 10, 128, "JAX-O"},
    {"Ray-C", "Ray", CallMode::kChained, 128, 2, 1500, 5000, 10, 128, "JAX-O"},
    {"Ray-O", "Ray", CallMode::kOpByOp, 128, 8, 50, 400, 10, 128, "JAX-O"},
    {"TF-O", "TF", CallMode::kOpByOp, 128, 8, 50, 400, 10, 128, "JAX-O"},
    // Figure 6: JAX op by op against Pathways dispatching every computation
    // as its own program, 8 in flight. Pathways' steady state needs the
    // whole window to drain through the client (8 x ~35 ms at 2048 shards).
    {"JAX", "JAX", CallMode::kOpByOp, 128, 8, 20, 200, 10, 512, ""},
    {"PW", "PW", CallMode::kChained, 1, 8, 400, 1500, 12, 512, "JAX"},
};

// Ray's GPU-VM fleet tops out far below TPU-pod host counts: larger points
// run at the ceiling (the row's measured_hosts says so).
constexpr int kRayFleetHosts = 64;

// Computations/s of one arm on a fresh cluster. Ray runs on GPU VMs.
double MeasureArm(const Scenario& sc, const Arm& arm, const std::string& preset,
                  int hosts, Duration compute) {
  baselines::MicrobenchSpec spec;
  spec.mode = arm.mode;
  spec.chain_length = arm.chain_length;
  spec.max_inflight_calls = arm.max_inflight_calls;
  spec.unit_compute = compute;
  spec.warmup = std::max(Duration::Millis(arm.warmup_ms),
                         compute * arm.warmup_per_compute);
  spec.measure = std::max(Duration::Millis(arm.measure_ms), compute * 40);

  const std::string system = arm.system;
  ClusterSpec c = sc.cluster;
  c.preset = system == "Ray" ? "gpu_vm" : preset;
  c.hosts_per_island = hosts;
  sim::Simulator sim;
  auto cluster = BuildCluster(&sim, c, BaseSystemParams(c));
  if (system == "JAX") {
    return baselines::JaxMultiController(cluster.get()).Measure(spec)
        .computations_per_sec;
  }
  if (system == "PW") {
    return baselines::PathwaysDriver(cluster.get()).Measure(spec)
        .computations_per_sec;
  }
  if (system == "TF") {
    return baselines::Tf1SingleController(cluster.get()).Measure(spec)
        .computations_per_sec;
  }
  return baselines::RayLike(cluster.get()).Measure(spec).computations_per_sec;
}

sweep::Metrics Measure(const Scenario& sc, bool, const sweep::ParamPoint& p) {
  const Arm& arm = FindByName(kArms, p.GetString("system"));
  const std::string& preset = p.GetString("preset");
  const int hosts = static_cast<int>(p.GetInt("hosts"));
  const Duration compute = Duration::Millis(p.GetDouble("compute_ms"));
  // Config B tops out at 64 hosts (512 TPUs).
  if (hosts > arm.max_hosts || (preset == "config_b" && hosts > 64)) return {};

  const int measured = std::string(arm.system) == "Ray"
                           ? std::min(hosts, kRayFleetHosts)
                           : hosts;
  const double rate = MeasureArm(sc, arm, preset, measured, compute);
  sweep::Metrics m = {{"computations_per_sec", rate},
                      {"measured_hosts", measured}};
  if (*arm.baseline != '\0') {
    const double base =
        MeasureArm(sc, FindByName(kArms, arm.baseline), preset, hosts, compute);
    m.emplace_back("baseline_computations_per_sec", base);
    m.emplace_back("over_baseline", rate / base);
  }
  return m;
}

}  // namespace

Family MakeDispatchFamily() {
  Family f;
  f.name = "dispatch";
  f.description =
      "Figs. 5-6: computations/s of the dispatch microbenchmark per system "
      "and enqueue mode, against a baseline system";
  f.axes = {{"system", AxisKind::kString, NamesOf(kArms)},
            {"preset", AxisKind::kString, KnownPresets()},
            {"hosts", AxisKind::kInt},
            {"compute_ms", AxisKind::kDouble}};
  f.check_determinism = false;  // no summary reads it
  f.measure = Measure;
  return f;
}

}  // namespace pw::scenario
