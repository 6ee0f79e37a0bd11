// Family "oversub": T tenants stage resident weights and serve closed-loop
// requests while per-device HBM is scaled below the sum of their working
// sets, so survival depends on scheduler-consistent reservations plus the
// host-DRAM spill path.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pathways/pathways.h"
#include "scenario/family_common.h"
#include "xlasim/compiled_function.h"

namespace pw::scenario {
namespace {

using pathways::Client;
using pathways::ExecutionResult;
using pathways::PathwaysProgram;
using pathways::PathwaysRuntime;
using pathways::ProgramBuilder;
using pathways::ShardedBuffer;

// The workload every oversub scenario runs; a scenario sets only how many
// requests each tenant issues (OversubSpec).
constexpr int kTenants = 4;
constexpr double kWeightsPerShardMib = 6;
constexpr double kOutputPerShardMib = 2;
constexpr double kWorkingHeadroomMib = 64;
constexpr double kStepUs = 300;

sweep::Metrics Measure(const Scenario& sc, bool quick,
                       const sweep::ParamPoint& p) {
  const double scale = p.GetDouble("hbm_scale");
  const int depth = static_cast<int>(p.GetInt("depth"));
  const int requests_per_tenant = sc.oversub.For(quick).requests_per_tenant;

  const Bytes weights_per_shard = MiB(kWeightsPerShardMib);
  const Bytes output_per_shard = MiB(kOutputPerShardMib);
  // Logical bytes per tenant per device (weights + one in-flight output);
  // capacity = scale * (tenant bytes + transient headroom), so scale 1.0
  // really means un-oversubscribed.
  const Bytes tenant_bytes = weights_per_shard + output_per_shard;
  const Bytes headroom = MiB(kWorkingHeadroomMib);

  sim::Simulator sim;
  hw::SystemParams params = BaseSystemParams(sc.cluster);
  params.hbm_capacity = static_cast<Bytes>(
      scale * static_cast<double>(kTenants * tenant_bytes + headroom));
  auto cluster = BuildCluster(&sim, sc.cluster, params);
  PathwaysRuntime runtime(cluster.get(), pathways::PathwaysOptions{});

  const int shards = cluster->num_devices();

  // Per tenant: a client, a slice over every device, staged weights, and a
  // serving program that consumes the weights (input staging = weights
  // bytes).
  struct Tenant {
    Client* client = nullptr;
    pathways::VirtualSlice slice;
    ShardedBuffer weights;
    std::unique_ptr<PathwaysProgram> program;
    int submitted = 0;
    int completed = 0;
  };
  std::vector<Tenant> tenants(static_cast<std::size_t>(kTenants));
  for (int t = 0; t < kTenants; ++t) {
    Tenant& tn = tenants[static_cast<std::size_t>(t)];
    tn.client = runtime.CreateClient();
    tn.slice = tn.client->AllocateSlice(shards).value();
    xlasim::CompiledFunction fn;
    fn.name = "serve" + std::to_string(t);
    fn.num_shards = shards;
    fn.pre_collective_time = Duration::Micros(kStepUs);
    fn.input_bytes_per_shard = weights_per_shard;
    fn.output_bytes_per_shard = output_per_shard;
    ProgramBuilder pb("serve" + std::to_string(t));
    pathways::ValueRef arg = pb.Argument();
    pb.Result(pb.Call(fn, tn.slice, {arg}));
    tn.program = std::make_unique<PathwaysProgram>(std::move(pb).Build());
    // Staging the weights itself back-pressures (and spills) once the
    // scaled HBM cannot hold every tenant.
    tn.weights = tn.client->TransferToDevice(tn.slice, weights_per_shard);
  }
  sim.Run();  // land (or spill-shuffle) the weights

  // Closed loop per tenant: `depth` requests in flight, each completion
  // releases its outputs and issues the next.
  std::function<void(int)> issue = [&](int t) {
    Tenant& tn = tenants[static_cast<std::size_t>(t)];
    if (tn.submitted >= requests_per_tenant) return;
    ++tn.submitted;
    tn.client->Run(tn.program.get(), {tn.weights})
        .Then([&, t](const ExecutionResult& r) {
          Tenant& tn2 = tenants[static_cast<std::size_t>(t)];
          for (const auto& out : r.outputs) {
            runtime.object_store().Release(out.id);
          }
          if (!r.failed) ++tn2.completed;
          issue(t);
        });
  };
  for (int t = 0; t < kTenants; ++t) {
    for (int d = 0; d < depth; ++d) issue(t);
  }
  sim.Run();

  // Forward-progress gates: a wedge here PW_CHECKs the whole binary down
  // with the cycle named, and any shortfall shows up in `deadlocked`.
  runtime.object_store().CheckNoReservationWedge();
  int completed = 0;
  for (const Tenant& tn : tenants) completed += tn.completed;
  const bool all_done = completed == kTenants * requests_per_tenant;
  const bool deadlocked = sim.Deadlocked() || !all_done;

  pathways::ObjectStore& store = runtime.object_store();
  double oversub_x = 0;
  for (int d = 0; d < cluster->num_devices(); ++d) {
    const double peak = static_cast<double>(
        store.logical_peak_bytes(cluster->device(d).id()));
    oversub_x = std::max(
        oversub_x, peak / static_cast<double>(params.hbm_capacity));
  }

  sweep::Metrics m;
  m.emplace_back("completed", static_cast<double>(completed));
  m.emplace_back("deadlocked", deadlocked ? 1.0 : 0.0);
  m.emplace_back("goodput_per_s",
                 static_cast<double>(completed) / sim.now().ToSeconds());
  m.emplace_back("oversub_x", oversub_x);
  m.emplace_back("spills", static_cast<double>(store.spills_completed()));
  m.emplace_back("fills", static_cast<double>(store.fills_completed()));
  m.emplace_back("dram_reads", static_cast<double>(store.dram_reads()));
  m.emplace_back("spilled_mib",
                 static_cast<double>(store.spilled_bytes_total()) /
                     static_cast<double>(MiB(1)));
  m.emplace_back("dram_peak_mib",
                 static_cast<double>(cluster->host(0).dram().peak_used()) /
                     static_cast<double>(MiB(1)));
  return m;
}

std::map<std::string, double> Summarize(
    const Scenario&, bool, const sweep::ResultTable& table,
    const std::vector<sweep::ParamPoint>& points, bool deterministic) {
  // Per-depth goodput baselines at scale 1.0 for the degradation gate.
  std::map<std::int64_t, double> baseline;
  for (std::size_t i = 0; i < table.rows().size(); ++i) {
    if (points[i].GetDouble("hbm_scale") == 1.0) {
      baseline[points[i].GetInt("depth")] =
          table.rows()[i].Metric("goodput_per_s");
    }
  }
  bool any_deadlock = false;
  double min_ratio = 1.0;
  double max_oversub = 0.0;
  for (std::size_t i = 0; i < table.rows().size(); ++i) {
    const auto& row = table.rows()[i];
    const double scale = points[i].GetDouble("hbm_scale");
    const double base = baseline[points[i].GetInt("depth")];
    const double goodput = row.Metric("goodput_per_s");
    const double ratio = base > 0 ? goodput / base : 0.0;
    any_deadlock |= row.Metric("deadlocked") > 0.5;
    if (scale < 1.0) {
      min_ratio = std::min(min_ratio, ratio);
      max_oversub = std::max(max_oversub, row.Metric("oversub_x"));
    }
  }
  return {{"deadlocks", any_deadlock ? 1.0 : 0.0},
          {"min_goodput_ratio_oversub", min_ratio},
          {"max_oversub_x", max_oversub},
          {"deterministic", deterministic ? 1.0 : 0.0}};
}

}  // namespace

Family MakeOversubFamily() {
  Family f;
  f.name = "oversub";
  f.description =
      "oversubscribed serving: HBM back-pressure + host-DRAM spilling "
      "across an hbm_scale x depth grid";
  f.axes = {{"hbm_scale", AxisKind::kDouble}, {"depth", AxisKind::kInt}};
  f.check_determinism = true;
  f.measure = Measure;
  f.summarize = Summarize;
  return f;
}

}  // namespace pw::scenario
