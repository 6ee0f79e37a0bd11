// Multi-tenant serving: several clients share one pod under the gang
// scheduler with proportional-share weights (paper §5.2, Figs. 8/9).
//
// Three clients with weights 1 / 2 / 4 run continuous inference-style
// programs; the example prints each client's achieved device-time share
// against its weight's target, and the pod's utilization.
//
//   $ ./examples/multi_tenant
#include <cstdio>
#include <memory>
#include <vector>

#include "hw/cluster.h"
#include "pathways/pathways.h"
#include "xlasim/compiled_function.h"

int main() {
  using namespace pw;
  using namespace pw::pathways;

  sim::Simulator sim;
  auto cluster = hw::Cluster::ConfigB(&sim, /*hosts=*/2);  // 16 TPUs
  cluster->EnableTrace();  // the shares and utilization read kernel spans
  PathwaysOptions options;
  options.policy = SchedulerPolicy::kWeightedStride;
  options.max_inflight_gangs = 2;
  PathwaysRuntime runtime(cluster.get(), options);

  const std::vector<double> weights = {1, 2, 4};
  struct Loop {
    Client* client;
    PathwaysProgram* prog;
    PathwaysRuntime* rt;
    std::int64_t served = 0;
    void Go() {
      client->Run(prog).Then([this](const ExecutionResult& r) {
        ++served;
        for (const auto& out : r.outputs) rt->object_store().Release(out.id);
        Go();
      });
    }
  };
  std::vector<std::unique_ptr<PathwaysProgram>> programs;
  std::vector<std::unique_ptr<Loop>> loops;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    Client* client = runtime.CreateClient(weights[i]);
    auto slice = client->AllocateSlice(cluster->num_devices()).value();
    // An inference "batch": matmul-heavy kernel with a gather collective.
    ProgramBuilder pb("serve" + std::to_string(i));
    pb.Call(xlasim::CompiledFunction::Synthetic(
                "infer", cluster->num_devices(), Duration::Micros(400),
                net::CollectiveKind::kAllGather, KiB(64)),
            slice, {});
    programs.push_back(std::make_unique<PathwaysProgram>(std::move(pb).Build()));
    // Four programs in flight per client keep its scheduler queue non-empty
    // so the stride policy can express the weights.
    for (int k = 0; k < 4; ++k) {
      loops.push_back(std::make_unique<Loop>(
          Loop{client, programs.back().get(), &runtime}));
      loops.back()->Go();
    }
  }

  sim.RunUntil(TimePoint() + Duration::Millis(60));

  const TimePoint t0 = TimePoint() + Duration::Millis(10);
  const TimePoint t1 = TimePoint() + Duration::Millis(60);
  auto busy = cluster->trace().BusyPerClient(t0, t1);
  double total = 0;
  for (const auto& [c, d] : busy) total += d.ToSeconds();
  std::printf("%8s %8s %14s %10s %10s\n", "client", "weight", "batches",
              "share", "target");
  double wsum = 0;
  for (double w : weights) wsum += w;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    std::int64_t served = 0;
    for (int k = 0; k < 4; ++k) {
      served += loops[4 * i + static_cast<std::size_t>(k)]->served;
    }
    std::printf("%8zu %8.0f %14lld %9.1f%% %9.1f%%\n", i, weights[i],
                static_cast<long long>(served),
                100.0 * busy[static_cast<std::int64_t>(i)].ToSeconds() / total,
                100.0 * weights[i] / wsum);
  }
  std::printf("\npod utilization: %.1f%%\n",
              100.0 * cluster->trace().MeanUtilization(t0, t1));
  return 0;
}
