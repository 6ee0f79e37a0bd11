// Open-loop multi-tenant serving with the workload traffic engine.
//
// Three tenants share one 16-core pod under the weighted-stride gang
// scheduler (weights 1 / 2 / 4). Tenant 0 sends smooth Poisson traffic,
// tenant 1 sends the same mean rate in bursts of 8, and tenant 2 is a
// closed loop of 4 synchronous callers. Offered load exceeds capacity, so
// the bounded admission queues shed; the run prints each tenant's goodput
// share next to its weight fraction, latency percentiles, and shed counts.
//
//   $ ./examples/open_loop_serving
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "pathways/pathways.h"
#include "workload/workload.h"
#include "xlasim/compiled_function.h"

int main() {
  using namespace pw;
  using namespace pw::pathways;
  using namespace pw::workload;

  sim::Simulator sim;
  auto cluster = hw::Cluster::ConfigB(&sim, /*hosts=*/2);  // 16 TPUs
  cluster->EnableTrace();  // the utilization line reads the kernel spans
  PathwaysOptions options;
  options.policy = SchedulerPolicy::kWeightedStride;
  options.max_inflight_gangs = 2;
  PathwaysRuntime runtime(cluster.get(), options);

  const std::vector<double> weights = {1, 2, 4};
  const int shards = cluster->num_devices();
  const Duration horizon = Duration::Millis(120);

  std::vector<std::unique_ptr<PathwaysProgram>> programs;
  std::vector<Client*> clients;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    Client* client = runtime.CreateClient(weights[i]);
    auto slice = client->AllocateSlice(shards).value();
    ProgramBuilder pb("serve" + std::to_string(i));
    pb.Call(xlasim::CompiledFunction::Synthetic(
                "infer", shards, Duration::Micros(400),
                net::CollectiveKind::kAllGather, KiB(64)),
            slice, {});
    programs.push_back(std::make_unique<PathwaysProgram>(std::move(pb).Build()));
    clients.push_back(client);
  }

  AdmissionOptions admission;
  admission.capacity = 32;
  admission.max_outstanding = 2;
  admission.policy = ShedPolicy::kDropTail;

  // Tenant 0: smooth Poisson open loop, well past its fair share.
  OpenLoopSpec poisson;
  poisson.process = ArrivalProcess::kPoisson;
  poisson.rate_per_sec = 2000;
  poisson.horizon = horizon;
  poisson.seed = 1;
  OpenLoopGenerator t0(clients[0], programs[0].get(), poisson, admission);

  // Tenant 1: same mean rate, arriving in bursts of 8.
  OpenLoopSpec bursty = poisson;
  bursty.process = ArrivalProcess::kBurst;
  bursty.burst_size = 8;
  bursty.burst_gap = Duration::Micros(20);
  bursty.seed = 2;
  OpenLoopGenerator t1(clients[1], programs[1].get(), bursty, admission);

  // Tenant 2: four synchronous callers in a closed loop.
  ClosedLoopSpec closed;
  closed.concurrency = 4;
  closed.horizon = horizon;
  ClosedLoopGenerator t2(clients[2], programs[2].get(), closed);

  t0.Start();
  t1.Start();
  t2.Start();
  sim.Run();  // arrivals stop at the horizon, then the queues drain

  LatencyRecorder* recorders[] = {&t0.recorder(), &t1.recorder(),
                                  &t2.recorder()};
  const char* kinds[] = {"poisson", "burst", "closed(4)"};
  double wsum = 0, total = 0;
  for (double w : weights) wsum += w;
  for (auto* r : recorders) total += static_cast<double>(r->completions());

  std::printf("%7s %10s %8s %8s %8s %9s %9s %9s %7s\n", "tenant", "traffic",
              "weight", "share", "target", "p50(us)", "p99(us)", "served",
              "shed");
  for (std::size_t i = 0; i < weights.size(); ++i) {
    LatencyRecorder& r = *recorders[i];
    std::printf("%7zu %10s %8.0f %7.1f%% %7.1f%% %9.0f %9.0f %9lld %7lld\n",
                i, kinds[i], weights[i],
                100.0 * static_cast<double>(r.completions()) / total,
                100.0 * weights[i] / wsum, r.LatencyUs(50), r.LatencyUs(99),
                static_cast<long long>(r.completions()),
                static_cast<long long>(r.sheds()));
  }
  std::printf("\npod utilization: %.1f%%   stride pass rebases: %lld   "
              "deadlocked: %s\n",
              100.0 * cluster->trace().MeanUtilization(
                          TimePoint(), TimePoint() + horizon),
              static_cast<long long>(runtime.total_pass_rebases()),
              sim.Deadlocked() ? "yes" : "no");
  return sim.Deadlocked() ? 1 : 0;
}
