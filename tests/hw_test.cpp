#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "hw/collective_group.h"
#include "hw/device.h"
#include "hw/hbm.h"
#include "hw/host.h"
#include "hw/system_params.h"
#include "sim/simulator.h"

namespace pw::hw {
namespace {

// ------------------------------------------------------------------- HBM --

TEST(HbmTest, AllocateAndFree) {
  sim::Simulator sim;
  HbmAllocator hbm(&sim, 1000);
  EXPECT_TRUE(hbm.Allocate(600).ok());
  EXPECT_EQ(hbm.used(), 600);
  EXPECT_FALSE(hbm.Allocate(500).ok());  // would overcommit
  hbm.Free(600);
  EXPECT_TRUE(hbm.Allocate(500).ok());
  EXPECT_EQ(hbm.peak_used(), 600);
}

TEST(HbmTest, AsyncBackPressure) {
  sim::Simulator sim;
  HbmAllocator hbm(&sim, 1000);
  ASSERT_TRUE(hbm.Allocate(900).ok());
  auto fut = hbm.AllocateAsync(500);
  sim.Run();
  EXPECT_FALSE(fut.ready());  // stalled: back-pressure
  EXPECT_EQ(hbm.waiters(), 1u);
  hbm.Free(900);
  sim.Run();
  EXPECT_TRUE(fut.ready());
  EXPECT_EQ(hbm.used(), 500);
}

TEST(HbmTest, WaitersServedFifoNoStarvation) {
  sim::Simulator sim;
  HbmAllocator hbm(&sim, 1000);
  ASSERT_TRUE(hbm.Allocate(1000).ok());
  auto big = hbm.AllocateAsync(800);    // first in line
  auto small = hbm.AllocateAsync(100);  // fits earlier, but must not jump
  hbm.Free(500);
  sim.Run();
  EXPECT_FALSE(big.ready());
  EXPECT_FALSE(small.ready());  // FIFO: blocked behind big
  hbm.Free(500);
  sim.Run();
  EXPECT_TRUE(big.ready());
  EXPECT_TRUE(small.ready());
}

TEST(HbmTest, ImmediateAllocateRespectsQueue) {
  sim::Simulator sim;
  HbmAllocator hbm(&sim, 1000);
  ASSERT_TRUE(hbm.Allocate(900).ok());
  auto waiting = hbm.AllocateAsync(200);
  // Even though 100 bytes are free, immediate allocation must fail while
  // earlier waiters queue (fairness).
  EXPECT_FALSE(hbm.Allocate(50).ok());
  hbm.Free(900);
  sim.Run();
  EXPECT_TRUE(waiting.ready());
  EXPECT_TRUE(hbm.Allocate(50).ok());
}

TEST(HbmTest, ZeroByteRequestNeverQueues) {
  // An empty shard needs no capacity and can relieve none by waiting; on a
  // full device with waiters it must be granted on the spot or drain paths
  // (in-order executor enqueue streams gated on per-shard reservations)
  // deadlock behind pressure a 0-byte grant cannot relieve.
  sim::Simulator sim;
  HbmAllocator hbm(&sim, 1000);
  ASSERT_TRUE(hbm.Allocate(1000).ok());     // device full
  auto stalled = hbm.AllocateAsync(400);    // real back-pressure
  ASSERT_EQ(hbm.waiters(), 1u);
  auto empty = hbm.AllocateAsync(0);
  EXPECT_TRUE(empty.ready());               // granted immediately, no queue
  EXPECT_EQ(hbm.waiters(), 1u);
  EXPECT_TRUE(hbm.Allocate(0).ok());        // immediate flavor too
  sim.Run();
  EXPECT_FALSE(stalled.ready());
  EXPECT_EQ(hbm.used(), 1000);
}

TEST(HbmTest, WaitersServedInTicketOrder) {
  // Reservation ordering (docs/MEMORY.md): waiters are served oldest global
  // ticket first regardless of arrival order, so an older execution's shard
  // cannot park behind a younger one that would then circular-wait on it.
  sim::Simulator sim;
  HbmAllocator hbm(&sim, 1000);
  ASSERT_TRUE(hbm.Allocate(1000).ok());
  auto young = hbm.AllocateAsync(600, /*ticket=*/7);
  auto old_req = hbm.AllocateAsync(600, /*ticket=*/3);
  EXPECT_EQ(hbm.front_waiter_ticket(), 3u);
  hbm.Free(1000);
  sim.Run();
  EXPECT_TRUE(old_req.ready());   // served first despite arriving second
  EXPECT_FALSE(young.ready());    // strict order: no overtaking
  hbm.Free(600);
  sim.Run();
  EXPECT_TRUE(young.ready());
}

TEST(HbmTest, NewOldestRequestIsServedPastQueuedYoungerWaiters) {
  sim::Simulator sim;
  HbmAllocator hbm(&sim, 1000);
  ASSERT_TRUE(hbm.Allocate(800).ok());
  auto young = hbm.AllocateAsync(500, /*ticket=*/9);  // stalls (300 free)
  ASSERT_FALSE(young.ready());
  // An older request that fits must not park behind the younger waiter —
  // that inversion is exactly how cross-device reservation cycles form.
  auto old_req = hbm.AllocateAsync(200, /*ticket=*/2);
  EXPECT_TRUE(old_req.ready());
  EXPECT_FALSE(young.ready());
}

TEST(HbmTest, StallObserverFiresOnQueueAndOnUndrainableFree) {
  sim::Simulator sim;
  HbmAllocator hbm(&sim, 1000);
  int stalls = 0;
  hbm.set_stall_observer([&stalls] { ++stalls; });
  ASSERT_TRUE(hbm.Allocate(900).ok());
  auto waiting = hbm.AllocateAsync(500);
  EXPECT_EQ(stalls, 1);  // queued
  hbm.Free(100);         // 200 free: still cannot serve the waiter
  EXPECT_EQ(stalls, 2);
  hbm.Free(800);
  sim.Run();
  EXPECT_TRUE(waiting.ready());
  EXPECT_EQ(stalls, 2);  // a draining free does not re-notify
  EXPECT_EQ(hbm.used(), 500);
}

TEST(HbmTest, OnAdmitRunsSynchronouslyAtGrant) {
  sim::Simulator sim;
  HbmAllocator hbm(&sim, 1000);
  bool admitted = false;
  auto fut = hbm.AllocateAsync(300, kUnticketed, [&admitted] { admitted = true; });
  EXPECT_TRUE(admitted);  // before any event runs
  EXPECT_TRUE(fut.ready());
  ASSERT_TRUE(hbm.Allocate(700).ok());
  bool admitted2 = false;
  auto queued = hbm.AllocateAsync(100, kUnticketed, [&admitted2] { admitted2 = true; });
  EXPECT_FALSE(admitted2);
  hbm.Free(300);  // grant happens inside Free
  EXPECT_TRUE(admitted2);
  sim.Run();
  EXPECT_TRUE(queued.ready());
}

// ------------------------------------------------------- CollectiveGroup --

TEST(CollectiveGroupTest, CompletesAtLastArrivalPlusCommTime) {
  sim::Simulator sim;
  net::CollectiveParams p;
  p.hop_latency = Duration::Micros(1);
  p.launch_overhead = Duration::Zero();
  p.topology = net::LatencyTopology::kTree;
  net::CollectiveModel model(p);
  CollectiveGroup group(&sim, &model, net::CollectiveKind::kAllReduce, 2);
  std::vector<double> done_us;
  sim.Schedule(Duration::Micros(10), [&] {
    group.Arrive(4).Then([&](const sim::Unit&) { done_us.push_back(sim.now().ToMicros()); });
  });
  sim.Schedule(Duration::Micros(50), [&] {
    group.Arrive(4).Then([&](const sim::Unit&) { done_us.push_back(sim.now().ToMicros()); });
  });
  sim.Run();
  // Tree all-reduce over 2: 2 hops of 1us after the last arrival at t=50.
  ASSERT_EQ(done_us.size(), 2u);
  EXPECT_DOUBLE_EQ(done_us[0], 52.0);
  EXPECT_DOUBLE_EQ(done_us[1], 52.0);
}

TEST(CollectiveGroupTest, StalledUntilAllArrive) {
  sim::Simulator sim;
  net::CollectiveModel model;
  CollectiveGroup group(&sim, &model, net::CollectiveKind::kAllReduce, 3);
  group.Arrive(4);
  group.Arrive(4);
  sim.Run();
  EXPECT_TRUE(group.stalled());
  EXPECT_FALSE(group.complete());
  group.Arrive(4);
  sim.Run();
  EXPECT_TRUE(group.complete());
  EXPECT_FALSE(group.stalled());
}

// ---------------------------------------------------------------- Device --

KernelDesc SimpleKernel(Duration d, std::string label = "k") {
  KernelDesc k;
  k.label = std::move(label);
  k.pre_time = d;
  return k;
}

TEST(DeviceTest, ExecutesKernelsInFifoOrder) {
  sim::Simulator sim;
  Device dev(&sim, DeviceId(0), IslandId(0), GiB(16), Duration::Zero());
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    auto fut = dev.Enqueue(SimpleKernel(Duration::Micros(10)));
    fut.Then([&order, i](const sim::Unit&) { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(dev.kernels_completed(), 3);
  EXPECT_DOUBLE_EQ(dev.busy_time().ToMicros(), 30.0);
}

TEST(DeviceTest, LaunchOverheadCharged) {
  sim::Simulator sim;
  Device dev(&sim, DeviceId(0), IslandId(0), GiB(16), Duration::Micros(3));
  double done = 0;
  dev.Enqueue(SimpleKernel(Duration::Micros(10))).Then([&](const sim::Unit&) {
    done = sim.now().ToMicros();
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(done, 13.0);
}

TEST(DeviceTest, KernelGatesOnInputFutures) {
  sim::Simulator sim;
  Device dev(&sim, DeviceId(0), IslandId(0), GiB(16), Duration::Zero());
  sim::SimPromise<sim::Unit> input(&sim);
  KernelDesc k = SimpleKernel(Duration::Micros(5));
  k.inputs.push_back(input.future());
  double done = 0;
  dev.Enqueue(std::move(k)).Then([&](const sim::Unit&) { done = sim.now().ToMicros(); });
  sim.Schedule(Duration::Micros(100), [&] { input.Set(sim::Unit{}); });
  sim.Run();
  EXPECT_DOUBLE_EQ(done, 105.0);
}

TEST(DeviceTest, BlockedOnInputsReportsDeadlock) {
  sim::Simulator sim;
  Device dev(&sim, DeviceId(7), IslandId(0), GiB(16), Duration::Zero());
  sim::SimPromise<sim::Unit> never(&sim);
  KernelDesc k = SimpleKernel(Duration::Micros(5));
  k.inputs.push_back(never.future());
  dev.Enqueue(std::move(k));
  sim.Run();
  EXPECT_TRUE(sim.Deadlocked());
  ASSERT_EQ(sim.BlockedEntities().size(), 1u);
  EXPECT_NE(sim.BlockedEntities()[0].find("dev7"), std::string::npos);
}

TEST(DeviceTest, CollectiveAcrossTwoDevices) {
  sim::Simulator sim;
  net::CollectiveModel model;
  Device d0(&sim, DeviceId(0), IslandId(0), GiB(16), Duration::Zero());
  Device d1(&sim, DeviceId(1), IslandId(0), GiB(16), Duration::Zero());
  auto group = std::make_shared<CollectiveGroup>(&sim, &model,
                                                 net::CollectiveKind::kAllReduce, 2);
  KernelDesc k0 = SimpleKernel(Duration::Micros(10), "ar");
  k0.collective = group;
  k0.collective_bytes = 4;
  KernelDesc k1 = SimpleKernel(Duration::Micros(30), "ar");
  k1.collective = group;
  k1.collective_bytes = 4;
  int done = 0;
  d0.Enqueue(std::move(k0)).Then([&](const sim::Unit&) { ++done; });
  d1.Enqueue(std::move(k1)).Then([&](const sim::Unit&) { ++done; });
  sim.Run();
  EXPECT_EQ(done, 2);
  EXPECT_FALSE(sim.Deadlocked());
  // d0 arrived at t=10 but completed only after d1 arrived at t=30.
  EXPECT_GE(d0.busy_time().ToMicros(), 30.0);
}

TEST(DeviceTest, InconsistentCollectiveOrderDeadlocks) {
  // The paper's §2 motivation: program A and program B each run a collective
  // over {dev0, dev1}. dev0's stream has [A, B]; dev1's has [B, A]. Both
  // devices park at different rendezvous — classic gang-scheduling deadlock.
  sim::Simulator sim;
  net::CollectiveModel model;
  Device d0(&sim, DeviceId(0), IslandId(0), GiB(16), Duration::Zero());
  Device d1(&sim, DeviceId(1), IslandId(0), GiB(16), Duration::Zero());
  auto groupA = std::make_shared<CollectiveGroup>(
      &sim, &model, net::CollectiveKind::kAllReduce, 2, "A");
  auto groupB = std::make_shared<CollectiveGroup>(
      &sim, &model, net::CollectiveKind::kAllReduce, 2, "B");
  auto mk = [](std::shared_ptr<CollectiveGroup> g) {
    KernelDesc k;
    k.pre_time = Duration::Micros(1);
    k.collective = std::move(g);
    k.collective_bytes = 4;
    return k;
  };
  d0.Enqueue(mk(groupA));
  d0.Enqueue(mk(groupB));
  d1.Enqueue(mk(groupB));  // reversed order
  d1.Enqueue(mk(groupA));
  sim.Run();
  EXPECT_TRUE(sim.Deadlocked());
  EXPECT_EQ(sim.BlockedEntities().size(), 2u);
  EXPECT_EQ(d0.kernels_completed(), 0);
  EXPECT_EQ(d1.kernels_completed(), 0);
}

TEST(DeviceTest, ConsistentCollectiveOrderCompletes) {
  sim::Simulator sim;
  net::CollectiveModel model;
  Device d0(&sim, DeviceId(0), IslandId(0), GiB(16), Duration::Zero());
  Device d1(&sim, DeviceId(1), IslandId(0), GiB(16), Duration::Zero());
  auto groupA = std::make_shared<CollectiveGroup>(
      &sim, &model, net::CollectiveKind::kAllReduce, 2, "A");
  auto groupB = std::make_shared<CollectiveGroup>(
      &sim, &model, net::CollectiveKind::kAllReduce, 2, "B");
  auto mk = [](std::shared_ptr<CollectiveGroup> g) {
    KernelDesc k;
    k.pre_time = Duration::Micros(1);
    k.collective = std::move(g);
    k.collective_bytes = 4;
    return k;
  };
  d0.Enqueue(mk(groupA));
  d0.Enqueue(mk(groupB));
  d1.Enqueue(mk(groupA));  // same order: gang-scheduled
  d1.Enqueue(mk(groupB));
  sim.Run();
  EXPECT_FALSE(sim.Deadlocked());
  EXPECT_EQ(d0.kernels_completed(), 2);
  EXPECT_EQ(d1.kernels_completed(), 2);
}

TEST(DeviceTest, TraceSpansRecorded) {
  sim::Simulator sim;
  sim::TraceRecorder trace;
  Device dev(&sim, DeviceId(3), IslandId(0), GiB(16), Duration::Zero());
  dev.set_trace(&trace);
  KernelDesc k = SimpleKernel(Duration::Micros(10), "step");
  k.client = 5;
  dev.Enqueue(std::move(k));
  sim.Run();
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].resource, "dev3");
  EXPECT_EQ(trace.spans()[0].client, 5);
  EXPECT_EQ(trace.spans()[0].label, "step");
}

// ------------------------------------------------------------------ Host --

TEST(HostTest, DispatchKernelPaysCpuAndPcie) {
  sim::Simulator sim;
  SystemParams params;
  params.pcie_latency = Duration::Micros(2);
  params.kernel_launch_overhead = Duration::Zero();
  net::DcnFabric dcn(&sim, params.dcn);
  Host host(&sim, HostId(0), params, &dcn);
  Device dev(&sim, DeviceId(0), IslandId(0), GiB(16), Duration::Zero());
  host.AttachDevice(&dev);
  double done = 0;
  host.DispatchKernel(&dev, SimpleKernel(Duration::Micros(100)), Duration::Micros(10))
      .Then([&](const sim::Unit&) { done = sim.now().ToMicros(); });
  sim.Run();
  // 10us CPU + ~0.016us PCIe serialization of a 256B descriptor + 2us PCIe
  // latency + 100us kernel.
  EXPECT_NEAR(done, 112.0, 0.1);
}

TEST(HostTest, CpuWorkSerializes) {
  sim::Simulator sim;
  SystemParams params;
  net::DcnFabric dcn(&sim, params.dcn);
  Host host(&sim, HostId(0), params, &dcn);
  std::vector<double> at;
  host.RunOnCpu(Duration::Micros(10), [&] { at.push_back(sim.now().ToMicros()); });
  host.RunOnCpu(Duration::Micros(10), [&] { at.push_back(sim.now().ToMicros()); });
  sim.Run();
  EXPECT_EQ(at, (std::vector<double>{10, 20}));
}

TEST(HostTest, DcnSendBetweenHosts) {
  sim::Simulator sim;
  SystemParams params;
  net::DcnFabric dcn(&sim, params.dcn);
  Host h0(&sim, HostId(0), params, &dcn);
  Host h1(&sim, HostId(1), params, &dcn);
  double arrival = 0;
  h0.SendDcn(h1.id(), 1024, [&] { arrival = sim.now().ToMicros(); });
  sim.Run();
  EXPECT_GT(arrival, params.dcn.latency.ToMicros());
  EXPECT_LT(arrival, params.dcn.latency.ToMicros() + 5.0);
}

// --------------------------------------------------------------- Cluster --

TEST(ClusterTest, ConfigAShape) {
  sim::Simulator sim;
  auto cluster = Cluster::ConfigA(&sim, /*hosts=*/8);
  EXPECT_EQ(cluster->num_islands(), 1);
  EXPECT_EQ(cluster->num_hosts(), 8);
  EXPECT_EQ(cluster->num_devices(), 32);  // 4 TPUs per host
  EXPECT_EQ(cluster->island(0).devices().size(), 32u);
}

TEST(ClusterTest, ConfigBShape) {
  sim::Simulator sim;
  auto cluster = Cluster::ConfigB(&sim, /*hosts=*/64);
  EXPECT_EQ(cluster->num_devices(), 512);  // 8 TPUs per host
}

TEST(ClusterTest, ConfigCShape) {
  sim::Simulator sim;
  auto cluster = Cluster::ConfigC(&sim);
  EXPECT_EQ(cluster->num_islands(), 4);
  EXPECT_EQ(cluster->num_hosts(), 16);
  EXPECT_EQ(cluster->num_devices(), 128);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster->island(i).devices().size(), 32u);
  }
}

TEST(ClusterTest, GpuVmShape) {
  sim::Simulator sim;
  auto cluster = Cluster::GpuVm(&sim, 16);
  EXPECT_EQ(cluster->num_islands(), 16);
  EXPECT_EQ(cluster->num_devices(), 16);
}

TEST(ClusterTest, HostOfMapsDevicesToOwners) {
  sim::Simulator sim;
  auto cluster = Cluster::ConfigA(&sim, 4);
  // Devices 0..3 on host 0, 4..7 on host 1, ...
  EXPECT_EQ(cluster->host_of(DeviceId(0)).id(), HostId(0));
  EXPECT_EQ(cluster->host_of(DeviceId(5)).id(), HostId(1));
  EXPECT_EQ(cluster->host_of(DeviceId(15)).id(), HostId(3));
}

TEST(ClusterTest, IciTransferWithinIsland) {
  sim::Simulator sim;
  auto cluster = Cluster::ConfigA(&sim, 2);
  auto fut = cluster->island(0).Transfer(DeviceId(0), DeviceId(7), MiB(64));
  sim.Run();
  EXPECT_TRUE(fut.ready());
  // 64 MiB at 100 GB/s ~ 0.67 ms + 1.5us latency.
  EXPECT_NEAR(sim.now().ToMillis(), 0.67, 0.05);
  EXPECT_EQ(cluster->island(0).ici_bytes_transferred(), MiB(64));
}

TEST(ClusterTest, IslandOfResolvesIslandMembership) {
  sim::Simulator sim;
  auto cluster = Cluster::ConfigC(&sim);
  EXPECT_EQ(cluster->island_of(DeviceId(0)).id(), IslandId(0));
  EXPECT_EQ(cluster->island_of(DeviceId(127)).id(), IslandId(3));
}

// A completed kernel as its own completion future saw it.
struct Completion {
  std::int64_t device;
  std::int64_t client;
  std::string label;
  TimePoint end;
};

struct TracedRun {
  std::vector<Completion> completions;  // in completion order
  std::vector<sim::TraceSpan> spans;
  std::vector<Duration> busy;  // per device
  std::int64_t events = 0;
};

// Four devices each run three kernels; device 1's last kernel also waits on
// device 0's first, so the run crosses devices.
TracedRun RunSmallProgram(bool enable_trace) {
  sim::Simulator sim;
  auto cluster = Cluster::ConfigA(&sim, /*hosts=*/1);
  if (enable_trace) cluster->EnableTrace();
  TracedRun run;
  sim::SimFuture<sim::Unit> first_on_dev0;
  for (int k = 0; k < 3; ++k) {
    for (int d = 0; d < cluster->num_devices(); ++d) {
      KernelDesc desc = SimpleKernel(Duration::Micros(5 * (d + 1) + k),
                                     "k" + std::to_string(k));
      desc.client = d % 2;
      if (d == 1 && k == 2) desc.inputs.push_back(first_on_dev0);
      Completion c{d, desc.client, desc.label, TimePoint()};
      auto done = cluster->device(d).Enqueue(std::move(desc));
      if (d == 0 && k == 0) first_on_dev0 = done;
      done.Then([&run, &sim, c](const sim::Unit&) mutable {
        c.end = sim.now();
        run.completions.push_back(std::move(c));
      });
    }
  }
  sim.Run();
  run.spans = cluster->trace().spans();
  for (int d = 0; d < cluster->num_devices(); ++d) {
    run.busy.push_back(cluster->device(d).busy_time());
  }
  run.events = sim.events_executed();
  return run;
}

TEST(ClusterTest, NoSpansUnlessTraceEnabled) {
  const TracedRun off = RunSmallProgram(/*enable_trace=*/false);
  const TracedRun on = RunSmallProgram(/*enable_trace=*/true);
  EXPECT_TRUE(off.spans.empty());
  ASSERT_EQ(off.completions.size(), 12u);

  // Tracing observes the run without perturbing it.
  EXPECT_EQ(on.events, off.events);
  ASSERT_EQ(on.completions.size(), off.completions.size());
  for (std::size_t i = 0; i < off.completions.size(); ++i) {
    EXPECT_EQ(on.completions[i].device, off.completions[i].device) << i;
    EXPECT_EQ(on.completions[i].end, off.completions[i].end) << i;
  }

  // One span per completed kernel, in completion order, ending when the
  // kernel's future fired; per device the spans add up to its busy time.
  ASSERT_EQ(on.spans.size(), on.completions.size());
  std::vector<Duration> span_busy(on.busy.size(), Duration::Zero());
  for (std::size_t i = 0; i < on.spans.size(); ++i) {
    const sim::TraceSpan& s = on.spans[i];
    const Completion& c = on.completions[i];
    EXPECT_EQ(s.resource, "dev" + std::to_string(c.device)) << i;
    EXPECT_EQ(s.client, c.client) << i;
    EXPECT_EQ(s.label, c.label) << i;
    EXPECT_EQ(s.end, c.end) << i;
    EXPECT_LT(s.start, s.end) << i;
    span_busy[static_cast<std::size_t>(c.device)] += s.end - s.start;
  }
  EXPECT_EQ(span_busy, on.busy);
  EXPECT_EQ(on.busy, off.busy);
}

}  // namespace
}  // namespace pw::hw
