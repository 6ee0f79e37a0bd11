// Unit tests for the multi-tenant traffic engine: arrival processes and
// their determinism, the bounded admission queue's shed policies, closed-
// loop concurrency, and the end-to-end proportional-share behavior the
// engine exists to exercise.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "faults/fault_injector.h"
#include "hw/cluster.h"
#include "pathways/pathways.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace pw::workload {
namespace {

using pathways::Client;
using pathways::PathwaysOptions;
using pathways::PathwaysProgram;
using pathways::PathwaysRuntime;
using pathways::ProgramBuilder;
using pathways::SchedulerPolicy;
using xlasim::CompiledFunction;

struct World {
  explicit World(int hosts = 1, int devices_per_host = 2,
                 PathwaysOptions options = {}) {
    hw::SystemParams params = hw::SystemParams::TpuDefault();
    params.host_jitter_frac = 0;  // deterministic timing in unit tests
    cluster = std::make_unique<hw::Cluster>(&sim, params, /*islands=*/1,
                                            hosts, devices_per_host);
    runtime = std::make_unique<PathwaysRuntime>(cluster.get(), options);
  }

  // A client plus a single-node program over `shards` devices.
  struct Tenant {
    Client* client;
    std::unique_ptr<PathwaysProgram> program;
  };
  Tenant MakeTenant(int shards, double weight = 1.0,
                    Duration step = Duration::Micros(100)) {
    Client* client = runtime->CreateClient(weight);
    auto slice = client->AllocateSlice(shards).value();
    ProgramBuilder pb("work");
    pb.Call(CompiledFunction::Synthetic("step", shards, step), slice, {});
    return Tenant{client,
                  std::make_unique<PathwaysProgram>(std::move(pb).Build())};
  }

  sim::Simulator sim;
  std::unique_ptr<hw::Cluster> cluster;
  std::unique_ptr<PathwaysRuntime> runtime;
};

// ------------------------------------------------------ Arrival processes --

TEST(OpenLoopGeneratorTest, PoissonArrivalCountTracksRate) {
  World w;
  auto t = w.MakeTenant(2);
  OpenLoopSpec spec;
  spec.rate_per_sec = 2000;
  spec.horizon = Duration::Millis(100);  // expect ~200 arrivals
  spec.seed = 7;
  AdmissionOptions adm;
  adm.capacity = 64;
  OpenLoopGenerator gen(t.client, t.program.get(), spec, adm);
  gen.Start();
  w.sim.Run();
  EXPECT_GT(gen.arrivals_generated(), 140);
  EXPECT_LT(gen.arrivals_generated(), 260);
  EXPECT_EQ(gen.arrivals_generated(), gen.recorder().arrivals());
  EXPECT_GT(gen.recorder().completions(), 0);
  EXPECT_TRUE(gen.queue().drained());
}

TEST(OpenLoopGeneratorTest, BurstProcessKeepsMeanRateButQueues) {
  auto run = [](ArrivalProcess process) {
    World w;
    auto t = w.MakeTenant(2);
    OpenLoopSpec spec;
    spec.process = process;
    spec.rate_per_sec = 2000;
    spec.burst_size = 8;
    spec.burst_gap = Duration::Micros(10);
    spec.horizon = Duration::Millis(100);
    spec.seed = 11;
    AdmissionOptions adm;
    adm.capacity = 32;
    OpenLoopGenerator gen(t.client, t.program.get(), spec, adm);
    gen.Start();
    w.sim.Run();
    // Deepest arrival-observed queue depth.
    int deepest = 0;
    const Histogram& h = gen.recorder().queue_depth();
    for (int b = 0; b < h.num_buckets(); ++b) {
      if (h.bucket_count(b) > 0) deepest = b;
    }
    return std::make_pair(gen.arrivals_generated(), deepest);
  };
  const auto [poisson_n, poisson_depth] = run(ArrivalProcess::kPoisson);
  const auto [burst_n, burst_depth] = run(ArrivalProcess::kBurst);
  // Same mean rate (wider bounds than Poisson: whole bursts land or miss)...
  EXPECT_GT(burst_n, 110);
  EXPECT_LT(burst_n, 290);
  (void)poisson_n;
  // ...but bursts pile arrivals into the queue much deeper.
  EXPECT_GE(burst_depth, 6);
  EXPECT_LT(poisson_depth, burst_depth);
}

TEST(OpenLoopGeneratorTest, SameSeedIsBitReproducible) {
  auto run = [] {
    World w;
    auto t = w.MakeTenant(2);
    OpenLoopSpec spec;
    spec.rate_per_sec = 3000;
    spec.horizon = Duration::Millis(50);
    spec.seed = 42;
    AdmissionOptions adm;
    adm.capacity = 8;
    OpenLoopGenerator gen(t.client, t.program.get(), spec, adm);
    gen.Start();
    w.sim.Run();
    return std::make_tuple(w.sim.now().nanos(), w.sim.events_executed(),
                           gen.arrivals_generated(),
                           gen.recorder().completions(),
                           gen.recorder().sheds(),
                           gen.recorder().LatencyUs(50),
                           gen.recorder().LatencyUs(99));
  };
  EXPECT_EQ(run(), run());
}

TEST(OpenLoopGeneratorTest, DifferentSeedsProduceDifferentTraces) {
  auto run = [](std::uint64_t seed) {
    World w;
    auto t = w.MakeTenant(2);
    OpenLoopSpec spec;
    spec.rate_per_sec = 3000;
    spec.horizon = Duration::Millis(50);
    spec.seed = seed;
    OpenLoopGenerator gen(t.client, t.program.get(), spec, {});
    gen.Start();
    w.sim.Run();
    return std::make_pair(w.sim.now().nanos(), gen.recorder().LatencyUs(50));
  };
  EXPECT_NE(run(1), run(2));
}

// -------------------------------------------------------- Admission queue --

TEST(AdmissionQueueTest, DropTailShedsOverflowAndBooksConsistently) {
  World w;
  auto t = w.MakeTenant(2, 1.0, Duration::Millis(1));  // slow service
  OpenLoopSpec spec;
  spec.rate_per_sec = 5000;  // far beyond ~1k/s service
  spec.horizon = Duration::Millis(20);
  spec.seed = 3;
  AdmissionOptions adm;
  adm.capacity = 4;
  adm.max_outstanding = 1;
  adm.policy = ShedPolicy::kDropTail;
  OpenLoopGenerator gen(t.client, t.program.get(), spec, adm);
  gen.Start();
  w.sim.Run();
  const LatencyRecorder& r = gen.recorder();
  EXPECT_GT(r.sheds(), 0);
  EXPECT_GT(r.completions(), 0);
  EXPECT_EQ(r.failures(), 0);
  EXPECT_EQ(r.admission_retries(), 0);  // drop-tail never defers
  // Every arrival either completed or was shed; the queue fully drained.
  EXPECT_TRUE(gen.queue().drained());
  EXPECT_EQ(r.arrivals(), r.completions() + r.sheds());
  // Arrival-sampled depth never exceeds capacity, and under this overload
  // the typical arrival finds a non-empty queue.
  EXPECT_EQ(gen.recorder().queue_depth().overflow(), 0);
  EXPECT_GT(gen.recorder().MeanQueueDepth(), 0.0);
  EXPECT_LE(gen.recorder().MeanQueueDepth(), 4.0);
}

TEST(AdmissionQueueTest, RejectWithRetryDefersThenShedsOnBudget) {
  World w;
  auto t = w.MakeTenant(2, 1.0, Duration::Millis(1));
  OpenLoopSpec spec;
  spec.rate_per_sec = 5000;
  spec.horizon = Duration::Millis(20);
  spec.seed = 3;
  AdmissionOptions adm;
  adm.capacity = 4;
  adm.max_outstanding = 1;
  adm.policy = ShedPolicy::kRejectWithRetry;
  adm.retry.max_attempts = 3;
  adm.retry.initial_backoff = Duration::Micros(100);
  OpenLoopGenerator gen(t.client, t.program.get(), spec, adm);
  gen.Start();
  w.sim.Run();
  const LatencyRecorder& r = gen.recorder();
  EXPECT_GT(r.admission_retries(), 0);
  EXPECT_GT(r.sheds(), 0);  // budget of 3 offers exhausts under overload
  EXPECT_TRUE(gen.queue().drained());
  EXPECT_EQ(r.arrivals(), r.completions() + r.sheds());
}

TEST(AdmissionQueueTest, ReofferBackoffIsCappedForLargeBudgets) {
  // A pathological retry policy (60 offers, 10x multiplier) must not
  // overflow: every re-offer waits at most max_backoff, so the run ends in
  // bounded simulated time. Pre-cap, the uncapped pow() product overflowed
  // Duration and aborted inside Simulator::Schedule.
  World w;
  auto t = w.MakeTenant(2, 1.0, Duration::Millis(1));
  OpenLoopSpec spec;
  spec.rate_per_sec = 5000;
  spec.horizon = Duration::Millis(10);
  spec.seed = 5;
  AdmissionOptions adm;
  adm.capacity = 2;
  adm.max_outstanding = 1;
  adm.policy = ShedPolicy::kRejectWithRetry;
  adm.retry.max_attempts = 60;
  adm.retry.multiplier = 10.0;
  adm.retry.initial_backoff = Duration::Micros(50);
  adm.retry.max_backoff = Duration::Millis(2);
  OpenLoopGenerator gen(t.client, t.program.get(), spec, adm);
  gen.Start();
  w.sim.Run();
  EXPECT_TRUE(gen.queue().drained());
  // 60 offers x 2ms cap bounds any request's admission wait to ~120ms.
  EXPECT_LT(w.sim.now().ToMillis(), 200.0);
  EXPECT_EQ(gen.recorder().arrivals(),
            gen.recorder().completions() + gen.recorder().sheds());
}

// ------------------------------------------------------------ Closed loop --

TEST(ClosedLoopGeneratorTest, MaintainsFixedConcurrencyThenDrains) {
  World w;
  auto t = w.MakeTenant(2);
  ClosedLoopSpec spec;
  spec.concurrency = 3;
  spec.horizon = Duration::Millis(20);
  ClosedLoopGenerator gen(t.client, t.program.get(), spec);
  gen.Start();
  EXPECT_EQ(gen.in_flight(), 3);
  // Mid-run the loop is still exactly `concurrency` wide.
  w.sim.RunUntil(TimePoint() + Duration::Millis(10));
  EXPECT_EQ(gen.in_flight(), 3);
  w.sim.Run();
  EXPECT_EQ(gen.in_flight(), 0);
  const LatencyRecorder& r = gen.recorder();
  EXPECT_GT(r.completions(), 10);
  EXPECT_EQ(r.arrivals(), r.completions());
  EXPECT_EQ(r.sheds(), 0);
}

// ------------------------------------------- Faults under open-loop load --

TEST(WorkloadFaultTest, OpenLoopTrafficRidesThroughDeviceCrash) {
  // A crash-with-recovery under open-loop load: with retry_executions the
  // generator's requests resubmit after the abort and the run ends with
  // zero failed requests.
  World w(/*hosts=*/2, /*devices_per_host=*/4);  // 8 devices, 4 spares
  auto t = w.MakeTenant(4);
  OpenLoopSpec spec;
  spec.rate_per_sec = 2000;
  spec.horizon = Duration::Millis(20);
  spec.seed = 9;
  AdmissionOptions adm;
  adm.capacity = 32;
  adm.retry_executions = true;
  adm.retry.max_attempts = 6;
  adm.retry.initial_backoff = Duration::Micros(100);
  OpenLoopGenerator gen(t.client, t.program.get(), spec, adm);

  faults::FaultPlan plan;
  plan.CrashDevice(w.cluster->device(0).id(), TimePoint() + Duration::Millis(5),
                   /*down_for=*/Duration::Millis(4));
  faults::FaultInjector injector(w.cluster.get(), w.runtime.get(), plan);
  injector.Arm();

  gen.Start();
  w.sim.Run();
  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_TRUE(gen.queue().drained());
  EXPECT_GT(gen.recorder().completions(), 0);
  EXPECT_EQ(gen.recorder().failures(), 0);
  EXPECT_GT(t.client->retries(), 0);  // the crash really did hit the run
}

// --------------------------------------------- Proportional share, end-to-end --

TEST(WorkloadFairnessTest, OverloadedOpenLoopFollowsStrideWeights) {
  PathwaysOptions options;
  options.policy = SchedulerPolicy::kWeightedStride;
  options.max_inflight_gangs = 2;
  World w(/*hosts=*/2, /*devices_per_host=*/2, options);
  auto a = w.MakeTenant(4, /*weight=*/1.0, Duration::Micros(300));
  auto b = w.MakeTenant(4, /*weight=*/3.0, Duration::Micros(300));

  auto make_gen = [&](World::Tenant& t, std::uint64_t seed) {
    OpenLoopSpec spec;
    spec.rate_per_sec = 6000;  // both far beyond fair share => backlogged
    spec.horizon = Duration::Millis(60);
    spec.seed = seed;
    AdmissionOptions adm;
    adm.capacity = 32;
    // The dispatch window must exceed the island's inflight cap, or each
    // tenant's throughput is limited by its own submit round-trip and the
    // stride policy never has a contended backlog to arbitrate.
    adm.max_outstanding = 6;
    return std::make_unique<OpenLoopGenerator>(t.client, t.program.get(),
                                               spec, adm);
  };
  auto ga = make_gen(a, 21);
  auto gb = make_gen(b, 22);
  ga->Start();
  gb->Start();

  // Measure goodput over [10ms, 60ms): skip the fill-up transient.
  std::int64_t base_a = 0, base_b = 0;
  w.sim.ScheduleAt(TimePoint() + Duration::Millis(10), [&] {
    base_a = ga->recorder().completions();
    base_b = gb->recorder().completions();
  });
  w.sim.RunUntil(TimePoint() + Duration::Millis(60));

  const double got_a =
      static_cast<double>(ga->recorder().completions() - base_a);
  const double got_b =
      static_cast<double>(gb->recorder().completions() - base_b);
  // Arrivals stopped at the horizon; drain the backlog so no execution is
  // torn down mid-flight (the dataflow graph of an in-flight execution
  // holds reference cycles that only completion unwinds).
  w.sim.Run();
  ASSERT_GT(got_a, 0);
  const double ratio = got_b / got_a;
  EXPECT_GT(ratio, 2.2) << "weight-3 tenant should complete ~3x the work";
  EXPECT_LT(ratio, 3.8);

  // The scheduler's per-client accounting sees the same story: the
  // weight-3 tenant dispatched ~3x the gangs, and both backlogged tenants
  // accumulated real scheduler-queue wait.
  const auto stats_a = w.runtime->SchedStatsFor(a.client->id());
  const auto stats_b = w.runtime->SchedStatsFor(b.client->id());
  EXPECT_GT(stats_b.gangs_dispatched, 2 * stats_a.gangs_dispatched);
  EXPECT_GT(stats_a.queue_wait.nanos(), 0);
  EXPECT_GT(stats_b.queue_wait.nanos(), 0);
}

TEST(LatencyRecorderTest, FullQueueDepthSampleIsCountedNotDropped) {
  // Regression: an arrival that finds the waiting queue full observes
  // depth == capacity — the signature sample of the overloaded regime
  // multitenant scenario measures. It must land in its own histogram bucket
  // (not overflow, not one bucket low via the old fraction-of-range index
  // math) and be reflected by MeanQueueDepth.
  for (std::size_t capacity : {4u, 21u, 64u}) {
    LatencyRecorder r(capacity);
    r.OnArrival(capacity);  // full queue
    const Histogram& h = r.queue_depth();
    EXPECT_EQ(h.overflow(), 0) << "capacity=" << capacity;
    EXPECT_EQ(h.bucket_count(static_cast<int>(capacity)), 1)
        << "capacity=" << capacity;
    EXPECT_DOUBLE_EQ(r.MeanQueueDepth(), static_cast<double>(capacity));
  }
  // The interior depth that the old index math misplaced (15/22*22 < 15).
  LatencyRecorder r(21);
  r.OnArrival(15);
  EXPECT_EQ(r.queue_depth().bucket_count(15), 1);
  EXPECT_EQ(r.queue_depth().bucket_count(14), 0);
  EXPECT_DOUBLE_EQ(r.MeanQueueDepth(), 15.0);
}

}  // namespace
}  // namespace pw::workload
