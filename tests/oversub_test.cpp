// Memory-oversubscription coverage (docs/MEMORY.md).
//
// Two deadlock classes, each with its fix:
//
//  * Cross-device buffer-lifetime cycle: two 2-device chain programs visit
//    the devices in opposite order, HBM sized so neither program's buffers
//    fit beside the other's. Each program's first node fills one device and
//    its second node parks behind the other's output — which only frees
//    when ITS consumer runs. Broken by the spiller: the blocking outputs
//    are idle (content-ready, unpinned), migrate to host DRAM, and are
//    read through from there when their consumers finally run.
//
//  * Reservation-order inversion: client staging races the gang pipeline
//    into two devices' queues in opposite orders (the staging request
//    lands on device B before the gang's but on device A after it) and
//    the two circular-wait. Broken by scheduler-consistent tickets: gangs
//    draw a global ticket at dispatch, staged buffers at creation, and
//    waiters are served strictly in ticket order.
//
// A lifetime cycle neither fix can break — two buffers whose shards are not
// yet content-ready, each holding one device and reserving the other — is
// built through the ObjectStore API to prove a real wedge is *reported*
// rather than drained silently: blocked probes name the stalled executions,
// the wait-for graph renders the cycle, and CheckNoReservationWedge
// PW_CHECKs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "pathways/pathways.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "xlasim/compiled_function.h"

namespace pw {
namespace {

using pathways::Client;
using pathways::ClientId;
using pathways::ExecutionId;
using pathways::ExecutionResult;
using pathways::PathwaysOptions;
using pathways::PathwaysProgram;
using pathways::PathwaysRuntime;
using pathways::ProgramBuilder;
using pathways::ShardedBuffer;
using pathways::ShardResidency;
using pathways::ValueRef;
using xlasim::CompiledFunction;

// Function with an explicit memory footprint (Synthetic ties input ==
// output, which is too coarse here).
CompiledFunction Fn(const std::string& name, int shards, Bytes input,
                    Bytes output, Duration compute = Duration::Micros(100)) {
  CompiledFunction f;
  f.name = name;
  f.num_shards = shards;
  f.pre_collective_time = compute;
  f.input_bytes_per_shard = input;
  f.output_bytes_per_shard = output;
  return f;
}

// ------------------------------------------- cross-device lifetime cycle --

struct OppositeOrderWorld {
  // 1 island, 1 host, 2 devices; HBM fits exactly one 8 MiB output. Two
  // *clients* so the programs stream descriptors concurrently — a single
  // client serializes its submissions enough that the programs run
  // back-to-back and never contend.
  OppositeOrderWorld() {
    hw::SystemParams params;
    params.hbm_capacity = MiB(8);
    cluster = std::make_unique<hw::Cluster>(&sim, params, /*islands=*/1,
                                            /*hosts_per_island=*/1,
                                            /*devices_per_host=*/2);
    runtime = std::make_unique<PathwaysRuntime>(cluster.get(),
                                                PathwaysOptions{});
    client_p = runtime->CreateClient();
    client_q = runtime->CreateClient();
    pathways::VirtualSlice p_first = client_p->AllocateSlice(1).value();
    pathways::VirtualSlice p_second = client_p->AllocateSlice(1).value();
    pathways::VirtualSlice q_first = client_q->AllocateSlice(1).value();
    pathways::VirtualSlice q_second = client_q->AllocateSlice(1).value();
    // Least-loaded allocation hands out dev0, dev1, dev0, dev1 — so P's
    // chain visits dev0 then dev1 while Q's visits dev1 then dev0 (Q calls
    // its slices in reverse). Outputs are 8 MiB (a full device); staging
    // is zero, so the only capacity the programs fight over is the outputs
    // themselves — which cannot free until their consumers run.
    const CompiledFunction fn = Fn("stage", 1, /*input=*/0, /*output=*/MiB(8));
    ProgramBuilder pb("P");
    ValueRef p0 = pb.Call(fn, p_first, {});
    pb.Result(pb.Call(fn, p_second, {p0}));
    prog_p = std::make_unique<PathwaysProgram>(std::move(pb).Build());
    ProgramBuilder qb("Q");
    ValueRef q0 = qb.Call(fn, q_second, {});
    qb.Result(qb.Call(fn, q_first, {q0}));
    prog_q = std::make_unique<PathwaysProgram>(std::move(qb).Build());
  }

  void SubmitBoth() {
    client_p->Submit(prog_p.get(),
                     [this](const ExecutionResult& r) { done += !r.failed; });
    client_q->Submit(prog_q.get(),
                     [this](const ExecutionResult& r) { done += !r.failed; });
  }

  sim::Simulator sim;
  std::unique_ptr<hw::Cluster> cluster;
  std::unique_ptr<PathwaysRuntime> runtime;
  Client* client_p = nullptr;
  Client* client_q = nullptr;
  std::unique_ptr<PathwaysProgram> prog_p, prog_q;
  int done = 0;
};

TEST(OversubscriptionTest, CrossDeviceOppositeOrderCompletesViaSpilling) {
  OppositeOrderWorld w;
  w.SubmitBoth();
  w.sim.Run();
  EXPECT_EQ(w.done, 2);
  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_TRUE(w.sim.BlockedEntities().empty());
  w.runtime->object_store().CheckNoReservationWedge();  // must not die
  EXPECT_EQ(w.runtime->executions_completed(), 2);
  // The blocking outputs took the spill path (and were read through).
  EXPECT_GE(w.runtime->object_store().spills_completed(), 1);
  // Everything released: both devices and both DRAM pools fully free.
  EXPECT_EQ(w.runtime->object_store().hbm_used(w.cluster->device(0).id()), 0);
  EXPECT_EQ(w.runtime->object_store().hbm_used(w.cluster->device(1).id()), 0);
  EXPECT_EQ(w.cluster->host(0).dram().used(), 0);
}

// Two gangs' deferred outputs, each holding one device of an HBM that fits
// exactly one 8 MiB shard and reserving the other. Ticket order cannot help
// (each waiter is blocked by memory already granted, not by a queue
// position), and the spiller cannot either: neither shard is content-ready,
// so neither is idle. Nothing ever frees; the run must be *reported* as a
// deadlock with both executions named, not drain silently. Built through the
// public ObjectStore API, since reservation ordering and spilling are always
// on.
struct CrossReservedWedge {
  CrossReservedWedge() {
    hw::SystemParams params;
    params.hbm_capacity = MiB(8);
    cluster = std::make_unique<hw::Cluster>(&sim, params, /*islands=*/1,
                                            /*hosts_per_island=*/1,
                                            /*devices_per_host=*/2);
    runtime = std::make_unique<PathwaysRuntime>(cluster.get(),
                                                PathwaysOptions{});
    pathways::ObjectStore& store = runtime->object_store();
    dev0 = cluster->device(0).id();
    dev1 = cluster->device(1).id();
    for (int e = 0; e < 2; ++e) {
      // Execution e's output: shard 0 on device e, shard 1 on the other.
      const std::vector<hw::DeviceId> devices =
          e == 0 ? std::vector{dev0, dev1} : std::vector{dev1, dev0};
      ShardedBuffer out = store.CreateBufferDeferred(
          ClientId(0), ExecutionId(e), devices, MiB(8));
      const hw::MemoryTicket ticket = store.NextTicket();
      store.RegisterTicket(ticket, e, pathways::ObjectStore::TicketKind::kExec,
                           e);
      store.SetBufferTicket(out.id, ticket);
      outputs.push_back(std::move(out));
    }
    for (const ShardedBuffer& out : outputs) store.ReserveShard(out.id, 0);
    for (const ShardedBuffer& out : outputs) store.ReserveShard(out.id, 1);
    sim.Run();
  }

  pathways::ObjectStore& store() { return runtime->object_store(); }

  sim::Simulator sim;
  std::unique_ptr<hw::Cluster> cluster;
  std::unique_ptr<PathwaysRuntime> runtime;
  hw::DeviceId dev0, dev1;
  std::vector<ShardedBuffer> outputs;
};

// Named for the pre-fix build, whose opposite-order programs wedged the same
// way before reservation ordering and spilling existed.
TEST(OversubscriptionTest, PreFixConfigurationWedgesWithNamedExecutions) {
  CrossReservedWedge w;
  ASSERT_TRUE(w.sim.Deadlocked());
  // Both devices report a stalled reservation, with waiter and holders
  // named — the BlockedEntities evidence trail, extended to memory.
  int hbm_reports = 0;
  for (const std::string& b : w.sim.BlockedEntities()) {
    if (b.find("HBM") == std::string::npos) continue;
    ++hbm_reports;
    EXPECT_NE(b.find("exec"), std::string::npos) << b;
    EXPECT_NE(b.find("stalled reservation"), std::string::npos) << b;
  }
  EXPECT_EQ(hbm_reports, 2);
  // The wait-for graph pins the cycle: exec 0 -> exec 1 -> exec 0.
  const std::string cycle = w.store().DescribeReservationCycle();
  EXPECT_NE(cycle.find("exec 0"), std::string::npos) << cycle;
  EXPECT_NE(cycle.find("exec 1"), std::string::npos) << cycle;
  // Releasing both buffers frees the granted shards and hands the queued
  // grants back as they land.
  for (const ShardedBuffer& out : w.outputs) w.store().Release(out.id);
  w.sim.Run();
  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_EQ(w.store().live_buffers(), 0);
  EXPECT_EQ(w.store().hbm_used(w.dev0), 0);
  EXPECT_EQ(w.store().hbm_used(w.dev1), 0);
}

TEST(OversubscriptionDeathTest, WedgeCheckDiesNamingTheCycle) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  CrossReservedWedge w;
  ASSERT_TRUE(w.sim.Deadlocked());
  EXPECT_DEATH(w.store().CheckNoReservationWedge(),
               "HBM reservation wedge.*exec");
  // Unwind so the wedge's buffers do not outlive the test.
  for (const ShardedBuffer& out : w.outputs) w.store().Release(out.id);
  w.sim.Run();
  EXPECT_EQ(w.store().live_buffers(), 0);
}

// ------------------------------------------- reservation-order inversion --

// Staging vs gang race on two devices: the gang's reservation lands on
// device A before the staging request but on device B after it. Served in
// arrival order the two would circular-wait (gang holds A waiting B,
// staging holds B waiting A); served in ticket order the gang — dispatched
// first, so globally older — wins device B too, completes, and unblocks
// staging. Nothing involved is content-ready while the requests queue, so
// no spill can stand in for the ordering fix; the test asserts as much.
TEST(ReservationOrderingTest, TicketOrderResolvesStagingInversion) {
  sim::Simulator sim;
  hw::SystemParams params;
  params.hbm_capacity = MiB(8);
  auto cluster = std::make_unique<hw::Cluster>(&sim, params, 1, 1, 2);
  PathwaysRuntime runtime(cluster.get(), PathwaysOptions{});
  Client* client = runtime.CreateClient();
  auto slice = client->AllocateSlice(2).value();
  pathways::ObjectStore& store = runtime.object_store();

  // Transient occupancy on B so the staging request has to queue there.
  ShardedBuffer transient = store.CreateBuffer(
      ClientId(99), ExecutionId(), {cluster->device(1).id()}, MiB(4));

  // One 2-shard gang (8 MiB output per shard, zero staging) over {A, B}.
  ProgramBuilder pb("gang");
  pb.Result(pb.Call(Fn("gang", 2, 0, MiB(8)), slice, {}));
  PathwaysProgram prog = std::move(pb).Build();
  int program_done = 0;
  client->Submit(&prog, [&program_done](const ExecutionResult& r) {
    program_done += !r.failed;
  });

  // Let the gang's A-shard reservation land (granted; A is now full) but
  // stop before its B-shard request arrives...
  const bool a_granted = sim.RunUntilPredicate([&] {
    return cluster->device(0).hbm().used() == MiB(8) &&
           cluster->device(1).hbm().waiters() == 0;
  });
  EXPECT_TRUE(a_granted);
  // ...and stage an 8 MiB buffer across both devices in that window: its
  // request queues on B *ahead* of the gang's, on A *behind* it — the
  // inconsistent per-device order that FIFO service turns into a cycle.
  ShardedBuffer staged = client->TransferToDevice(slice, MiB(8));
  const bool both_queued = sim.RunUntilPredicate(
      [&] { return cluster->device(1).hbm().waiters() == 2; });
  EXPECT_TRUE(both_queued);
  store.Release(transient.id);  // B's capacity frees: who gets it?
  sim.Run();

  EXPECT_EQ(program_done, 1);
  EXPECT_TRUE(staged.ready.ready());
  EXPECT_FALSE(sim.Deadlocked());
  EXPECT_EQ(store.DescribeReservationCycle(), "");
  EXPECT_EQ(store.spills_completed(), 0);
  client->ReleaseBuffer(staged);
  sim.Run();
}

// --------------------------------------------------------------- spilling --

struct SpillWorld {
  explicit SpillWorld(Bytes hbm = MiB(20)) {
    hw::SystemParams params;
    params.hbm_capacity = hbm;
    cluster = std::make_unique<hw::Cluster>(&sim, params, 1, 1, 1);
    runtime = std::make_unique<PathwaysRuntime>(cluster.get(),
                                                PathwaysOptions{});
    client = runtime->CreateClient();
    slice = client->AllocateSlice(1).value();
  }

  hw::DeviceId dev() { return cluster->device(0).id(); }
  memory::DramAllocator& dram() { return cluster->host(0).dram(); }
  pathways::ObjectStore& store() { return runtime->object_store(); }

  PathwaysProgram MakeBig() {
    ProgramBuilder pb("big");
    pb.Result(pb.Call(Fn("big", 1, 0, MiB(16)), slice, {}));
    return std::move(pb).Build();
  }
  PathwaysProgram MakeUse() {
    ProgramBuilder pb("use");
    ValueRef arg = pb.Argument();
    pb.Result(pb.Call(Fn("use", 1, MiB(6), MiB(6)), slice, {arg}));
    return std::move(pb).Build();
  }

  sim::Simulator sim;
  std::unique_ptr<hw::Cluster> cluster;
  std::unique_ptr<PathwaysRuntime> runtime;
  Client* client = nullptr;
  pathways::VirtualSlice slice;
};

TEST(SpillTest, ColdStagedBufferSpillsUnderPressureAndPagesBackOnUse) {
  SpillWorld w;  // 20 MiB HBM
  // Stage 6 MiB of "weights"; once landed they are cold (no reader active).
  ShardedBuffer weights = w.client->TransferToDevice(w.slice, MiB(6));
  w.sim.Run();
  ASSERT_TRUE(weights.ready.ready());
  EXPECT_EQ(w.store().hbm_used(w.dev()), MiB(6));

  // A 16 MiB allocation cannot fit beside them: back-pressure stalls it,
  // the spiller migrates the cold weights to host DRAM, and the program
  // completes — §4.6 made survivable instead of merely non-deadlocking.
  PathwaysProgram big = w.MakeBig();
  int done = 0;
  w.client->Submit(&big, [&done](const ExecutionResult& r) { done += !r.failed; });
  w.sim.Run();
  EXPECT_EQ(done, 1);
  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_GE(w.store().spills_completed(), 1);
  EXPECT_TRUE(w.store().ShardInDram(weights.id, 0));
  EXPECT_EQ(w.dram().used(), MiB(6));
  EXPECT_EQ(w.store().hbm_used(w.dev()), 0);  // big's output released

  // Binding the spilled weights as a program argument pages them back in
  // (the read-through to their own device doubles as a restore) before the
  // kernel consumes them.
  PathwaysProgram use = w.MakeUse();
  auto result = w.client->Run(&use, {weights});
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_FALSE(result.value().failed);
  EXPECT_EQ(w.store().fills_completed(), 1);
  EXPECT_FALSE(w.store().ShardInDram(weights.id, 0));
  EXPECT_EQ(w.dram().used(), 0);

  for (const auto& out : result.value().outputs) w.store().Release(out.id);
  w.client->ReleaseBuffer(weights);
  EXPECT_EQ(w.store().hbm_used(w.dev()), 0);
  EXPECT_EQ(w.dram().used(), 0);
}

TEST(SpillTest, VictimSelectionIsLruByLastUse) {
  SpillWorld w(MiB(22));  // 16 MiB + both 4 MiB buffers don't fit; one must go
  ShardedBuffer older = w.client->TransferToDevice(w.slice, MiB(4));
  w.sim.Run();  // `older` lands first...
  ShardedBuffer newer = w.client->TransferToDevice(w.slice, MiB(4));
  w.sim.Run();  // ...and `newer` strictly later.
  // 16 MiB needs one eviction (8 free): the LRU victim must be `older`.
  PathwaysProgram big = w.MakeBig();
  int done = 0;
  w.client->Submit(&big, [&done](const ExecutionResult& r) { done += !r.failed; });
  w.sim.Run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(w.store().spills_completed(), 1);
  EXPECT_TRUE(w.store().ShardInDram(older.id, 0));
  EXPECT_FALSE(w.store().ShardInDram(newer.id, 0));
  w.client->ReleaseBuffer(older);
  w.client->ReleaseBuffer(newer);
  EXPECT_EQ(w.dram().used(), 0);
  EXPECT_EQ(w.store().hbm_used(w.dev()), 0);
}

// ------------------------------------------------- spill-under-fault paths --

TEST(SpillFaultTest, DeviceCrashWhileShardsSpilledAbortsCleanlyFreesDram) {
  SpillWorld w;
  ShardedBuffer weights = w.client->TransferToDevice(w.slice, MiB(6));
  w.sim.Run();
  PathwaysProgram big = w.MakeBig();
  w.client->Submit(&big, nullptr);
  w.sim.Run();
  ASSERT_TRUE(w.store().ShardInDram(weights.id, 0));

  // Crash the device while the weights sit in DRAM and a consumer program
  // is submitted against them: the execution aborts cleanly; the spilled
  // (client-owned) weights survive in DRAM until released.
  PathwaysProgram use = w.MakeUse();
  auto result = w.client->Run(&use, {weights});
  w.cluster->device(0).Fail();
  w.runtime->AbortExecutionsUsing(w.dev());
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().failed);
  EXPECT_EQ(w.runtime->executions_aborted(), 1);
  EXPECT_EQ(w.dram().used(), MiB(6));  // spilled data intact post-abort
  w.client->ReleaseBuffer(weights);
  w.sim.Run();
  EXPECT_EQ(w.dram().used(), 0);
  EXPECT_EQ(w.store().hbm_used(w.dev()), 0);
  EXPECT_EQ(w.store().live_buffers(), 0);
}

TEST(SpillFaultTest, ReleaseDuringSpillOutReturnsBothSides) {
  SpillWorld w;
  ShardedBuffer weights = w.client->TransferToDevice(w.slice, MiB(6));
  w.sim.Run();
  PathwaysProgram big = w.MakeBig();
  int done = 0;
  w.client->Submit(&big, [&done](const ExecutionResult& r) { done += !r.failed; });
  ASSERT_TRUE(w.sim.RunUntilPredicate([&] {
    return w.store().shard_residency(weights.id, 0) ==
           ShardResidency::kSpillingOut;
  }));
  w.client->ReleaseBuffer(weights);  // dies mid-migration
  w.sim.Run();
  EXPECT_EQ(done, 1);  // the stalled program still gets the freed capacity
  EXPECT_EQ(w.dram().used(), 0);
  EXPECT_EQ(w.store().hbm_used(w.dev()), 0);
  EXPECT_EQ(w.store().live_buffers(), 0);
}

// ------------------------------------------------------------ determinism --

struct SpillScenarioOutcome {
  std::int64_t events = 0;
  std::int64_t final_now_ns = 0;
  std::int64_t spills = 0;
  std::int64_t fills = 0;
  std::uint64_t trace_hash = 0;
};

SpillScenarioOutcome RunSpillScenario() {
  SpillWorld w;
  w.cluster->EnableTrace();
  ShardedBuffer weights = w.client->TransferToDevice(w.slice, MiB(6));
  w.sim.Run();
  PathwaysProgram big = w.MakeBig();
  w.client->Submit(&big, nullptr);
  w.sim.Run();
  PathwaysProgram use = w.MakeUse();
  auto result = w.client->Run(&use, {weights});
  w.sim.Run();
  SpillScenarioOutcome out;
  out.events = w.sim.events_executed();
  out.final_now_ns = w.sim.now().nanos();
  out.spills = w.store().spills_completed();
  out.fills = w.store().fills_completed();
  // FNV-1a over the device-kernel trace: spill/fill timing shifts kernel
  // start times, so any nondeterminism in the spill path lands here.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(v >> (8 * i));
      h *= 0x100000001b3ULL;
    }
  };
  for (const sim::TraceSpan& s : w.cluster->trace().spans()) {
    mix(static_cast<std::int64_t>(s.label.size()));
    mix(s.start.nanos());
    mix(s.end.nanos());
  }
  out.trace_hash = h;
  return out;
}

// Golden values for the spill/fill scenario (captured from this build; the
// run-twice test distinguishes "new platform moved libm by an ulp" from
// real nondeterminism, same protocol as tests/sim_determinism_test.cpp).
constexpr std::int64_t kSpillGoldenEvents = 54;
constexpr std::int64_t kSpillGoldenFinalNowNs = 1593576;
constexpr std::uint64_t kSpillGoldenTraceHash = 0xfc4068884b5a9016ULL;

TEST(SpillDeterminismTest, TwoRunsAreBitIdentical) {
  const SpillScenarioOutcome a = RunSpillScenario();
  const SpillScenarioOutcome b = RunSpillScenario();
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_now_ns, b.final_now_ns);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_GE(a.spills, 1);
  EXPECT_EQ(a.fills, 1);
}

TEST(SpillDeterminismTest, MatchesRecordedGolden) {
  const SpillScenarioOutcome out = RunSpillScenario();
  EXPECT_EQ(out.events, kSpillGoldenEvents)
      << "events=" << out.events << " now=" << out.final_now_ns << " hash=0x"
      << std::hex << out.trace_hash;
  EXPECT_EQ(out.final_now_ns, kSpillGoldenFinalNowNs);
  EXPECT_EQ(out.trace_hash, kSpillGoldenTraceHash)
      << "actual hash=0x" << std::hex << out.trace_hash;
}

}  // namespace
}  // namespace pw
