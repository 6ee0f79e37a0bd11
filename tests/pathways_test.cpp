#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "pathways/pathways.h"
#include "sim/simulator.h"

namespace pw::pathways {
namespace {

using xlasim::CompiledFunction;

struct World {
  explicit World(int hosts = 4, int devices_per_host = 2, int islands = 1,
                 PathwaysOptions options = {},
                 hw::SystemParams params = hw::SystemParams::TpuDefault()) {
    params.host_jitter_frac = 0;  // deterministic timing in unit tests
    cluster = std::make_unique<hw::Cluster>(&sim, params, islands, hosts,
                                            devices_per_host);
    runtime = std::make_unique<PathwaysRuntime>(cluster.get(), options);
  }

  sim::Simulator sim;
  std::unique_ptr<hw::Cluster> cluster;
  std::unique_ptr<PathwaysRuntime> runtime;
};

// -------------------------------------------------------- ResourceManager --

TEST(ResourceManagerTest, AllocatesLeastLoadedDevices) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  auto s1 = rm.AllocateSlice(ClientId(0), 4);
  ASSERT_TRUE(s1.ok());
  auto s2 = rm.AllocateSlice(ClientId(0), 4);
  ASSERT_TRUE(s2.ok());
  // 8 devices total: the two slices must not share devices.
  for (const auto& v1 : s1->devices) {
    for (const auto& v2 : s2->devices) {
      EXPECT_NE(rm.Lookup(v1.id), rm.Lookup(v2.id));
    }
  }
}

TEST(ResourceManagerTest, OversizedSliceFails) {
  World w(/*hosts=*/2, /*devices_per_host=*/2);
  auto s = w.runtime->resource_manager().AllocateSlice(ClientId(0), 5);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceManagerTest, IslandConstraintHonored) {
  World w(/*hosts=*/2, /*devices_per_host=*/2, /*islands=*/3);
  auto s = w.runtime->resource_manager().AllocateSlice(ClientId(0), 2,
                                                       hw::IslandId(2));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->island, hw::IslandId(2));
  for (const auto& v : s->devices) {
    EXPECT_EQ(w.cluster->device(
                  w.runtime->resource_manager().Lookup(v.id)).island(),
              hw::IslandId(2));
  }
}

TEST(ResourceManagerTest, PicksEmptiestIslandByDefault) {
  World w(2, 2, /*islands=*/2);
  ResourceManager& rm = w.runtime->resource_manager();
  auto s1 = rm.AllocateSlice(ClientId(0), 3);
  ASSERT_TRUE(s1.ok());
  auto s2 = rm.AllocateSlice(ClientId(0), 3);
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(s1->island, s2->island);
}

TEST(ResourceManagerTest, ReleaseSliceFreesLoad) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  auto s = rm.AllocateSlice(ClientId(0), 8);
  ASSERT_TRUE(s.ok());
  rm.ReleaseSlice(*s);
  for (int d = 0; d < w.cluster->num_devices(); ++d) {
    EXPECT_EQ(rm.load(w.cluster->device(d).id()), 0);
  }
}

TEST(ResourceManagerTest, RemoveDeviceRemapsVirtualDevices) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  auto s = rm.AllocateSlice(ClientId(0), 2);
  ASSERT_TRUE(s.ok());
  const hw::DeviceId before = rm.Lookup(s->devices[0].id);
  ASSERT_TRUE(rm.RemoveDevice(before).ok());
  const hw::DeviceId after = rm.Lookup(s->devices[0].id);
  EXPECT_NE(before, after);
  EXPECT_EQ(rm.num_available_devices(), w.cluster->num_devices() - 1);
  ASSERT_TRUE(rm.AddDevice(before).ok());
  EXPECT_EQ(rm.num_available_devices(), w.cluster->num_devices());
}

TEST(ResourceManagerTest, RemoveTwiceFails) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  const hw::DeviceId dev = w.cluster->device(0).id();
  ASSERT_TRUE(rm.RemoveDevice(dev).ok());
  EXPECT_EQ(rm.RemoveDevice(dev).code(), StatusCode::kFailedPrecondition);
}

TEST(ResourceManagerTest, RemapKeepsSliceOnDistinctDevices) {
  // Shards of one slice must never share a physical device after a remap
  // (two gang members on one single-threaded device deadlock at their
  // collective), so the remap target set excludes the slice's own devices.
  World w(/*hosts=*/1, /*devices_per_host=*/3);
  ResourceManager& rm = w.runtime->resource_manager();
  auto s = rm.AllocateSlice(ClientId(0), 2);
  ASSERT_TRUE(s.ok());
  const hw::DeviceId d0 = rm.Lookup(s->devices[0].id);
  const hw::DeviceId d1 = rm.Lookup(s->devices[1].id);
  ASSERT_TRUE(rm.MarkDeviceFailed(d0).ok());
  const hw::DeviceId remapped = rm.Lookup(s->devices[0].id);
  EXPECT_NE(remapped, d0);
  EXPECT_NE(remapped, d1) << "remap collapsed two gang members onto one core";
  EXPECT_EQ(rm.vdevs_remapped(), 1);
  EXPECT_EQ(rm.vdevs_stranded(), 0);
}

TEST(ResourceManagerTest, CrashWithNoViableSpareStrandsVdev) {
  World w(/*hosts=*/1, /*devices_per_host=*/2);
  ResourceManager& rm = w.runtime->resource_manager();
  auto s = rm.AllocateSlice(ClientId(0), 2);  // slice covers the island
  ASSERT_TRUE(s.ok());
  const hw::DeviceId d0 = rm.Lookup(s->devices[0].id);
  // A crash always takes the device out of service, even with nowhere to
  // remap: the vdev stays pointed at the dead device (stranded).
  ASSERT_TRUE(rm.MarkDeviceFailed(d0).ok());
  EXPECT_FALSE(rm.in_service(d0));
  EXPECT_EQ(rm.Lookup(s->devices[0].id), d0);
  EXPECT_EQ(rm.vdevs_stranded(), 1);
  // Unlike a crash, a *drain* of the remaining device must refuse and roll
  // back (it would strand the other shard).
  const hw::DeviceId d1 = rm.Lookup(s->devices[1].id);
  EXPECT_EQ(rm.RemoveDevice(d1).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(rm.in_service(d1));
  // Recovery restores service and future allocations.
  ASSERT_TRUE(rm.MarkDeviceRecovered(d0).ok());
  EXPECT_TRUE(rm.in_service(d0));
  EXPECT_EQ(rm.num_available_devices(), 2);
}

TEST(ResourceManagerTest, MarkFailedTwiceIsFailedPrecondition) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  const hw::DeviceId dev = w.cluster->device(0).id();
  ASSERT_TRUE(rm.MarkDeviceFailed(dev).ok());
  EXPECT_EQ(rm.MarkDeviceFailed(dev).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(rm.MarkDeviceFailed(hw::DeviceId(9999)).code(),
            StatusCode::kNotFound);
}

TEST(ResourceManagerTest, ReleaseSliceAfterRemapFreesRemappedLoad) {
  World w(/*hosts=*/1, /*devices_per_host=*/3);
  ResourceManager& rm = w.runtime->resource_manager();
  auto s = rm.AllocateSlice(ClientId(0), 1);
  ASSERT_TRUE(s.ok());
  const hw::DeviceId before = rm.Lookup(s->devices[0].id);
  ASSERT_TRUE(rm.MarkDeviceFailed(before).ok());
  const hw::DeviceId after = rm.Lookup(s->devices[0].id);
  ASSERT_NE(before, after);
  rm.ReleaseSlice(*s);
  // Load accounting followed the remap: the spare's load drops to zero and
  // the dead device never went negative.
  EXPECT_EQ(rm.load(after), 0);
  EXPECT_EQ(rm.load(before), 0);
}

TEST(ResourceManagerTest, ReleaseClientDropsAllItsSlices) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  ASSERT_TRUE(rm.AllocateSlice(ClientId(7), 4).ok());
  ASSERT_TRUE(rm.AllocateSlice(ClientId(7), 2).ok());
  ASSERT_TRUE(rm.AllocateSlice(ClientId(8), 2).ok());
  rm.ReleaseClient(ClientId(7));
  int total_load = 0;
  for (int d = 0; d < w.cluster->num_devices(); ++d) {
    total_load += rm.load(w.cluster->device(d).id());
  }
  EXPECT_EQ(total_load, 2);  // only client 8's slice remains
}

// ------------------------------------------------------------ ObjectStore --

TEST(ObjectStoreTest, LogicalRefcountCoversAllShards) {
  World w;
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices;
  for (int d = 0; d < 8; ++d) devices.push_back(w.cluster->device(d).id());
  ShardedBuffer buf = store.CreateBuffer(ClientId(0), ExecutionId(), devices,
                                         MiB(100));
  w.sim.Run();
  EXPECT_TRUE(buf.ready.ready());
  EXPECT_EQ(buf.num_shards(), 8);
  EXPECT_EQ(store.hbm_used(devices[0]), MiB(100));
  store.AddRef(buf.id);
  store.Release(buf.id);
  EXPECT_TRUE(store.Contains(buf.id));  // refcount was 2
  store.Release(buf.id);
  EXPECT_FALSE(store.Contains(buf.id));
  EXPECT_EQ(store.hbm_used(devices[0]), 0);
}

TEST(ObjectStoreTest, GarbageCollectsFailedClientsBuffers) {
  World w;
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id()};
  store.CreateBuffer(ClientId(1), ExecutionId(), devices, MiB(10));
  store.CreateBuffer(ClientId(1), ExecutionId(), devices, MiB(20));
  ShardedBuffer keep = store.CreateBuffer(ClientId(2), ExecutionId(), devices, MiB(5));
  w.sim.Run();
  EXPECT_EQ(w.runtime->FailClient(ClientId(1)), 2);
  EXPECT_TRUE(store.Contains(keep.id));
  EXPECT_EQ(store.hbm_used(devices[0]), MiB(5));
}

TEST(ObjectStoreTest, DeferredBufferReservesPerShardLazily) {
  World w;
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id(),
                                    w.cluster->device(1).id()};
  ShardedBuffer buf =
      store.CreateBufferDeferred(ClientId(0), ExecutionId(5), devices, MiB(10));
  w.sim.Run();
  // Deferred: handle exists, ready immediately, but no HBM held yet.
  EXPECT_TRUE(buf.ready.ready());
  EXPECT_EQ(store.hbm_used(devices[0]), 0);
  auto r0 = store.ReserveShard(buf.id, 0);
  w.sim.Run();
  EXPECT_TRUE(r0.ready());
  EXPECT_EQ(store.hbm_used(devices[0]), MiB(10));
  EXPECT_EQ(store.hbm_used(devices[1]), 0);  // shard 1 still unreserved
  // Releasing frees only what was actually reserved.
  store.Release(buf.id);
  EXPECT_EQ(store.hbm_used(devices[0]), 0);
  EXPECT_EQ(store.hbm_used(devices[1]), 0);
}

TEST(ObjectStoreTest, ReservationGrantedAfterReleaseReturnsMemory) {
  // A deferred shard reservation that is still queued behind HBM
  // back-pressure when its buffer is released must hand the grant straight
  // back instead of leaking it.
  hw::SystemParams params;
  params.hbm_capacity = MiB(100);
  World w(1, 1, 1, {}, params);
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id()};
  ShardedBuffer hog = store.CreateBuffer(ClientId(0), ExecutionId(), devices,
                                         MiB(90));
  ShardedBuffer deferred =
      store.CreateBufferDeferred(ClientId(0), ExecutionId(7), devices, MiB(50));
  w.sim.Run();
  auto grant = store.ReserveShard(deferred.id, 0);
  w.sim.Run();
  EXPECT_FALSE(grant.ready());  // parked behind the hog
  store.Release(deferred.id);   // released while the reservation queues
  store.Release(hog.id);        // frees capacity; the stale grant fires...
  w.sim.Run();
  // ...and the memory must be back: nothing holds HBM now.
  EXPECT_EQ(store.hbm_used(devices[0]), 0);
  EXPECT_FALSE(store.Contains(deferred.id));
}

TEST(ObjectStoreTest, ReleaseAllForProducerFreesRegardlessOfRefcount) {
  World w;
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id()};
  ShardedBuffer a = store.CreateBuffer(ClientId(0), ExecutionId(3), devices,
                                       MiB(4));
  ShardedBuffer b = store.CreateBuffer(ClientId(0), ExecutionId(3), devices,
                                       MiB(8));
  ShardedBuffer other = store.CreateBuffer(ClientId(0), ExecutionId(4), devices,
                                           MiB(16));
  w.sim.Run();
  store.AddRef(a.id);  // refcount 2: an abort must still collect it
  EXPECT_EQ(store.ReleaseAllForProducer(ExecutionId(3)), 2);
  EXPECT_FALSE(store.Contains(a.id));
  EXPECT_FALSE(store.Contains(b.id));
  EXPECT_TRUE(store.Contains(other.id));
  EXPECT_EQ(store.hbm_used(devices[0]), MiB(16));
}

TEST(ObjectStoreTest, BackPressureDelaysReservation) {
  hw::SystemParams params;
  params.hbm_capacity = MiB(100);
  World w(1, 1, 1, {}, params);
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id()};
  ShardedBuffer big = store.CreateBuffer(ClientId(0), ExecutionId(), devices, MiB(80));
  ShardedBuffer blocked = store.CreateBuffer(ClientId(0), ExecutionId(), devices, MiB(50));
  w.sim.Run();
  EXPECT_TRUE(big.ready.ready());
  EXPECT_FALSE(blocked.ready.ready());  // stalled: back-pressure
  store.Release(big.id);
  w.sim.Run();
  EXPECT_TRUE(blocked.ready.ready());
}

TEST(ObjectStoreTest, ReleaseWithQueuedGrowReturnsGrant) {
  // The release's HBM free admits the grow queued on the same buffer inside
  // the free itself; that grant must go back too, not outlive the buffer.
  hw::SystemParams params;
  params.hbm_capacity = MiB(100);
  World w(1, 1, 1, {}, params);
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id()};
  ShardedBuffer buf =
      store.CreateBuffer(ClientId(0), ExecutionId(), devices, MiB(80));
  w.sim.Run();
  auto grow = store.GrowShard(buf.id, 0, MiB(50));
  w.sim.Run();
  EXPECT_FALSE(grow.ready());  // 80 + 50 MiB > 100 MiB: queued
  store.Release(buf.id);
  w.sim.Run();
  EXPECT_TRUE(grow.ready());  // vacuous grant on a released buffer
  EXPECT_EQ(store.hbm_used(devices[0]), 0);
}

// The pin count DumpShardStates reports for the store's only live shard.
int PinsOfOnlyShard(const ObjectStore& store) {
  const std::string dump = store.DumpShardStates();
  return std::stoi(dump.substr(dump.find("pins=") + 5));
}

TEST(ObjectStoreTest, ReadShardRoutes) {
  // 2 islands x 2 hosts x 2 devices: dev0/dev1 share host 0, dev2 sits on
  // host 1 of the same island, dev4 on host 2 of island 1. The shard lives
  // on dev0; each route must cost exactly the hops it names, issued
  // directly in a fresh simulator.
  constexpr Bytes kShard = MiB(60);
  constexpr Bytes kRead = MiB(8);
  hw::SystemParams params = hw::SystemParams::TpuDefault();
  params.hbm_capacity = MiB(100);
  using Callback = sim::InlineFunction<void()>;
  struct Route {
    const char* name;
    bool spilled;
    int dst;
    std::int64_t dram_reads;
    std::int64_t fills;
    // Issues the route's hops directly; fires `read` and `landed` as the
    // store should.
    std::function<void(hw::Cluster&, Callback read, Callback landed)> hops;
  };
  const std::vector<Route> routes = {
      {"dram to own device (restores)", true, 0, 1, 1,
       [](hw::Cluster& c, Callback read, Callback landed) {
         c.host(0).pcie(hw::DeviceId(0)).Transfer(
             kRead, [read = std::move(read), landed = std::move(landed)]()
                        mutable {
                      read();
                      landed();
                    });
       }},
      {"dram to same-host device", true, 1, 1, 0,
       [](hw::Cluster& c, Callback read, Callback landed) {
         c.host(0).pcie(hw::DeviceId(1)).Transfer(
             kRead, [read = std::move(read), landed = std::move(landed)]()
                        mutable {
                      read();
                      landed();
                    });
       }},
      {"dram over dcn to other host", true, 2, 1, 0,
       [](hw::Cluster& c, Callback read, Callback landed) {
         c.host(0).SendDcn(
             c.host(1).id(), kRead,
             [&c, read = std::move(read), landed = std::move(landed)]()
                 mutable {
               read();
               c.host(1).pcie(hw::DeviceId(2)).Transfer(kRead,
                                                        std::move(landed));
             });
       }},
      {"resident in place", false, 0, 0, 0,
       [](hw::Cluster&, Callback read, Callback landed) {
         read();
         landed();
       }},
      {"resident over ici", false, 1, 0, 0,
       [](hw::Cluster& c, Callback read, Callback landed) {
         c.island(0)
             .Transfer(hw::DeviceId(0), hw::DeviceId(1), kRead)
             .Then([read = std::move(read), landed = std::move(landed)](
                       const sim::Unit&) mutable {
               read();
               landed();
             });
       }},
      {"resident across islands", false, 4, 0, 0,
       [](hw::Cluster& c, Callback read, Callback landed) {
         c.host(0).pcie(hw::DeviceId(0)).Transfer(
             kRead, [&c, read = std::move(read),
                     landed = std::move(landed)]() mutable {
               read();
               c.host(0).SendDcn(
                   c.host(2).id(), kRead,
                   [&c, landed = std::move(landed)]() mutable {
                     c.host(2).pcie(hw::DeviceId(4)).Transfer(
                         kRead, std::move(landed));
                   });
             });
       }},
  };
  for (const Route& route : routes) {
    SCOPED_TRACE(route.name);
    // Reference: the route's hops alone, from t = 0.
    World ref(2, 2, 2, {}, params);
    std::int64_t ref_read_ns = -1;
    std::int64_t ref_landed_ns = -1;
    route.hops(*ref.cluster,
               [&] { ref_read_ns = ref.sim.now().nanos(); },
               [&] { ref_landed_ns = ref.sim.now().nanos(); });
    ref.sim.Run();
    ASSERT_GE(ref_landed_ns, 0);

    World w(2, 2, 2, {}, params);
    ObjectStore& store = w.runtime->object_store();
    const hw::DeviceId dev0 = w.cluster->device(0).id();
    ShardedBuffer buf = store.CreateBuffer(ClientId(0), ExecutionId(), {dev0},
                                           kShard);
    w.sim.Run();
    store.MarkShardContentReady(buf.id, 0);
    if (route.spilled) {
      // A second 60 MiB buffer cannot fit beside it: the cold shard spills.
      ShardedBuffer hog = store.CreateBuffer(ClientId(0), ExecutionId(),
                                             {dev0}, kShard);
      w.sim.Run();
      ASSERT_TRUE(hog.ready.ready());
      store.Release(hog.id);
      ASSERT_TRUE(store.ShardInDram(buf.id, 0));
    }
    const std::int64_t dram_reads = store.dram_reads();
    const std::int64_t fills = store.fills_completed();
    const std::int64_t start_ns = w.sim.now().nanos();
    std::int64_t read_ns = -1;
    std::int64_t landed_ns = -1;
    int pins_at_read = -1;
    store.PinShard(buf.id, 0);
    EXPECT_EQ(PinsOfOnlyShard(store), 1);
    store.ReadShard(
        buf.id, 0, dev0, w.cluster->device(route.dst).id(), kRead,
        [&] {
          store.UnpinShard(buf.id, 0);
          pins_at_read = PinsOfOnlyShard(store);
          read_ns = w.sim.now().nanos() - start_ns;
        },
        [&] { landed_ns = w.sim.now().nanos() - start_ns; });
    w.sim.Run();
    EXPECT_EQ(read_ns, ref_read_ns);
    EXPECT_EQ(landed_ns, ref_landed_ns);
    EXPECT_EQ(pins_at_read, 0);
    EXPECT_EQ(store.dram_reads() - dram_reads, route.dram_reads);
    EXPECT_EQ(store.fills_completed() - fills, route.fills);
    store.Release(buf.id);
  }
}

TEST(ObjectStore, TicketNamesMatchEagerLabels) {
  // Ticket labels are rendered on demand from {entity, kind, id, shard};
  // they must read exactly as the strings formatted at registration did.
  hw::SystemParams params;
  params.hbm_capacity = MiB(100);
  World w(1, 1, 1, {}, params);
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id()};
  const hw::MemoryTicket unregistered = store.NextTicket();
  ShardedBuffer staged =
      store.CreateBuffer(ClientId(0), ExecutionId(), devices, MiB(60));
  ShardedBuffer hog =
      store.CreateBuffer(ClientId(0), ExecutionId(), devices, MiB(30));
  w.sim.Run();
  const std::string id = std::to_string(staged.id.value());
  EXPECT_EQ(store.TicketName(unregistered + 1), "staged buffer " + id);

  auto grow = store.GrowShard(staged.id, 0, MiB(20));  // cannot fit: queues
  w.sim.Run();
  EXPECT_FALSE(grow.ready());
  EXPECT_EQ(store.TicketName(unregistered + 3), "grow buffer " + id + "/0");
  EXPECT_NE(store.BlockedReservationReason(devices[0])
                .find("front grow buffer " + id + "/0 wants"),
            std::string::npos)
      << store.BlockedReservationReason(devices[0]);

  const hw::MemoryTicket exec = store.NextTicket();
  store.RegisterTicket(exec, 12345, ObjectStore::TicketKind::kExec, 12345);
  EXPECT_EQ(store.TicketName(exec), "exec 12345");
  store.RegisterTicket(exec, 7, ObjectStore::TicketKind::kGrow, 7, 3);
  EXPECT_EQ(store.TicketName(exec), "grow buffer 7/3");
  store.FinishTicket(exec);
  EXPECT_EQ(store.TicketName(exec), "ticket " + std::to_string(exec));
  EXPECT_EQ(store.TicketName(unregistered),
            "ticket " + std::to_string(unregistered));
  EXPECT_EQ(store.TicketName(hw::kUnticketed), "unticketed");

  store.Release(hog.id);  // admits the grow, which retires its ticket
  w.sim.Run();
  EXPECT_TRUE(grow.ready());
  EXPECT_EQ(store.TicketName(unregistered + 3),
            "ticket " + std::to_string(unregistered + 3));
  store.Release(staged.id);
  EXPECT_EQ(store.hbm_used(devices[0]), 0);
}

// -------------------------------------------------------------- Program IR --

std::vector<int> Producers(const PathwaysProgram& prog, int node) {
  const auto p = prog.producers(node);
  return {p.begin(), p.end()};
}

TEST(ProgramTest, TracerBuildsFig2StyleDag) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  auto a = CompiledFunction::Synthetic("a", 2, Duration::Micros(10));
  auto b = CompiledFunction::Synthetic("b", 2, Duration::Micros(10));
  auto c = CompiledFunction::Synthetic("c", 2, Duration::Micros(10));

  ProgramBuilder pb("f");
  const ValueRef v = pb.Argument();
  const ValueRef x = pb.Call(a, slice, {v});
  const ValueRef y = pb.Call(b, slice, {x});
  const ValueRef z = pb.Call(a, slice, {pb.Call(c, slice, {x})});
  pb.Result(y);
  pb.Result(z);
  PathwaysProgram prog = std::move(pb).Build();

  EXPECT_EQ(prog.num_nodes(), 4);
  EXPECT_EQ(prog.num_arguments(), 1);
  EXPECT_EQ(prog.results().size(), 2u);
  // x (node 0) feeds b (node 1) and c (node 2).
  EXPECT_EQ(prog.num_consumers(0), 2);
  EXPECT_EQ(Producers(prog, 1), (std::vector<int>{0}));
  EXPECT_EQ(Producers(prog, 2), (std::vector<int>{0}));
  EXPECT_TRUE(prog.is_result(y.index));
  EXPECT_FALSE(prog.is_result(x.index));
}

TEST(ProgramTest, DefaultResultIsLastNode) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(1).value();
  auto f = CompiledFunction::Synthetic("f", 1, Duration::Micros(1));
  ProgramBuilder pb("p");
  pb.Call(f, slice, {});
  PathwaysProgram prog = std::move(pb).Build();
  ASSERT_EQ(prog.results().size(), 1u);
  EXPECT_TRUE(prog.is_result(0));
}

TEST(ProgramTest, CompactRepresentationIndependentOfShardCount) {
  // Paper §4.3: Arg -> A -> B -> Result is two computation nodes whether
  // N = 1 or N = 2048. The slices are hand-built: the tracer only checks
  // that each function's shard count matches its slice.
  for (const int shards : {1, 16, 2048}) {
    VirtualSlice slice;
    slice.devices.resize(static_cast<std::size_t>(shards));
    auto a = CompiledFunction::Synthetic("A", shards, Duration::Micros(10));
    auto b = CompiledFunction::Synthetic("B", shards, Duration::Micros(10));
    ProgramBuilder pb("chain");
    const ValueRef arg = pb.Argument();
    pb.Result(pb.Call(b, slice, {pb.Call(a, slice, {arg})}));
    PathwaysProgram prog = std::move(pb).Build();
    EXPECT_EQ(prog.num_nodes(), 2) << shards << " shards";
    EXPECT_EQ(prog.num_arguments(), 1);
    EXPECT_EQ(prog.num_consumers(0), 1);
    EXPECT_EQ(Producers(prog, 1), (std::vector<int>{0}));
    EXPECT_EQ(prog.results().size(), 1u);
  }
}

TEST(ProgramTest, EdgeQueriesWork) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  auto fn = CompiledFunction::Synthetic("f", 2, Duration::Micros(1));
  ProgramBuilder pb("g");
  const ValueRef a = pb.Call(fn, slice, {});
  const ValueRef b = pb.Call(fn, slice, {a});
  const ValueRef c = pb.Call(fn, slice, {a, b});
  PathwaysProgram prog = std::move(pb).Build();
  // Out-edges: how many distinct nodes read each node's output.
  EXPECT_EQ(prog.num_consumers(a.index), 2);
  EXPECT_EQ(prog.num_consumers(b.index), 1);
  EXPECT_EQ(prog.num_consumers(c.index), 0);
  // Distinct producers of each node, ascending.
  EXPECT_EQ(Producers(prog, a.index), (std::vector<int>{}));
  EXPECT_EQ(Producers(prog, b.index), (std::vector<int>{a.index}));
  EXPECT_EQ(Producers(prog, c.index), (std::vector<int>{a.index, b.index}));
  // In-edges: the node's operands, in operand order.
  const std::vector<ValueRef>& in = prog.node(c.index).inputs;
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in[0].kind, ValueRef::Kind::kNodeOutput);
  EXPECT_EQ(in[0].index, a.index);
  EXPECT_EQ(in[1].kind, ValueRef::Kind::kNodeOutput);
  EXPECT_EQ(in[1].index, b.index);
}

// Every table the tracer fills while appending nodes matches a brute-force
// recomputation from the finished node list, on random DAGs with repeated
// operands, argument operands, repeated and argument results, several
// islands and the default (last-node) result.
TEST(ProgramTest, TracedTablesMatchBruteForceOnRandomDags) {
  constexpr int kNumTimes = 300;
  std::uint64_t lcg = 0x5eed;
  auto next = [&lcg](int bound) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((lcg >> 33) % static_cast<std::uint64_t>(bound));
  };
  for (int trial = 0; trial < kNumTimes; ++trial) {
    const int num_islands = 1 + next(4);
    const int num_nodes = 1 + next(40);
    ProgramBuilder pb("random");
    const int num_args = next(3);
    for (int a = 0; a < num_args; ++a) pb.Argument();
    for (int n = 0; n < num_nodes; ++n) {
      const int shards = 1 + next(4);
      VirtualSlice slice;
      slice.island = hw::IslandId(next(num_islands));
      slice.devices.resize(static_cast<std::size_t>(shards));
      std::vector<ValueRef> inputs;
      const int num_inputs = next(5);
      for (int i = 0; i < num_inputs; ++i) {
        if (n > 0 && (num_args == 0 || next(4) != 0)) {
          inputs.push_back(ValueRef::Node(next(n)));  // repeats allowed
        } else if (num_args > 0) {
          inputs.push_back(ValueRef::Arg(next(num_args)));
        }
      }
      pb.Call(CompiledFunction::Synthetic("f", shards, Duration::Micros(1)),
              slice, std::move(inputs));
    }
    // No explicit results a third of the time: Build() picks the last node.
    const int num_results = next(3) == 0 ? 0 : 1 + next(4);
    for (int r = 0; r < num_results; ++r) {
      if (num_args > 0 && next(4) == 0) {
        pb.Result(ValueRef::Arg(next(num_args)));
      } else {
        pb.Result(ValueRef::Node(next(num_nodes)));
      }
    }
    if (num_results > 0) pb.Result(ValueRef::Node(next(num_nodes)));
    const PathwaysProgram prog = std::move(pb).Build();
    SCOPED_TRACE(testing::Message() << "trial " << trial);

    std::set<int> result_nodes;
    for (const ValueRef& r : prog.results()) {
      if (r.kind == ValueRef::Kind::kNodeOutput) result_nodes.insert(r.index);
    }
    int expected_messages = 0;
    for (const int r : result_nodes) {
      expected_messages += prog.node(r).fn.num_shards;
    }
    EXPECT_EQ(prog.result_shard_messages(), expected_messages);
    std::map<std::int64_t, std::vector<int>> by_island;
    for (const ComputationNode& node : prog.nodes()) {
      const int id = node.id;
      std::set<int> producers;
      for (const ValueRef& in : node.inputs) {
        if (in.kind == ValueRef::Kind::kNodeOutput) producers.insert(in.index);
      }
      EXPECT_EQ(Producers(prog, id),
                std::vector<int>(producers.begin(), producers.end()));
      int consumers = 0;
      for (const ComputationNode& other : prog.nodes()) {
        for (const ValueRef& in : other.inputs) {
          if (in.kind == ValueRef::Kind::kNodeOutput && in.index == id) {
            ++consumers;
            break;
          }
        }
      }
      EXPECT_EQ(prog.num_consumers(id), consumers) << "node " << id;
      EXPECT_EQ(prog.is_result(id), result_nodes.count(id) == 1)
          << "node " << id;
      by_island[node.slice.island.value()].push_back(id);
    }
    const auto subgraphs = prog.subgraphs();
    ASSERT_EQ(subgraphs->size(), by_island.size());
    auto expected = by_island.begin();
    for (const IslandSubgraph& sub : *subgraphs) {
      EXPECT_EQ(sub.island.value(), expected->first);
      EXPECT_EQ(sub.nodes, expected->second);
      ++expected;
    }
  }
}

// ---------------------------------------------------------- Dataflow runs --

TEST(RuntimeTest, DataParallelChainDeliversOneTuplePerShardPair) {
  // Paper §4.3: in data-parallel execution one shard of data flows between
  // each adjacent pair of nodes. Co-located shards are handed off in place,
  // so the chain moves nothing over the interconnect.
  constexpr int kShards = 8;
  World w(/*hosts=*/4, /*devices_per_host=*/2);
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(kShards).value();
  auto a = CompiledFunction::Synthetic("A", kShards, Duration::Micros(100),
                                       std::nullopt, 0, KiB(64));
  auto b = CompiledFunction::Synthetic("B", kShards, Duration::Micros(100),
                                       std::nullopt, 0, KiB(64));
  ProgramBuilder pb("chain");
  pb.Result(pb.Call(b, slice, {pb.Call(a, slice, {})}));
  PathwaysProgram prog = std::move(pb).Build();
  auto result = client->Run(&prog);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  ASSERT_EQ(result.value().outputs.size(), 1u);
  EXPECT_EQ(result.value().outputs[0].num_shards(), kShards);
  for (int d = 0; d < w.cluster->num_devices(); ++d) {
    EXPECT_EQ(w.cluster->device(d).kernels_completed(), 2) << "device " << d;
  }
  EXPECT_EQ(w.cluster->island(0).ici_bytes_transferred(), 0);
}

TEST(RuntimeTest, FanInNodeWaitsForAllEdges) {
  // join(x, y) runs on x's device; y is slow and on another device. join
  // must not run until both of its input edges have delivered.
  World w(/*hosts=*/2, /*devices_per_host=*/1);
  Client* client = w.runtime->CreateClient();
  auto sx = client->AllocateSlice(1).value();
  auto sy = client->AllocateSlice(1).value();
  auto fast = CompiledFunction::Synthetic("x", 1, Duration::Micros(10));
  auto slow = CompiledFunction::Synthetic("y", 1, Duration::Millis(5));
  auto join = CompiledFunction::Synthetic("join", 1, Duration::Micros(10));
  ProgramBuilder pb("fanin");
  const ValueRef x = pb.Call(fast, sx, {});
  const ValueRef y = pb.Call(slow, sy, {});
  pb.Result(pb.Call(join, sx, {x, y}));
  PathwaysProgram prog = std::move(pb).Build();
  auto result = client->Run(&prog);
  auto kernels = [&] {
    std::int64_t n = 0;
    for (int d = 0; d < w.cluster->num_devices(); ++d) {
      n += w.cluster->device(d).kernels_completed();
    }
    return n;
  };
  w.sim.RunFor(Duration::Millis(3));
  EXPECT_EQ(kernels(), 1);  // x done, y still running: join must not fire
  EXPECT_FALSE(result.ready());
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_EQ(kernels(), 3);
  EXPECT_GE(w.sim.now().ToMillis(), 5.01);
}

// ------------------------------------------------------------- End-to-end --

TEST(ExecutionTest, SingleNodeProgramCompletes) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(4).value();
  auto fn = CompiledFunction::Synthetic("step", 4, Duration::Millis(1),
                                        net::CollectiveKind::kAllReduce, 1024);
  auto result = client->RunFunction(fn, slice);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_EQ(result.value().outputs.size(), 1u);
  EXPECT_EQ(result.value().outputs[0].num_shards(), 4);
  // Sanity: total time covers RPC + dispatch + 1ms kernel.
  EXPECT_GT(w.sim.now().ToMillis(), 1.0);
  EXPECT_LT(w.sim.now().ToMillis(), 3.0);
  EXPECT_FALSE(w.sim.Deadlocked());
}

TEST(ExecutionTest, ChainRunsInDataflowOrder) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  auto fn = CompiledFunction::Synthetic("stage", 2, Duration::Millis(1));
  ProgramBuilder pb("chain");
  ValueRef v = pb.Call(fn, slice, {});
  for (int i = 0; i < 3; ++i) v = pb.Call(fn, slice, {v});
  pb.Result(v);
  PathwaysProgram prog = std::move(pb).Build();
  auto result = client->Run(&prog);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  // 4 chained 1ms kernels on the same devices: >= 4ms of simulated time.
  EXPECT_GE(w.sim.now().ToMillis(), 4.0);
  EXPECT_EQ(w.cluster->device(0).kernels_completed(), 4);
}

TEST(ExecutionTest, ArgumentsFlowIntoPrograms) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  ShardedBuffer input = client->TransferToDevice(slice, MiB(1));
  auto fn = CompiledFunction::Synthetic("consume", 2, Duration::Micros(100));
  auto result = client->RunFunction(fn, slice, {input});
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_FALSE(w.sim.Deadlocked());
}

TEST(ExecutionTest, IntermediateBuffersAreReleased) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  auto fn = CompiledFunction::Synthetic("stage", 2, Duration::Micros(100),
                                        std::nullopt, 0, MiB(8));
  ProgramBuilder pb("chain");
  ValueRef v = pb.Call(fn, slice, {});
  for (int i = 0; i < 9; ++i) v = pb.Call(fn, slice, {v});
  pb.Result(v);
  PathwaysProgram prog = std::move(pb).Build();
  auto result = client->Run(&prog);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  // Only the program result should survive; 9 intermediates were collected.
  EXPECT_EQ(w.runtime->object_store().live_buffers(), 1);
}

TEST(ExecutionTest, ReshardingEdgePerformsScatterGather) {
  World w(/*hosts=*/4, /*devices_per_host=*/2);
  Client* client = w.runtime->CreateClient();
  auto slice4 = client->AllocateSlice(4).value();
  auto slice2 = client->AllocateSlice(2).value();
  auto wide = CompiledFunction::Synthetic("wide", 4, Duration::Micros(100),
                                          std::nullopt, 0, MiB(4));
  auto narrow = CompiledFunction::Synthetic("narrow", 2, Duration::Micros(100));
  ProgramBuilder pb("reshard");
  pb.Result(pb.Call(narrow, slice2, {pb.Call(wide, slice4, {})}));
  PathwaysProgram prog = std::move(pb).Build();
  auto result = client->Run(&prog);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_FALSE(w.sim.Deadlocked());
}

// The sum of the pin counts DumpShardStates reports over every live shard.
int TotalPins(const ObjectStore& store) {
  const std::string dump = store.DumpShardStates();
  int pins = 0;
  for (std::size_t at = dump.find("pins="); at != std::string::npos;
       at = dump.find("pins=", at + 5)) {
    pins += std::stoi(dump.substr(at + 5));
  }
  return pins;
}

// One execution with every kind of input edge, driven by hand in place of
// the executors (prep done, shard complete): node 0 (2 shards) reads
// argument 0 over a 1:1 edge; node 1 (4 shards) reads node 0 through a
// 2 -> 4 scatter/gather and argument 1 over a 1:1 edge. Every value lives
// on devices of its own, so every piece crosses the island's ICI and lands
// a measurable time after the arrival that triggered it.
struct MixedEdgeExecution {
  static constexpr Bytes kShardBytes = KiB(64);

  MixedEdgeExecution() : w(/*hosts=*/6, /*devices_per_host=*/2) {
    client = w.runtime->CreateClient();
    const VirtualSlice sx = client->AllocateSlice(2).value();
    const VirtualSlice sy = client->AllocateSlice(4).value();
    const VirtualSlice sp = client->AllocateSlice(2).value();
    const VirtualSlice sc = client->AllocateSlice(4).value();
    x = client->TransferToDevice(sx, kShardBytes);
    y = client->TransferToDevice(sy, kShardBytes);
    ProgramBuilder pb("mixed");
    const ValueRef ax = pb.Argument();
    const ValueRef ay = pb.Argument();
    const ValueRef p = pb.Call(
        CompiledFunction::Synthetic("p", 2, Duration::Micros(100),
                                    std::nullopt, 0, kShardBytes),
        sp, {ax});
    pb.Result(pb.Call(CompiledFunction::Synthetic("c", 4, Duration::Micros(100)),
                      sc, {p, ay}));
    program = std::make_unique<PathwaysProgram>(std::move(pb).Build());
    w.sim.Run();  // the arguments are staged
    exec = ProgramExecution::Create(
        w.runtime.get(), client->id(), 1.0, client->host()->id(),
        &client->cpu(), program.get(), {x, y},
        w.runtime->execution_ids().Next());
    // Output HBM, reserved as executor prep does.
    for (int s = 0; s < 2; ++s) exec->ReserveOutputShard(0, s);
    for (int s = 0; s < 4; ++s) exec->ReserveOutputShard(1, s);
    w.sim.Run();
  }

  bool InputReady(int node, int shard, int operand) const {
    return exec->InputFutures(node, shard)
        .at(static_cast<std::size_t>(operand))
        .ready();
  }

  World w;
  Client* client = nullptr;
  ShardedBuffer x;
  ShardedBuffer y;
  std::unique_ptr<PathwaysProgram> program;
  std::shared_ptr<ProgramExecution> exec;
};

TEST(ExecutionTest, InputFuturesWaitForEveryPieceOfTheirShard) {
  MixedEdgeExecution m;
  ProgramExecution& exec = *m.exec;
  sim::Simulator& sim = m.w.sim;
  const Bytes ici_before = m.w.cluster->island(0).ici_bytes_transferred();
  // When each (node, shard, operand) input future completed, in ns.
  std::map<std::tuple<int, int, int>, std::int64_t> landed;
  auto landed_at = [&landed](int node, int shard, int op) {
    const auto it = landed.find(std::make_tuple(node, shard, op));
    return it == landed.end() ? std::int64_t{-1} : it->second;
  };
  const int kShards[] = {2, 4};
  for (int node = 0; node < 2; ++node) {
    for (int shard = 0; shard < kShards[node]; ++shard) {
      const auto inputs = exec.InputFutures(node, shard);
      ASSERT_EQ(inputs.size(), node == 0 ? 1u : 2u);
      for (int op = 0; op < static_cast<int>(inputs.size()); ++op) {
        inputs[static_cast<std::size_t>(op)].Then(
            [&landed, &sim, key = std::make_tuple(node, shard, op)](
                const sim::Unit&) { landed[key] = sim.now().nanos(); });
      }
    }
  }
  sim.Run();
  EXPECT_TRUE(landed.empty());  // no consumer shard is prepped yet

  // Node 0's shard 0 is prepped: its argument piece moves, shard 1's not.
  exec.MarkPrepDone(0, 0);
  const std::int64_t t0 = sim.now().nanos();
  sim.RunUntil(sim.now());  // the zero-delay hops: the piece is in flight
  EXPECT_FALSE(m.InputReady(0, 0, 0));
  sim.Run();
  EXPECT_GT(landed_at(0, 0, 0), t0);
  EXPECT_FALSE(m.InputReady(0, 1, 0));

  // Node 1's shards 0 and 1 are prepped and node 0's shard 0 completes:
  // their argument pieces land, but the scatter/gather operand still
  // misses the slice of node 0's shard 1.
  exec.MarkPrepDone(1, 0);
  exec.MarkPrepDone(1, 1);
  exec.MarkShardComplete(0, 0);
  sim.Run();
  for (int j = 0; j < 4; ++j) {
    EXPECT_FALSE(m.InputReady(1, j, 0)) << "shard " << j;
    EXPECT_EQ(m.InputReady(1, j, 1), j < 2) << "shard " << j;
  }

  // Node 0's shard 1 completes: the last slice of shards 0 and 1 moves.
  exec.MarkShardComplete(0, 1);
  const std::int64_t t1 = sim.now().nanos();
  sim.RunUntil(sim.now());
  EXPECT_FALSE(m.InputReady(1, 0, 0));
  EXPECT_FALSE(m.InputReady(1, 1, 0));
  sim.Run();
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(m.InputReady(1, j, 0), j < 2) << "shard " << j;
  }
  EXPECT_GT(landed_at(1, 0, 0), t1);
  EXPECT_GT(landed_at(1, 1, 0), t1);

  // Shards 2 and 3 are prepped: all three of each one's pieces move now.
  exec.MarkPrepDone(1, 2);
  exec.MarkPrepDone(1, 3);
  exec.MarkPrepDone(0, 1);
  const std::int64_t t2 = sim.now().nanos();
  sim.Run();
  EXPECT_EQ(landed.size(), 2u + 4u * 2u);
  EXPECT_GT(landed_at(0, 1, 0), t2);
  for (int j = 2; j < 4; ++j) {
    EXPECT_GT(landed_at(1, j, 0), t2) << "shard " << j;
    EXPECT_GT(landed_at(1, j, 1), t2) << "shard " << j;
  }
  // Each piece crossed the ICI once: one argument shard into each of node
  // 0's 2 shards and node 1's 4, and 2 x 4 quarter-shard slices.
  const Bytes k = MixedEdgeExecution::kShardBytes;
  EXPECT_EQ(m.w.cluster->island(0).ici_bytes_transferred() - ici_before,
            2 * k + 4 * k + 8 * (k / 4));
  EXPECT_EQ(TotalPins(m.w.runtime->object_store()), 0);
  // Finish node 1 so the completion bookkeeping drains.
  for (int j = 0; j < 4; ++j) exec.MarkShardComplete(1, j);
  sim.Run();
}

TEST(ExecutionTest, AbortMidTransferUnwindsEveryLatchAndPin) {
  MixedEdgeExecution m;
  ProgramExecution& exec = *m.exec;
  sim::Simulator& sim = m.w.sim;
  ObjectStore& store = m.w.runtime->object_store();
  // Trigger every piece, then stop while all of them are being read.
  for (int s = 0; s < 2; ++s) exec.MarkPrepDone(0, s);
  for (int s = 0; s < 4; ++s) exec.MarkPrepDone(1, s);
  exec.MarkShardComplete(0, 0);
  exec.MarkShardComplete(0, 1);
  sim.RunUntil(sim.now());
  EXPECT_EQ(TotalPins(store), 2 + 4 + 8);  // one per piece in flight
  EXPECT_FALSE(m.InputReady(0, 0, 0));
  EXPECT_FALSE(m.InputReady(1, 3, 0));

  exec.Abort();
  EXPECT_TRUE(exec.aborted());
  for (int s = 0; s < 2; ++s) EXPECT_TRUE(m.InputReady(0, s, 0));
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(m.InputReady(1, s, 0));
    EXPECT_TRUE(m.InputReady(1, s, 1));
  }
  EXPECT_EQ(TotalPins(store), 0);
  ASSERT_TRUE(exec.done().ready());
  EXPECT_TRUE(exec.done().value().failed);
  sim.Run();  // the reads still in flight land on forced latches
  EXPECT_EQ(TotalPins(store), 0);
  // The execution's outputs are gone; the arguments are the client's.
  EXPECT_EQ(store.live_buffers(), 2);
  m.client->ReleaseBuffer(m.x);
  m.client->ReleaseBuffer(m.y);
  EXPECT_EQ(store.live_buffers(), 0);
  EXPECT_FALSE(sim.Deadlocked());
}

TEST(ExecutionTest, MultiIslandPipelineCrossesDcn) {
  World w(/*hosts=*/2, /*devices_per_host=*/2, /*islands=*/2);
  Client* client = w.runtime->CreateClient();
  auto s0 = client->AllocateSlice(2, hw::IslandId(0)).value();
  auto s1 = client->AllocateSlice(2, hw::IslandId(1)).value();
  auto fn = CompiledFunction::Synthetic("stage", 2, Duration::Micros(500),
                                        std::nullopt, 0, MiB(1));
  ProgramBuilder pb("xisland");
  pb.Result(pb.Call(fn, s1, {pb.Call(fn, s0, {})}));
  PathwaysProgram prog = std::move(pb).Build();
  const Bytes dcn_before = w.cluster->dcn().bytes_sent();
  auto result = client->Run(&prog);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  // The stage outputs crossed the DCN (2 shards x 1 MiB, plus control).
  EXPECT_GT(w.cluster->dcn().bytes_sent() - dcn_before, MiB(2) - 1);
}

TEST(ExecutionTest, ReLoweringPicksUpDeviceRemap) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(1).value();
  auto fn = CompiledFunction::Synthetic("f", 1, Duration::Micros(100));
  ProgramBuilder pb("p");
  pb.Call(fn, slice, {});
  PathwaysProgram prog = std::move(pb).Build();

  auto r1 = client->Run(&prog);
  w.sim.Run();
  ASSERT_TRUE(r1.ready());
  const hw::DeviceId original =
      w.runtime->resource_manager().Lookup(slice.devices[0].id);
  const std::int64_t kernels_before =
      w.cluster->device(original).kernels_completed();

  ASSERT_TRUE(w.runtime->resource_manager().RemoveDevice(original).ok());
  auto r2 = client->Run(&prog);  // re-lowered against the new mapping
  w.sim.Run();
  ASSERT_TRUE(r2.ready());
  EXPECT_EQ(w.cluster->device(original).kernels_completed(), kernels_before);
}

// -------------------------------------------------- Gang scheduling safety --

// The core paper claim: concurrent programs with collectives from multiple
// clients never deadlock under the centralized gang scheduler, at any
// interleaving.
class GangSafetyProperty : public ::testing::TestWithParam<int> {};

TEST_P(GangSafetyProperty, ConcurrentCollectiveProgramsNeverDeadlock) {
  const int num_clients = GetParam();
  World w(/*hosts=*/2, /*devices_per_host=*/4);
  std::vector<sim::SimFuture<ExecutionResult>> results;
  std::vector<std::unique_ptr<PathwaysProgram>> programs;
  for (int c = 0; c < num_clients; ++c) {
    Client* client = w.runtime->CreateClient();
    auto slice = client->AllocateSlice(8).value();  // all devices: full overlap
    auto fn = CompiledFunction::Synthetic(
        "ar" + std::to_string(c), 8, Duration::Micros(50 + 13 * c),
        net::CollectiveKind::kAllReduce, 256);
    ProgramBuilder pb("prog" + std::to_string(c));
    ValueRef v = pb.Call(fn, slice, {});
    for (int i = 0; i < 4; ++i) v = pb.Call(fn, slice, {v});
    pb.Result(v);
    programs.push_back(std::make_unique<PathwaysProgram>(std::move(pb).Build()));
    results.push_back(client->Run(programs.back().get()));
  }
  w.sim.Run();
  EXPECT_FALSE(w.sim.Deadlocked()) << "gang scheduler must prevent deadlock";
  for (auto& r : results) EXPECT_TRUE(r.ready());
}

INSTANTIATE_TEST_SUITE_P(Clients, GangSafetyProperty,
                         ::testing::Values(2, 3, 4, 8));

// ------------------------------------------------------ Dispatch modes ----

TEST(DispatchModeTest, ParallelBeatsSequentialOnPipelines) {
  auto run_pipeline = [](DispatchMode mode) {
    PathwaysOptions options;
    options.dispatch = mode;
    World w(/*hosts=*/8, /*devices_per_host=*/1, 1, options);
    Client* client = w.runtime->CreateClient();
    auto fn = CompiledFunction::Synthetic("tiny", 1, Duration::Micros(20));
    ProgramBuilder pb("pipeline");
    ValueRef v = pb.Call(fn, client->AllocateSlice(1).value(), {});
    for (int i = 0; i < 7; ++i) {
      v = pb.Call(fn, client->AllocateSlice(1).value(), {v});
    }
    pb.Result(v);
    PathwaysProgram prog = std::move(pb).Build();
    auto result = client->Run(&prog);
    w.sim.Run();
    EXPECT_TRUE(result.ready());
    return w.sim.now();
  };
  const TimePoint parallel = run_pipeline(DispatchMode::kParallel);
  const TimePoint sequential = run_pipeline(DispatchMode::kSequential);
  // Sequential serializes host-side work behind each enqueue (Fig. 4a);
  // parallel overlaps it (Fig. 4b).
  EXPECT_LT(parallel.nanos(), sequential.nanos());
}

// ------------------------------------------------- Sharded buffers (§4.2) --

TEST(ShardedBufferTest, LogicalBookkeepingCompletesWideProgramsSooner) {
  // A gang-synchronized kernel over 2048 shards: every completion message
  // arrives at once, putting the client's buffer bookkeeping on the
  // critical path. Charging it per logical buffer rather than per shard
  // must finish the same programs sooner.
  auto run_programs = [](bool sharded_bookkeeping) {
    PathwaysOptions options;
    options.sharded_buffer_bookkeeping = sharded_bookkeeping;
    World w(/*hosts=*/512, /*devices_per_host=*/4, 1, options);
    Client* client = w.runtime->CreateClient();
    ProgramBuilder pb("wide");
    pb.Call(CompiledFunction::Synthetic("big", 2048, Duration::Millis(5),
                                        net::CollectiveKind::kAllReduce, 4),
            client->AllocateSlice(2048).value(), {});
    PathwaysProgram prog = std::move(pb).Build();
    for (int i = 0; i < 3; ++i) {
      auto result = client->Run(&prog);
      w.sim.RunUntilPredicate([&result] { return result.ready(); });
      w.runtime->object_store().Release(result.value().outputs[0].id);
    }
    return w.sim.now();
  };
  EXPECT_LT(run_programs(true).nanos(), run_programs(false).nanos());
}

// ------------------------------------------- Data-dependent control flow --

TEST(IrregularDispatchTest, IrregularNodeWaitsForProducers) {
  // Paper §4.5: parallel scheduling is an optimization; nodes whose
  // resource requirements depend on predecessor *values* fall back to the
  // traditional model. The irregular chain must therefore be strictly
  // slower than the regular one (no overlapped host-side work).
  auto run_chain = [](bool irregular) {
    World w(/*hosts=*/4, /*devices_per_host=*/1);
    Client* client = w.runtime->CreateClient();
    auto fn = CompiledFunction::Synthetic("stage", 1, Duration::Micros(20));
    ProgramBuilder pb("chain");
    ValueRef v = pb.Call(fn, client->AllocateSlice(1).value(), {});
    for (int i = 0; i < 3; ++i) {
      auto slice = client->AllocateSlice(1).value();
      v = irregular ? pb.CallIrregular(fn, slice, {v})
                    : pb.Call(fn, slice, {v});
    }
    pb.Result(v);
    PathwaysProgram prog = std::move(pb).Build();
    auto result = client->Run(&prog);
    w.sim.Run();
    EXPECT_TRUE(result.ready());
    EXPECT_FALSE(w.sim.Deadlocked());
    return w.sim.now();
  };
  const TimePoint regular = run_chain(false);
  const TimePoint data_dependent = run_chain(true);
  EXPECT_LT(regular.nanos(), data_dependent.nanos());
}

TEST(IrregularDispatchTest, OtherTenantsProceedWhileParked) {
  // While an irregular node waits for its producer, the scheduler must keep
  // serving other clients' gangs.
  World w(/*hosts=*/2, /*devices_per_host=*/2);
  Client* sparse_client = w.runtime->CreateClient();
  Client* dense_client = w.runtime->CreateClient();

  auto slow = CompiledFunction::Synthetic("slow", 2, Duration::Millis(5));
  auto routed = CompiledFunction::Synthetic("routed", 2, Duration::Micros(50));
  auto s1 = sparse_client->AllocateSlice(2).value();
  ProgramBuilder pb1("moe");
  pb1.Result(pb1.CallIrregular(routed, s1, {pb1.Call(slow, s1, {})}));
  PathwaysProgram moe = std::move(pb1).Build();

  auto s2 = dense_client->AllocateSlice(2).value();
  ProgramBuilder pb2("dense");
  pb2.Call(CompiledFunction::Synthetic("quick", 2, Duration::Micros(100)), s2, {});
  PathwaysProgram dense = std::move(pb2).Build();

  auto moe_result = sparse_client->Run(&moe);
  auto dense_result = dense_client->Run(&dense);
  // The dense program must finish long before the 5 ms producer does.
  w.sim.RunUntilPredicate([&dense_result] { return dense_result.ready(); });
  EXPECT_LT(w.sim.now().ToMillis(), 5.0);
  w.sim.Run();
  EXPECT_TRUE(moe_result.ready());
}

// --------------------------------------------------------------- Fairness --

TEST(FairnessTest, WeightedStrideApproximatesProportionalShare) {
  PathwaysOptions options;
  options.policy = SchedulerPolicy::kWeightedStride;
  // Shallow in-flight window so the policy has a backlog to arbitrate.
  options.max_inflight_gangs = 2;
  World w(/*hosts=*/2, /*devices_per_host=*/2, 1, options);
  w.cluster->EnableTrace();  // shares are read from the kernel spans
  Client* c1 = w.runtime->CreateClient(/*weight=*/1.0);
  Client* c2 = w.runtime->CreateClient(/*weight=*/3.0);

  auto submit_loop = [&w](Client* client, const PathwaysProgram* prog,
                          auto&& self) -> void {
    client->Run(prog).Then(
        [&w, client, prog, self](const ExecutionResult&) {
          if (w.sim.now() < TimePoint() + Duration::Millis(50)) {
            self(client, prog, self);
          }
        });
  };

  auto slice1 = c1->AllocateSlice(4).value();
  auto slice2 = c2->AllocateSlice(4).value();
  auto fn = CompiledFunction::Synthetic("work", 4, Duration::Micros(330),
                                        net::CollectiveKind::kAllReduce, 64);
  ProgramBuilder pb1("p1");
  pb1.Call(fn, slice1, {});
  PathwaysProgram prog1 = std::move(pb1).Build();
  ProgramBuilder pb2("p2");
  pb2.Call(fn, slice2, {});
  PathwaysProgram prog2 = std::move(pb2).Build();

  // Keep 4 programs in flight per client so the scheduler always has a
  // choice to make.
  for (int i = 0; i < 4; ++i) {
    submit_loop(c1, &prog1, submit_loop);
    submit_loop(c2, &prog2, submit_loop);
  }
  w.sim.RunUntil(TimePoint() + Duration::Millis(60));

  auto busy = w.cluster->trace().BusyPerClient(
      TimePoint() + Duration::Millis(10), TimePoint() + Duration::Millis(50));
  const double ratio = busy[c2->id().value()] / busy[c1->id().value()];
  EXPECT_GT(ratio, 2.0) << "weight-3 client should get ~3x the device time";
  EXPECT_LT(ratio, 4.5);
}

// Keeps resubmitting `prog` on `client` — releasing outputs through the
// Client::Submit path — until the simulated clock passes `until`.
void SubmitLoop(World& w, Client* client, const PathwaysProgram* prog,
                TimePoint until) {
  client->Submit(prog, [&w, client, prog, until](const ExecutionResult&) {
    if (w.sim.now() < until) SubmitLoop(w, client, prog, until);
  });
}

TEST(FairnessTest, AgedPassesKeepProportionalShare) {
  // Long-run pass-drift regression (the stride-rebase fix). Passes grow by
  // one stride per pick, so after enough gangs pass/stride crosses 2^52 and
  // `pass += stride` rounds to a no-op: the affected queue's virtual time
  // freezes and tie-breaking hands it the whole island. Simulating years of
  // traffic is not an option, so AgePassesForTesting advances every queue's
  // pass by 2^53 — a relative no-op that lands the scheduler exactly in the
  // degenerate regime. Without RebasePasses (revert the fix to check) the
  // weight-3 client starves and this test fails; with it, the first pick
  // rebases the passes back to zero and the shares recover.
  PathwaysOptions options;
  options.policy = SchedulerPolicy::kWeightedStride;
  options.max_inflight_gangs = 2;
  World w(/*hosts=*/2, /*devices_per_host=*/2, 1, options);
  w.cluster->EnableTrace();  // shares are read from the kernel spans
  Client* c1 = w.runtime->CreateClient(/*weight=*/1.0);
  Client* c2 = w.runtime->CreateClient(/*weight=*/3.0);

  auto slice1 = c1->AllocateSlice(4).value();
  auto slice2 = c2->AllocateSlice(4).value();
  auto fn = CompiledFunction::Synthetic("work", 4, Duration::Micros(330),
                                        net::CollectiveKind::kAllReduce, 64);
  ProgramBuilder pb1("p1");
  pb1.Call(fn, slice1, {});
  PathwaysProgram prog1 = std::move(pb1).Build();
  ProgramBuilder pb2("p2");
  pb2.Call(fn, slice2, {});
  PathwaysProgram prog2 = std::move(pb2).Build();
  const TimePoint until = TimePoint() + Duration::Millis(55);
  for (int i = 0; i < 4; ++i) {
    SubmitLoop(w, c1, &prog1, until);
    SubmitLoop(w, c2, &prog2, until);
  }
  // Let both queues come into existence, then age the scheduler as if it
  // had already served ~2^53 units of virtual time.
  w.sim.RunUntil(TimePoint() + Duration::Millis(2));
  w.runtime->scheduler(hw::IslandId(0)).AgePassesForTesting(9007199254740992.0);
  w.sim.RunUntil(TimePoint() + Duration::Millis(60));

  auto busy = w.cluster->trace().BusyPerClient(
      TimePoint() + Duration::Millis(10), TimePoint() + Duration::Millis(50));
  ASSERT_GT(busy[c1->id().value()].nanos(), 0)
      << "weight-1 client starved: pass drift un-rebased";
  const double ratio = busy[c2->id().value()] / busy[c1->id().value()];
  EXPECT_GT(ratio, 2.0) << "weight-3 client starved: pass drift un-rebased";
  EXPECT_LT(ratio, 4.5);
  EXPECT_GT(w.runtime->scheduler(hw::IslandId(0)).pass_rebases(), 0);
}

TEST(FairnessTest, IdleClientReEntryGetsNoCatchUpBurst) {
  // A client that sat idle while another served (and the rebase anchored
  // passes near zero) must re-enter at the current virtual time, not claim
  // a catch-up monopoly for the time it was away.
  PathwaysOptions options;
  options.policy = SchedulerPolicy::kWeightedStride;
  options.max_inflight_gangs = 2;
  World w(/*hosts=*/2, /*devices_per_host=*/2, 1, options);
  w.cluster->EnableTrace();  // shares are read from the kernel spans
  Client* steady = w.runtime->CreateClient(/*weight=*/1.0);
  Client* late = w.runtime->CreateClient(/*weight=*/1.0);

  auto slice1 = steady->AllocateSlice(4).value();
  auto slice2 = late->AllocateSlice(4).value();
  auto fn = CompiledFunction::Synthetic("work", 4, Duration::Micros(330),
                                        net::CollectiveKind::kAllReduce, 64);
  ProgramBuilder pb1("steady");
  pb1.Call(fn, slice1, {});
  PathwaysProgram prog1 = std::move(pb1).Build();
  ProgramBuilder pb2("late");
  pb2.Call(fn, slice2, {});
  PathwaysProgram prog2 = std::move(pb2).Build();

  const TimePoint until = TimePoint() + Duration::Millis(55);
  // `late` touches the scheduler once at t=0 (creating its queue at pass
  // ~0), then goes idle while `steady` accrues 20ms of virtual time.
  late->Submit(&prog2, {});
  w.sim.ScheduleAt(TimePoint() + Duration::Millis(2), [&] {
    for (int i = 0; i < 4; ++i) SubmitLoop(w, steady, &prog1, until);
  });
  // `late` re-enters at t=20ms with 4 programs in flight.
  w.sim.ScheduleAt(TimePoint() + Duration::Millis(20), [&] {
    for (int i = 0; i < 4; ++i) SubmitLoop(w, late, &prog2, until);
  });
  w.sim.RunUntil(TimePoint() + Duration::Millis(60));

  // In the window right after re-entry both clients are backlogged with
  // equal weights: the late client must share ~50/50, not monopolize.
  auto busy = w.cluster->trace().BusyPerClient(
      TimePoint() + Duration::Millis(22), TimePoint() + Duration::Millis(50));
  const double total = (busy[steady->id().value()] + busy[late->id().value()])
                           .ToSeconds();
  ASSERT_GT(total, 0);
  const double late_share = busy[late->id().value()].ToSeconds() / total;
  EXPECT_GT(late_share, 0.35);
  EXPECT_LT(late_share, 0.65) << "idle re-entry claimed a catch-up burst";
}

// ----------------------------------------------------------- Retry policy --

TEST(RetryPolicyTest, BackoffIsCappedAndMonotone) {
  RetryPolicy policy;
  policy.initial_backoff = Duration::Micros(500);
  policy.multiplier = 2.0;
  policy.max_backoff = Duration::Millis(10);
  EXPECT_EQ(policy.BackoffFor(1), Duration::Micros(500));
  EXPECT_EQ(policy.BackoffFor(2), Duration::Millis(1));
  EXPECT_EQ(policy.BackoffFor(3), Duration::Millis(2));
  // 500us * 2^5 = 16ms clamps to the 10ms cap...
  EXPECT_EQ(policy.BackoffFor(6), Duration::Millis(10));
  // ...and stays there for any attempt count, including ones where the
  // uncapped product overflows double and int64 alike.
  Duration prev = Duration::Zero();
  for (int k = 1; k <= 400; ++k) {
    const Duration b = policy.BackoffFor(k);
    EXPECT_GT(b.nanos(), 0);
    EXPECT_LE(b, policy.max_backoff);
    EXPECT_GE(b, prev);
    prev = b;
  }
  EXPECT_EQ(policy.BackoffFor(400), Duration::Millis(10));
}

TEST(RetryPolicyTest, ManyAttemptsDoNotOverflowSimulatedTime) {
  // Pre-fix, initial_backoff * pow(multiplier, k-1) overflowed Duration
  // around k=60 (4^k), producing a negative delay that died inside
  // Simulator::Schedule. Post-fix the total backoff is bounded by
  // max_attempts * max_backoff.
  World w(/*hosts=*/1, /*devices_per_host=*/2);
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  ProgramBuilder pb("train");
  pb.Call(CompiledFunction::Synthetic("step", 2, Duration::Micros(200),
                                      net::CollectiveKind::kAllReduce,
                                      KiB(64)),
          slice, {});
  PathwaysProgram prog = std::move(pb).Build();

  // Permanent failure with no spare devices: every attempt aborts.
  w.sim.Schedule(Duration::Micros(100), [&] {
    w.cluster->device(0).Fail();
    (void)w.runtime->resource_manager().MarkDeviceFailed(
        w.cluster->device(0).id());
    w.runtime->AbortExecutionsUsing(w.cluster->device(0).id());
  });

  RetryPolicy policy;
  policy.max_attempts = 80;
  policy.multiplier = 4.0;
  policy.initial_backoff = Duration::Micros(500);
  policy.max_backoff = Duration::Millis(2);
  auto result = client->RunWithRetry(&prog, {}, policy);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().failed);
  EXPECT_EQ(result.value().attempts, 80);
  // 80 attempts x (2ms cap + per-attempt work) stays well under a second.
  EXPECT_LT(w.sim.now().ToSeconds(), 1.0);
}

// ------------------------------------------------- Back-pressure liveness --

TEST(BackPressureTest, HbmPressureStallsButCompletes) {
  hw::SystemParams params;
  params.hbm_capacity = MiB(64);
  World w(1, 2, 1, {}, params);
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  // Each step's working set is 24 MiB (in+out+scratch): three programs in
  // flight exceed HBM, forcing back-pressure.
  auto fn = CompiledFunction::Synthetic("big", 2, Duration::Micros(200),
                                        std::nullopt, 0, MiB(8));
  ProgramBuilder pb("mem");
  ValueRef v = pb.Call(fn, slice, {});
  v = pb.Call(fn, slice, {v});
  pb.Result(v);
  PathwaysProgram prog = std::move(pb).Build();
  std::vector<sim::SimFuture<ExecutionResult>> results;
  std::vector<ShardedBuffer> outputs;
  for (int i = 0; i < 6; ++i) {
    auto r = client->Run(&prog);
    r.Then([&w, &outputs](const ExecutionResult& res) {
      // Hold results briefly, then release (frees HBM for waiters).
      for (const auto& out : res.outputs) {
        w.runtime->object_store().Release(out.id);
      }
    });
    results.push_back(r);
  }
  w.sim.Run();
  EXPECT_FALSE(w.sim.Deadlocked());
  for (auto& r : results) EXPECT_TRUE(r.ready());
}

// ----------------------------------------------------- Failure injection --

TEST(FailureTest, ClientFailureReclaimsEverything) {
  World w;
  Client* doomed = w.runtime->CreateClient();
  Client* survivor = w.runtime->CreateClient();
  auto ds = doomed->AllocateSlice(4).value();
  auto ss = survivor->AllocateSlice(4).value();
  ShardedBuffer d1 = doomed->TransferToDevice(ds, MiB(32));
  ShardedBuffer s1 = survivor->TransferToDevice(ss, MiB(16));
  w.sim.Run();
  const int collected = w.runtime->FailClient(doomed->id());
  EXPECT_EQ(collected, 1);
  EXPECT_FALSE(w.runtime->object_store().Contains(d1.id));
  EXPECT_TRUE(w.runtime->object_store().Contains(s1.id));
  // Survivor can still run programs.
  auto fn = CompiledFunction::Synthetic("ok", 4, Duration::Micros(50));
  auto r = survivor->RunFunction(fn, ss, {s1});
  w.sim.Run();
  EXPECT_TRUE(r.ready());
}

}  // namespace
}  // namespace pw::pathways
