// Serving-regime unit tests (docs/SERVING.md).
//
// Covers the request lifecycle (prefill -> decode -> finish), KV-cache
// growth/pin/evict accounting byte-for-byte against ObjectStore stats,
// iteration-boundary admission for the continuous batcher (and the static
// baseline's drain-before-refill), token/KV budgets, the fault-composition
// path (device crash mid-decode: KV released, requests re-prefill via the
// resource manager's remap), and a golden event-trace checksum for a fixed
// two-tenant serving scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "hw/cluster.h"
#include "pathways/pathways.h"
#include "serving/serving.h"
#include "sim/simulator.h"

namespace pw::serving {
namespace {

using pathways::PathwaysOptions;
using pathways::PathwaysRuntime;

struct World {
  explicit World(Bytes hbm = GiB(1), int devices_per_host = 2,
                 Bytes dram = GiB(64), PathwaysOptions options = {}) {
    hw::SystemParams params = hw::SystemParams::TpuDefault();
    params.host_jitter_frac = 0;  // deterministic timing in unit tests
    params.hbm_capacity = hbm;
    params.host_dram_capacity = dram;
    cluster = std::make_unique<hw::Cluster>(&sim, params, /*islands=*/1,
                                            /*hosts_per_island=*/1,
                                            devices_per_host);
    runtime = std::make_unique<PathwaysRuntime>(cluster.get(), options);
    client = runtime->CreateClient();
  }

  Batcher& MakeBatcher(int slice_devices, KvCacheConfig kv, BatcherConfig cfg) {
    slice = client->AllocateSlice(slice_devices).value();
    batcher = std::make_unique<Batcher>(client, slice, kv, cfg, &metrics,
                                        &trace);
    return *batcher;
  }

  Request Req(std::int64_t id, int prefill, int decode) {
    Request r;
    r.id = id;
    r.prefill_tokens = prefill;
    r.decode_tokens = decode;
    r.arrival = sim.now();
    return r;
  }

  sim::Simulator sim;
  std::unique_ptr<hw::Cluster> cluster;
  std::unique_ptr<PathwaysRuntime> runtime;
  pathways::Client* client = nullptr;
  pathways::VirtualSlice slice;
  ServingMetrics metrics;
  ServingTrace trace;
  std::unique_ptr<Batcher> batcher;
};

// First trace event of `kind` for `request`, if any.
std::optional<ServingTrace::Event> Find(const ServingTrace& trace,
                                        std::string_view kind,
                                        std::int64_t request) {
  for (const ServingTrace::Event& e : trace.events()) {
    if (e.kind == kind && e.request == request) return e;
  }
  return std::nullopt;
}

std::vector<std::string> KindsFor(const ServingTrace& trace,
                                  std::int64_t request) {
  std::vector<std::string> kinds;
  for (const auto& e : trace.events()) {
    if (e.request == request) kinds.emplace_back(e.kind);
  }
  return kinds;
}

// ------------------------------------------------------ request lifecycle --

TEST(ServingLifecycleTest, SingleRequestPrefillsDecodesFinishes) {
  World w;
  BatcherConfig cfg;
  Batcher& b = w.MakeBatcher(2, KvCacheConfig{}, cfg);

  ASSERT_TRUE(b.Offer(w.Req(1, /*prefill=*/8, /*decode=*/4)));
  w.sim.Run();

  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_TRUE(b.idle());
  // One prefill iteration plus one per remaining decode token.
  EXPECT_EQ(b.iterations(), 4);
  EXPECT_EQ(b.finished(), 1);
  EXPECT_EQ(b.shed(), 0);
  EXPECT_EQ(w.metrics.arrivals(), 1);
  EXPECT_EQ(w.metrics.prefills(), 1);
  EXPECT_EQ(w.metrics.tokens(), 3);  // tokens after the first
  EXPECT_EQ(w.metrics.finished(), 1);
  EXPECT_GT(w.metrics.TtftUs(50), 0.0);
  EXPECT_GT(w.metrics.TokenLatencyUs(50), 0.0);

  // Semantic event order for the request.
  EXPECT_EQ(KindsFor(w.trace, 1),
            (std::vector<std::string>{"arrive", "admit", "prefill", "token",
                                      "token", "token", "finish"}));

  // Every byte returned: no KV sequences, no live store buffers (iteration
  // outputs released), zero logical bytes on every device.
  EXPECT_EQ(b.kv().live_sequences(), 0);
  EXPECT_EQ(b.kv().live_bytes_per_shard(), 0);
  pathways::ObjectStore& store = w.runtime->object_store();
  EXPECT_EQ(store.live_buffers(), 0);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(store.logical_live_bytes(hw::DeviceId(d)), 0);
    EXPECT_EQ(store.hbm_used(hw::DeviceId(d)), 0);
  }
  // One KV grow per decode step per shard (3 steps x 2 shards).
  EXPECT_EQ(store.grows_completed(), 6);
  EXPECT_EQ(store.grown_bytes_total(),
            6 * KvCacheConfig{}.bytes_per_token_per_shard);
}

// --------------------------------------------- KV accounting, byte-for-byte --

// Direct KvCache drive (no batcher): growth lands in the store exactly as
// the mirror claims, at creation, after appends, and after release.
TEST(KvAccountingTest, GrowthMatchesObjectStoreByteForByte) {
  World w(/*hbm=*/GiB(1), /*devices_per_host=*/2);
  w.slice = w.client->AllocateSlice(2).value();
  const Bytes tok = KiB(16);
  KvCache kv(w.runtime.get(), w.client->id(), KvCacheConfig{tok});
  pathways::ObjectStore& store = w.runtime->object_store();

  kv.CreateSequence(1, w.slice, /*prompt_tokens=*/3);
  w.sim.Run();
  const pathways::ShardedBuffer& h = kv.handle(1);
  ASSERT_EQ(h.num_shards(), 2);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(store.shard_bytes(h.id, s), 3 * tok);
    EXPECT_EQ(store.shard_bytes(h.id, s), h.shards[s].bytes);
  }
  EXPECT_EQ(kv.bytes_of(1), 2 * 3 * tok);
  EXPECT_EQ(kv.live_bytes_per_shard(), 3 * tok);

  kv.MarkReady(1);
  kv.Append(1, 2);
  kv.Append(1, 2);
  w.sim.Run();
  EXPECT_EQ(kv.tokens_of(1), 7);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(store.shard_bytes(h.id, s), 7 * tok);
    EXPECT_EQ(store.shard_bytes(h.id, s), h.shards[s].bytes);
    EXPECT_EQ(store.logical_live_bytes(
                  h.shards[static_cast<std::size_t>(s)].device),
              7 * tok);
  }
  EXPECT_EQ(store.grows_completed(), 4);  // two Appends x two shards
  EXPECT_EQ(store.grown_bytes_total(), 4 * 2 * tok);
  EXPECT_EQ(kv.appends(), 2);

  kv.Release(1);
  w.sim.Run();
  EXPECT_EQ(kv.live_sequences(), 0);
  EXPECT_EQ(kv.live_bytes_per_shard(), 0);
  EXPECT_EQ(store.live_buffers(), 0);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(store.logical_live_bytes(hw::DeviceId(d)), 0);
    EXPECT_EQ(store.hbm_used(hw::DeviceId(d)), 0);
  }
}

// A pinned sequence is never a spill victim; unpinning it unblocks the
// waiter through eviction, with spill bytes accounted exactly.
TEST(KvAccountingTest, PinBlocksEvictionUnpinReleasesIt) {
  World w(/*hbm=*/KiB(64), /*devices_per_host=*/1);
  w.slice = w.client->AllocateSlice(1).value();
  const Bytes tok = KiB(16);
  KvCache kv(w.runtime.get(), w.client->id(), KvCacheConfig{tok});
  pathways::ObjectStore& store = w.runtime->object_store();

  kv.CreateSequence(1, w.slice, 3);  // 48 KiB of 64 KiB
  w.sim.Run();
  kv.MarkReady(1);
  store.PinShard(kv.handle(1).id, 0);

  auto granted = kv.CreateSequence(2, w.slice, 2);  // 32 KiB: must evict S1
  w.sim.Run();
  EXPECT_FALSE(granted.ready());  // S1 pinned: nothing to evict, S2 waits
  EXPECT_EQ(store.spills_completed(), 0);

  store.UnpinShard(kv.handle(1).id, 0);
  w.sim.Run();
  EXPECT_TRUE(granted.ready());
  EXPECT_TRUE(kv.AnyShardInDram(1));
  EXPECT_FALSE(kv.AnyShardInDram(2));
  EXPECT_EQ(store.spills_completed(), 1);
  EXPECT_EQ(store.spilled_bytes_total(), 3 * tok);
  EXPECT_EQ(store.hbm_used(hw::DeviceId(0)), 2 * tok);
  // Logical bytes count HBM-resident + spilled.
  EXPECT_EQ(store.logical_live_bytes(hw::DeviceId(0)), 5 * tok);

  kv.Release(1);
  kv.Release(2);
  w.sim.Run();
  EXPECT_EQ(store.live_buffers(), 0);
  EXPECT_EQ(store.logical_live_bytes(hw::DeviceId(0)), 0);
}

// Appending to a spilled sequence with host-DRAM headroom grows it in
// place in DRAM (no HBM traffic); the restore happens on next use.
TEST(KvAccountingTest, AppendToSpilledSequenceGrowsInDram) {
  World w(/*hbm=*/KiB(64), /*devices_per_host=*/1, /*dram=*/KiB(128));
  w.slice = w.client->AllocateSlice(1).value();
  const Bytes tok = KiB(16);
  KvCache kv(w.runtime.get(), w.client->id(), KvCacheConfig{tok});
  pathways::ObjectStore& store = w.runtime->object_store();

  kv.CreateSequence(1, w.slice, 3);
  w.sim.Run();
  kv.MarkReady(1);
  kv.CreateSequence(2, w.slice, 2);  // evicts S1 (48 KiB) to DRAM
  w.sim.Run();
  ASSERT_TRUE(kv.AnyShardInDram(1));

  kv.Append(1, 1);
  w.sim.Run();
  EXPECT_TRUE(kv.AnyShardInDram(1));  // grew where it lay
  EXPECT_EQ(store.shard_bytes(kv.handle(1).id, 0), 4 * tok);
  EXPECT_EQ(store.grows_completed(), 1);
  EXPECT_EQ(store.grown_bytes_total(), tok);
  EXPECT_EQ(store.hbm_used(hw::DeviceId(0)), 2 * tok);  // only S2
  EXPECT_EQ(store.logical_live_bytes(hw::DeviceId(0)), 6 * tok);

  kv.Release(1);
  kv.Release(2);
  w.sim.Run();
  EXPECT_EQ(store.live_buffers(), 0);
}

// Appending to a spilled sequence when DRAM is exhausted forces a restore
// at the grown size: one HBM reservation for old+delta, DRAM freed at the
// grant, residency back to HBM.
TEST(KvAccountingTest, AppendWithDramExhaustedForcesRestore) {
  World w(/*hbm=*/KiB(64), /*devices_per_host=*/1, /*dram=*/KiB(48));
  w.slice = w.client->AllocateSlice(1).value();
  const Bytes tok = KiB(16);
  KvCache kv(w.runtime.get(), w.client->id(), KvCacheConfig{tok});
  pathways::ObjectStore& store = w.runtime->object_store();

  kv.CreateSequence(1, w.slice, 3);
  w.sim.Run();
  kv.MarkReady(1);
  kv.CreateSequence(2, w.slice, 2);  // evicts S1: DRAM now 48/48 KiB
  w.sim.Run();
  ASSERT_TRUE(kv.AnyShardInDram(1));
  kv.Release(2);  // HBM fully free again
  w.sim.Run();

  kv.Append(1, 1);  // DRAM append impossible -> restore at 64 KiB
  w.sim.Run();
  EXPECT_FALSE(kv.AnyShardInDram(1));
  EXPECT_EQ(store.shard_bytes(kv.handle(1).id, 0), 4 * tok);
  EXPECT_EQ(store.fills_completed(), 1);
  EXPECT_EQ(store.grows_completed(), 1);
  EXPECT_EQ(store.hbm_used(hw::DeviceId(0)), 4 * tok);
  EXPECT_EQ(store.logical_live_bytes(hw::DeviceId(0)), 4 * tok);

  kv.Release(1);
  w.sim.Run();
  EXPECT_EQ(store.live_buffers(), 0);
  EXPECT_EQ(store.hbm_used(hw::DeviceId(0)), 0);
}

// ------------------------------------------------- admission at boundaries --

TEST(BatcherAdmissionTest, ContinuousAdmitsOnlyAtIterationBoundaries) {
  World w;
  BatcherConfig cfg;
  Batcher& b = w.MakeBatcher(2, KvCacheConfig{}, cfg);

  ASSERT_TRUE(b.Offer(w.Req(1, 8, /*decode=*/6)));
  w.sim.Schedule(Duration::Micros(1), [&] { b.Offer(w.Req(2, 8, 2)); });

  // B arrives mid-iteration: it must queue, not join the running batch.
  ASSERT_TRUE(w.sim.RunUntilPredicate([&] { return w.metrics.arrivals() == 2; }));
  EXPECT_EQ(b.running(), 1);
  EXPECT_EQ(b.queue_depth(), 1u);

  // B joins at the next boundary — after A's first iteration completed.
  ASSERT_TRUE(w.sim.RunUntilPredicate([&] { return b.running() == 2; }));
  EXPECT_EQ(b.iterations(), 2);
  const auto prefill_a = Find(w.trace, "prefill", 1);
  const auto admit_b = Find(w.trace, "admit", 2);
  ASSERT_TRUE(prefill_a.has_value());
  ASSERT_TRUE(admit_b.has_value());
  EXPECT_GE(admit_b->at_ns, prefill_a->at_ns);

  w.sim.Run();
  EXPECT_EQ(b.finished(), 2);
  EXPECT_EQ(w.runtime->object_store().live_buffers(), 0);
}

// Both straggler tests use the same shape: a warm-up request (the very
// first Offer starts its iteration alone, synchronously), then a straggler
// + a short request forming one batch of two (max_batch = 2), then a late
// request 3 that can only run once a slot frees.
void OfferStragglerScenario(World& w, Batcher& b) {
  ASSERT_TRUE(b.Offer(w.Req(0, 4, /*decode=*/1)));   // warm-up, runs alone
  ASSERT_TRUE(b.Offer(w.Req(1, 8, /*decode=*/10)));  // straggler
  ASSERT_TRUE(b.Offer(w.Req(2, 8, /*decode=*/2)));
  ASSERT_TRUE(b.Offer(w.Req(3, 8, /*decode=*/2)));
}

TEST(BatcherAdmissionTest, StaticBaselineDrainsBeforeRefill) {
  World w;
  BatcherConfig cfg;
  cfg.policy = BatchPolicy::kStatic;
  cfg.max_batch = 2;
  Batcher& b = w.MakeBatcher(2, KvCacheConfig{}, cfg);
  OfferStragglerScenario(w, b);
  w.sim.Run();

  EXPECT_EQ(b.finished(), 4);
  // Static batching: request 3 waits for the whole batch {1, 2} — including
  // the straggler — even though request 2 finished long before.
  const auto finish_1 = Find(w.trace, "finish", 1);
  const auto finish_2 = Find(w.trace, "finish", 2);
  const auto admit_3 = Find(w.trace, "admit", 3);
  ASSERT_TRUE(finish_1.has_value());
  ASSERT_TRUE(finish_2.has_value());
  ASSERT_TRUE(admit_3.has_value());
  EXPECT_LT(finish_2->at_ns, finish_1->at_ns);
  EXPECT_GE(admit_3->at_ns, finish_1->at_ns);
}

TEST(BatcherAdmissionTest, ContinuousBackfillsTheStragglersSlot) {
  World w;
  BatcherConfig cfg;  // continuous
  cfg.max_batch = 2;
  Batcher& b = w.MakeBatcher(2, KvCacheConfig{}, cfg);
  OfferStragglerScenario(w, b);
  w.sim.Run();

  EXPECT_EQ(b.finished(), 4);
  // Continuous batching backfills request 2's slot with request 3 while the
  // straggler still runs.
  const auto finish_1 = Find(w.trace, "finish", 1);
  const auto finish_2 = Find(w.trace, "finish", 2);
  const auto admit_3 = Find(w.trace, "admit", 3);
  ASSERT_TRUE(finish_1.has_value());
  ASSERT_TRUE(finish_2.has_value());
  ASSERT_TRUE(admit_3.has_value());
  EXPECT_GE(admit_3->at_ns, finish_2->at_ns);
  EXPECT_LT(admit_3->at_ns, finish_1->at_ns);
}

TEST(BatcherAdmissionTest, TokenBudgetDefersPromptToNextBoundary) {
  World w;
  BatcherConfig cfg;
  cfg.token_budget = 8;
  Batcher& b = w.MakeBatcher(2, KvCacheConfig{}, cfg);

  ASSERT_TRUE(b.Offer(w.Req(1, /*prefill=*/6, /*decode=*/4)));
  ASSERT_TRUE(b.Offer(w.Req(2, /*prefill=*/6, /*decode=*/2)));
  w.sim.Run();

  EXPECT_EQ(b.finished(), 2);
  // Iteration 1 holds only request 1 (6 + 6 > 8); request 2's prompt fits
  // beside the now-decoding request 1 (1 + 6 <= 8) at the next boundary.
  const auto prefill_1 = Find(w.trace, "prefill", 1);
  const auto admit_2 = Find(w.trace, "admit", 2);
  ASSERT_TRUE(prefill_1.has_value());
  ASSERT_TRUE(admit_2.has_value());
  EXPECT_GE(admit_2->at_ns, prefill_1->at_ns);
}

TEST(BatcherAdmissionTest, OversizedPromptAdmittedSoloNotWedged) {
  World w;
  BatcherConfig cfg;
  cfg.token_budget = 8;
  Batcher& b = w.MakeBatcher(2, KvCacheConfig{}, cfg);

  // Prompt larger than the whole per-iteration budget: admitted alone
  // rather than wedging the queue head forever.
  ASSERT_TRUE(b.Offer(w.Req(1, /*prefill=*/32, /*decode=*/2)));
  w.sim.Run();
  EXPECT_EQ(b.finished(), 1);
  EXPECT_TRUE(b.idle());
}

TEST(BatcherAdmissionTest, KvBudgetShedsOversizedAndSerializesTheRest) {
  World w;
  const Bytes tok = KiB(16);
  BatcherConfig cfg;
  cfg.kv_budget_per_device = 10 * tok;
  Batcher& b = w.MakeBatcher(2, KvCacheConfig{tok}, cfg);

  // Projected KV = prefill + decode - 1 tokens. 8 + 5 - 1 = 12 > 10: shed.
  EXPECT_FALSE(b.Offer(w.Req(7, /*prefill=*/8, /*decode=*/5)));
  EXPECT_EQ(b.shed(), 1);
  const auto shed = Find(w.trace, "shed", 7);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->detail, 1);  // shed for size, not queue overflow

  // Two 6-token-KV requests (3 + 4 - 1): 12 > 10, so the second waits for
  // the first to finish and release its KV.
  ASSERT_TRUE(b.Offer(w.Req(1, 3, 4)));
  ASSERT_TRUE(b.Offer(w.Req(2, 3, 4)));
  w.sim.Run();
  EXPECT_EQ(b.finished(), 2);
  const auto finish_1 = Find(w.trace, "finish", 1);
  const auto admit_2 = Find(w.trace, "admit", 2);
  ASSERT_TRUE(finish_1.has_value());
  ASSERT_TRUE(admit_2.has_value());
  EXPECT_GE(admit_2->at_ns, finish_1->at_ns);
  EXPECT_EQ(w.metrics.sheds(), 1);
  EXPECT_EQ(w.runtime->object_store().live_buffers(), 0);
}

TEST(BatcherAdmissionTest, QueueOverflowSheds) {
  World w;
  BatcherConfig cfg;
  cfg.max_batch = 1;
  cfg.queue_capacity = 2;
  Batcher& b = w.MakeBatcher(2, KvCacheConfig{}, cfg);

  ASSERT_TRUE(b.Offer(w.Req(1, 4, 8)));  // runs
  ASSERT_TRUE(b.Offer(w.Req(2, 4, 2)));  // queued
  ASSERT_TRUE(b.Offer(w.Req(3, 4, 2)));  // queued (capacity)
  EXPECT_FALSE(b.Offer(w.Req(4, 4, 2)));  // shed
  w.sim.Run();
  EXPECT_EQ(b.finished(), 3);
  EXPECT_EQ(b.shed(), 1);
  const auto shed = Find(w.trace, "shed", 4);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->detail, 0);  // overflow, not size
}

// ---------------------------------------------------- fault composition --

// Crash a slice device mid-decode: the running batch aborts, every
// sequence's KV is released (no leaked store refs), the requests re-enter
// the queue, and the retry re-prefills against the resource manager's
// remapped device (PR-3 path) and completes.
TEST(ServingFaultTest, CrashMidDecodeReleasesKvAndCompletesViaRemap) {
  World w(/*hbm=*/GiB(1), /*devices_per_host=*/4);
  BatcherConfig cfg;
  Batcher& b = w.MakeBatcher(2, KvCacheConfig{}, cfg);

  ASSERT_TRUE(b.Offer(w.Req(1, /*prefill=*/8, /*decode=*/40)));

  faults::FaultPlan plan;
  plan.CrashDevice(hw::DeviceId(0), TimePoint() + Duration::Micros(700),
                   /*down_for=*/Duration::Millis(3));
  faults::FaultInjector injector(w.cluster.get(), w.runtime.get(),
                                 std::move(plan));
  injector.Arm();
  w.sim.Run();

  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_GE(b.aborted_iterations(), 1);
  EXPECT_EQ(b.finished(), 1);
  EXPECT_TRUE(b.idle());

  // The request went back to the queue and re-prefilled from scratch.
  const auto requeue = Find(w.trace, "requeue", 1);
  ASSERT_TRUE(requeue.has_value());
  EXPECT_GE(requeue->detail, 2);  // attempts
  EXPECT_GE(w.metrics.prefills(), 2);

  // Remap actually happened (spare device in the island took over) and the
  // finish came after it.
  EXPECT_GE(w.runtime->resource_manager().vdevs_remapped(), 1);

  // No leaked KV: sequences, store refs, and device bytes all zero.
  EXPECT_EQ(b.kv().live_sequences(), 0);
  pathways::ObjectStore& store = w.runtime->object_store();
  EXPECT_EQ(store.live_buffers(), 0);
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(store.logical_live_bytes(hw::DeviceId(d)), 0);
    EXPECT_EQ(store.hbm_used(hw::DeviceId(d)), 0);
  }
}

// ------------------------------------------------------- compact trace log --

struct PlainEvent {
  std::int64_t at_ns;
  std::string kind;
  std::int64_t request;
  std::int64_t detail;
};

// ServingTrace's checksum as computed over a plain vector of events, before
// the trace became a byte log. The pinned goldens below depend on the byte
// log hashing exactly this way.
std::uint64_t ReferenceChecksum(const std::vector<PlainEvent>& events) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  auto i64 = [&bytes](std::int64_t v) { bytes(&v, sizeof(v)); };
  i64(static_cast<std::int64_t>(events.size()));
  for (const PlainEvent& e : events) {
    i64(e.at_ns);
    i64(static_cast<std::int64_t>(e.kind.size()));
    bytes(e.kind.data(), e.kind.size());
    i64(e.request);
    i64(e.detail);
  }
  return h;
}

TEST(ServingTraceTest, CompactLogRoundTripsAndKeepsChecksum) {
  const std::vector<std::string> kinds = {
      "arrive", "shed",    "enqueue", "admit",   "prefill", "first_token",
      "token",  "finish",  "abort",   "requeue", "handoff", "kv_send",
      "kv_ready", "kv_fail"};
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kTiB = std::int64_t{1} << 40;

  // Extremes first: the at_ns delta wraps across the whole int64 range.
  std::vector<PlainEvent> want = {
      {0, "arrive", -1, 0},
      {kMax, "kv_send", kMin, kMax},
      {kMin, "kv_fail", kMax, kMin},
      {kMin, "token", -1, -1},
      {-5, "abort", -1, kTiB + 3},
  };
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    want.push_back({1000, kinds[k], static_cast<std::int64_t>(k), -1});
  }
  // Then a fixed-seed LCG walk: repeated, rising and falling timestamps,
  // request -1 or small ids, details from 0 up past kv_send byte counts.
  std::uint64_t x = 42;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 11;
  };
  std::int64_t at = 1'000'000;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t r = next();
    const auto u = [r](int shift, std::uint64_t mod) {
      return static_cast<std::int64_t>((r >> shift) % mod);
    };
    switch (r % 4) {
      case 0: break;                          // repeated
      case 1: at -= u(2, 1000); break;        // decreasing
      default: at += u(2, 5'000'000); break;  // rising
    }
    const std::int64_t request = u(24, 7) == 0 ? -1 : u(27, 100'000);
    std::int64_t detail = 0;
    switch (u(44, 4)) {
      case 0: detail = kTiB + u(20, kTiB); break;
      case 1: detail = -u(20, 3); break;
      case 2: detail = u(20, 4096); break;
      default: detail = u(10, 1ULL << 40) << 8; break;
    }
    want.push_back({at, kinds[static_cast<std::size_t>(u(4, kinds.size()))],
                    request, detail});
  }

  ServingTrace trace;
  for (const PlainEvent& e : want) {
    // A temporary kind string: the trace must keep its own copy.
    trace.Record(e.at_ns, std::string(e.kind), e.request, e.detail);
  }
  ASSERT_EQ(trace.events().size(), want.size());
  std::size_t i = 0;
  for (const ServingTrace::Event& e : trace.events()) {
    ASSERT_LT(i, want.size());
    EXPECT_EQ(e.at_ns, want[i].at_ns) << i;
    EXPECT_EQ(e.kind, want[i].kind) << i;
    EXPECT_EQ(e.request, want[i].request) << i;
    EXPECT_EQ(e.detail, want[i].detail) << i;
    ++i;
  }
  EXPECT_EQ(i, want.size());
  EXPECT_EQ(trace.Checksum(), ReferenceChecksum(want));
  EXPECT_EQ(ServingTrace().Checksum(), ReferenceChecksum({}));
}

// ------------------------------------------------------------ golden trace --

// Fixed two-tenant scenario under KV pressure (HBM sized so paused KV
// spills). Any change to batching, KV growth, spill/restore, or arrival
// semantics moves these constants; update them only with an explanation of
// what legitimately changed.
TEST(ServingGoldenTest, TwoTenantScenarioTraceChecksum) {
  World w(/*hbm=*/KiB(640), /*devices_per_host=*/2);
  KvCacheConfig kv;
  kv.bytes_per_token_per_shard = KiB(4);
  BatcherConfig cfg;
  cfg.max_batch = 4;
  cfg.token_budget = 128;
  cfg.kv_budget_per_device = KiB(512);
  Batcher& b = w.MakeBatcher(2, kv, cfg);

  TenantSpec t0;
  t0.arrivals.process = workload::ArrivalProcess::kPoisson;
  t0.arrivals.rate_per_sec = 20000;
  t0.arrivals.horizon = Duration::Millis(2);
  t0.arrivals.seed = 11;
  t0.min_prefill_tokens = 8;
  t0.max_prefill_tokens = 32;
  t0.min_decode_tokens = 4;
  t0.max_decode_tokens = 8;
  t0.token_seed = 3;

  TenantSpec t1;
  t1.arrivals.process = workload::ArrivalProcess::kUniform;
  t1.arrivals.rate_per_sec = 15000;
  t1.arrivals.horizon = Duration::Millis(2);
  t1.arrivals.seed = 22;
  t1.min_prefill_tokens = 16;
  t1.max_prefill_tokens = 48;
  t1.min_decode_tokens = 2;
  t1.max_decode_tokens = 6;
  t1.token_seed = 5;

  ServingTenant tenant0(0, &b, &w.sim, t0);
  ServingTenant tenant1(1, &b, &w.sim, t1);
  tenant0.Start();
  tenant1.Start();
  w.sim.Run();

  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_TRUE(b.idle());
  EXPECT_EQ(w.metrics.arrivals(), tenant0.arrivals_generated() +
                                      tenant1.arrivals_generated());
  EXPECT_EQ(b.finished() + b.shed(), w.metrics.arrivals());
  EXPECT_EQ(b.kv().live_sequences(), 0);
  EXPECT_EQ(w.runtime->object_store().live_buffers(), 0)
      << w.runtime->object_store().DumpShardStates();

  // Golden constants — printed on mismatch for easy (deliberate) updates.
  const std::uint64_t kGoldenChecksum = 0xc637d5902da7eb4fULL;
  const std::int64_t kGoldenFinished = 66;
  const std::int64_t kGoldenIterations = 100;
  std::ostringstream actual;
  actual << "checksum 0x" << std::hex << w.trace.Checksum() << std::dec
         << " finished " << b.finished() << " iterations " << b.iterations()
         << " arrivals " << w.metrics.arrivals() << " spills "
         << w.runtime->object_store().spills_completed();
  EXPECT_EQ(w.trace.Checksum(), kGoldenChecksum) << actual.str();
  EXPECT_EQ(b.finished(), kGoldenFinished) << actual.str();
  EXPECT_EQ(b.iterations(), kGoldenIterations) << actual.str();
  // The scenario is only interesting if memory pressure was real.
  EXPECT_GT(w.runtime->object_store().spills_completed(), 0) << actual.str();
}

}  // namespace
}  // namespace pw::serving
