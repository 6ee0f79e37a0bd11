// Disaggregated prefill/decode serving unit tests (docs/SERVING.md).
//
// Covers the disagg lifecycle (prefill island -> KV handoff over DCN ->
// decode island -> finish), router admission (decode-side impossibility,
// least-loaded prefill routing), KV handoff byte-exactness against
// ObjectStore statistics on both islands, decode-side enqueue ordering,
// the crash-mid-transfer path (all shards released on both islands,
// request re-prefills — run under ASan in CI), decode-island crashes
// returning requests for re-prefill, the in-flight KV floor throttle, and
// the TTFT regression: disaggregated TTFT must be stamped at first decode
// token emission, never at prefill completion.
#include <gtest/gtest.h>

#include <cstdint>
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

struct DisaggWorld {
  explicit DisaggWorld(Bytes hbm = GiB(1), int devices_per_host = 2,
                       int islands = 2,
                       hw::SystemParams params = DefaultParams()) {
    params.hbm_capacity = hbm;
    cluster = std::make_unique<hw::Cluster>(&sim, params, islands,
                                            /*hosts_per_island=*/1,
                                            devices_per_host);
    runtime = std::make_unique<PathwaysRuntime>(cluster.get(),
                                                PathwaysOptions{});
    client = runtime->CreateClient();
  }

  static hw::SystemParams DefaultParams() {
    hw::SystemParams params = hw::SystemParams::TpuDefault();
    params.host_jitter_frac = 0;  // deterministic timing in unit tests
    return params;
  }

  // One prefill batcher on island 0 and one decode batcher on island 1.
  DisaggRouter& MakeDisagg(int prefill_devices, int decode_devices,
                           KvCacheConfig kv, BatcherConfig cfg) {
    BatcherConfig prefill_cfg = cfg;
    prefill_cfg.role = BatcherRole::kPrefill;
    prefill_slice =
        client->AllocateSlice(prefill_devices, hw::IslandId(0)).value();
    prefill = std::make_unique<Batcher>(client, prefill_slice, kv, prefill_cfg,
                                        &metrics, &trace);
    BatcherConfig decode_cfg = cfg;
    decode_cfg.role = BatcherRole::kDecode;
    decode_slice =
        client->AllocateSlice(decode_devices, hw::IslandId(1)).value();
    decode = std::make_unique<Batcher>(client, decode_slice, kv, decode_cfg,
                                       &metrics, &trace);
    router = std::make_unique<DisaggRouter>(
        std::vector<Batcher*>{prefill.get()},
        std::vector<Batcher*>{decode.get()}, &metrics, &trace);
    return *router;
  }

  Request Req(std::int64_t id, int prefill_tokens, int decode_tokens) {
    Request r;
    r.id = id;
    r.prefill_tokens = prefill_tokens;
    r.decode_tokens = decode_tokens;
    r.arrival = sim.now();
    return r;
  }

  void ExpectNoLeaks(int num_devices) {
    EXPECT_EQ(prefill->kv().live_sequences(), 0);
    EXPECT_EQ(decode->kv().live_sequences(), 0);
    pathways::ObjectStore& store = runtime->object_store();
    EXPECT_EQ(store.live_buffers(), 0) << store.DumpShardStates();
    for (int d = 0; d < num_devices; ++d) {
      EXPECT_EQ(store.logical_live_bytes(hw::DeviceId(d)), 0);
      EXPECT_EQ(store.hbm_used(hw::DeviceId(d)), 0);
    }
  }

  sim::Simulator sim;
  std::unique_ptr<hw::Cluster> cluster;
  std::unique_ptr<PathwaysRuntime> runtime;
  pathways::Client* client = nullptr;
  pathways::VirtualSlice prefill_slice;
  pathways::VirtualSlice decode_slice;
  ServingMetrics metrics;
  ServingTrace trace;
  std::unique_ptr<Batcher> prefill;
  std::unique_ptr<Batcher> decode;
  std::unique_ptr<DisaggRouter> router;
};

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

TEST(DisaggLifecycleTest, SingleRequestPrefillsTransfersDecodesFinishes) {
  DisaggWorld w;
  DisaggRouter& r = w.MakeDisagg(2, 2, KvCacheConfig{}, BatcherConfig{});

  ASSERT_TRUE(r.Offer(w.Req(1, /*prefill=*/8, /*decode=*/4)));
  w.sim.Run();

  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_TRUE(r.idle());
  EXPECT_EQ(w.prefill->handoffs(), 1);
  EXPECT_EQ(r.transfers_completed(), 1);
  EXPECT_EQ(r.transfers_failed(), 0);
  EXPECT_EQ(w.decode->finished(), 1);
  EXPECT_EQ(w.metrics.arrivals(), 1);
  EXPECT_EQ(w.metrics.handoffs(), 1);
  EXPECT_EQ(w.metrics.prefills(), 1);  // first token emitted exactly once
  EXPECT_EQ(w.metrics.tokens(), 3);
  EXPECT_EQ(w.metrics.finished(), 1);

  // The full disagg dataflow in order: prefill island, handoff, DCN
  // transfer, decode island enqueue/admit, first token from DECODE.
  EXPECT_EQ(KindsFor(w.trace, 1),
            (std::vector<std::string>{"arrive", "admit", "prefill", "handoff",
                                      "kv_send", "kv_ready", "enqueue",
                                      "admit", "first_token", "token", "token",
                                      "token", "finish"}));

  // The KV crossed a real DCN: transfer completion is at least one fabric
  // latency after it started.
  const auto send = Find(w.trace, "kv_send", 1);
  const auto ready = Find(w.trace, "kv_ready", 1);
  ASSERT_TRUE(send.has_value());
  ASSERT_TRUE(ready.has_value());
  EXPECT_GE(ready->at_ns - send->at_ns,
            DisaggWorld::DefaultParams().dcn.latency.nanos());
  EXPECT_EQ(r.bytes_transferred(),
            2 * w.decode->kv().BytesForTokens(8));  // both dst shards

  w.ExpectNoLeaks(/*num_devices=*/4);
}

// ---------------------------------------------------------- router admission --

TEST(DisaggRouterTest, DecodeImpossibleRequestShedAtOffer) {
  DisaggWorld w;
  const Bytes tok = KiB(16);
  BatcherConfig cfg;
  cfg.kv_budget_per_device = 10 * tok;
  DisaggRouter& r = w.MakeDisagg(2, 2, KvCacheConfig{tok}, cfg);

  // Projected KV 8 + 5 - 1 = 12 tokens > 10-token budget on the decode
  // island: shed at the router, before any prefill work.
  EXPECT_FALSE(r.Offer(w.Req(7, /*prefill=*/8, /*decode=*/5)));
  EXPECT_EQ(r.shed(), 1);
  EXPECT_EQ(w.metrics.arrivals(), 1);
  EXPECT_EQ(w.metrics.sheds(), 1);
  EXPECT_EQ(w.prefill->iterations(), 0);
  const auto shed = Find(w.trace, "shed", 7);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->detail, 2);  // decode-side impossibility, not 0/1

  // A request within the decode budget passes through to the prefill
  // batcher and completes.
  ASSERT_TRUE(r.Offer(w.Req(8, 4, 4)));
  w.sim.Run();
  EXPECT_EQ(w.metrics.finished(), 1);
}

TEST(DisaggRouterTest, RoutesToLeastLoadedPrefillBatcher) {
  // Three islands: two prefill islands and one decode island.
  DisaggWorld w(GiB(1), /*devices_per_host=*/2, /*islands=*/3);
  BatcherConfig cfg;
  cfg.max_batch = 1;
  BatcherConfig prefill_cfg = cfg;
  prefill_cfg.role = BatcherRole::kPrefill;
  auto slice_a = w.client->AllocateSlice(2, hw::IslandId(0)).value();
  auto slice_b = w.client->AllocateSlice(2, hw::IslandId(1)).value();
  Batcher prefill_a(w.client, slice_a, KvCacheConfig{}, prefill_cfg,
                    &w.metrics, &w.trace);
  Batcher prefill_b(w.client, slice_b, KvCacheConfig{}, prefill_cfg,
                    &w.metrics, &w.trace);
  BatcherConfig decode_cfg;
  decode_cfg.role = BatcherRole::kDecode;
  auto slice_d = w.client->AllocateSlice(2, hw::IslandId(2)).value();
  Batcher decode(w.client, slice_d, KvCacheConfig{}, decode_cfg, &w.metrics,
                 &w.trace);
  DisaggRouter r({&prefill_a, &prefill_b}, {&decode}, &w.metrics, &w.trace);

  // First two requests land on batcher A (ties break to the lowest index;
  // a running request does not count as queue depth). The third sees A's
  // queue at 1 vs B's 0 and goes to B.
  ASSERT_TRUE(r.Offer(w.Req(1, 8, 2)));  // A: running
  ASSERT_TRUE(r.Offer(w.Req(2, 8, 2)));  // A: queued (max_batch = 1)
  ASSERT_TRUE(r.Offer(w.Req(3, 8, 2)));  // B
  EXPECT_EQ(prefill_a.running() + static_cast<int>(prefill_a.queue_depth()), 2);
  EXPECT_EQ(prefill_b.running() + static_cast<int>(prefill_b.queue_depth()), 1);

  w.sim.Run();
  EXPECT_EQ(w.metrics.finished(), 3);
  EXPECT_EQ(w.runtime->object_store().live_buffers(), 0);
}

// ------------------------------------------- KV handoff, byte-for-byte --

TEST(DisaggKvTest, HandoffBytesMatchObjectStoreStatsOnBothIslands) {
  DisaggWorld w;
  const Bytes tok = KiB(16);
  DisaggRouter& r =
      w.MakeDisagg(2, 2, KvCacheConfig{tok}, BatcherConfig{});
  pathways::ObjectStore& store = w.runtime->object_store();

  ASSERT_TRUE(r.Offer(w.Req(1, /*prefill=*/8, /*decode=*/64)));

  // While the KV is still on the prefill island (post-prefill, transfer in
  // flight), the bytes live on island-0 devices.
  ASSERT_TRUE(w.sim.RunUntilPredicate([&] { return r.transfers_started() == 1; }));
  EXPECT_EQ(w.prefill->kv().live_sequences(), 1);
  EXPECT_EQ(w.prefill->kv().tokens_of(1), 8);
  EXPECT_EQ(w.prefill->kv().live_bytes_per_shard(), 8 * tok);
  const auto& src_h = w.prefill->kv().handle(1);
  for (int s = 0; s < src_h.num_shards(); ++s) {
    const auto& shard = src_h.shards[static_cast<std::size_t>(s)];
    EXPECT_EQ(shard.bytes, 8 * tok);
    EXPECT_EQ(store.shard_bytes(src_h.id, s), 8 * tok);
    EXPECT_EQ(w.cluster->device(shard.device).island(), hw::IslandId(0));
  }

  // The moment the transfer completes: the decode island holds exactly the
  // prompt's bytes per shard, and the prefill island's copy is fully
  // released (no double-charged KV anywhere).
  ASSERT_TRUE(
      w.sim.RunUntilPredicate([&] { return r.transfers_completed() == 1; }));
  EXPECT_EQ(w.prefill->kv().live_sequences(), 0);
  EXPECT_EQ(w.prefill->kv().live_bytes_per_shard(), 0);
  EXPECT_EQ(w.decode->kv().live_sequences(), 1);
  EXPECT_EQ(w.decode->kv().tokens_of(1), 8);
  const auto& dst_h = w.decode->kv().handle(1);
  ASSERT_EQ(dst_h.num_shards(), 2);
  Bytes dst_total = 0;
  for (int s = 0; s < dst_h.num_shards(); ++s) {
    EXPECT_EQ(store.shard_bytes(dst_h.id, s), 8 * tok);
    const auto& shard = dst_h.shards[static_cast<std::size_t>(s)];
    EXPECT_EQ(w.cluster->device(shard.device).island(), hw::IslandId(1));
    EXPECT_EQ(store.logical_live_bytes(shard.device), 8 * tok);
    dst_total += shard.bytes;
  }
  // Every byte that landed was counted through the router, and it all rode
  // the DCN fabric.
  EXPECT_EQ(r.bytes_transferred(), dst_total);
  EXPECT_GE(w.cluster->dcn().bytes_sent(), dst_total);
  // Prefill island devices are clean (devices 0..1 are island 0).
  EXPECT_EQ(store.logical_live_bytes(hw::DeviceId(0)), 0);
  EXPECT_EQ(store.logical_live_bytes(hw::DeviceId(1)), 0);

  w.sim.Run();
  EXPECT_EQ(w.metrics.finished(), 1);
  w.ExpectNoLeaks(4);
}

// ------------------------------------------------- decode enqueue ordering --

TEST(DisaggOrderingTest, EnqueueFollowsKvReadyOrderAcrossIterations) {
  DisaggWorld w;
  BatcherConfig cfg;
  cfg.token_budget = 32;  // request 1's prompt fills iteration 1 alone
  DisaggRouter& r = w.MakeDisagg(2, 2, KvCacheConfig{}, cfg);

  ASSERT_TRUE(r.Offer(w.Req(1, /*prefill=*/32, /*decode=*/4)));
  ASSERT_TRUE(r.Offer(w.Req(2, /*prefill=*/4, /*decode=*/4)));
  ASSERT_TRUE(r.Offer(w.Req(3, /*prefill=*/4, /*decode=*/4)));
  w.sim.Run();

  EXPECT_EQ(w.metrics.finished(), 3);
  EXPECT_EQ(r.transfers_completed(), 3);
  // Handoffs complete in prefill-iteration order (1 alone, then 2 and 3);
  // transfers are FIFO over one NIC, so kv_ready, decode enqueue, and the
  // first decode tokens all preserve that order.
  for (const char* kind : {"handoff", "kv_ready", "enqueue", "first_token"}) {
    std::vector<std::int64_t> order;
    for (const auto& e : w.trace.events()) {
      if (e.kind == kind) order.push_back(e.request);
    }
    EXPECT_EQ(order, (std::vector<std::int64_t>{1, 2, 3})) << kind;
  }
  w.ExpectNoLeaks(4);
}

// ---------------------------------------------------- fault composition --

// Crash a prefill-island device while the KV is crossing the DCN: the
// completion check sees the moved failure epoch, releases the copies on
// BOTH islands (nothing orphaned), and the request re-prefills against the
// remapped slice. ASan (CI sanitize job) verifies no leaked store refs.
TEST(DisaggCrashTest, CrashMidTransferReleasesBothIslandsAndReprefills) {
  DisaggWorld w(GiB(1), /*devices_per_host=*/4);
  DisaggRouter& r = w.MakeDisagg(2, 2, KvCacheConfig{}, BatcherConfig{});
  // Slow the prefill host's NIC to 2% so the transfer is unambiguously in
  // flight when the crash lands.
  w.cluster->dcn().SetNicBandwidthScale(hw::HostId(0), 0.02);

  ASSERT_TRUE(r.Offer(w.Req(1, /*prefill=*/64, /*decode=*/4)));
  faults::FaultPlan plan;
  plan.CrashDevice(hw::DeviceId(0), TimePoint() + Duration::Millis(2),
                   /*down_for=*/Duration::Millis(1));
  faults::FaultInjector injector(w.cluster.get(), w.runtime.get(),
                                 std::move(plan));
  injector.Arm();

  // The failed transfer must release the decode island's partial buffer in
  // the same event that detects the crash.
  ASSERT_TRUE(
      w.sim.RunUntilPredicate([&] { return r.transfers_failed() == 1; }));
  EXPECT_FALSE(w.decode->kv().Contains(1));
  EXPECT_EQ(w.decode->kv().live_bytes_per_shard(), 0);
  const auto fail = Find(w.trace, "kv_fail", 1);
  ASSERT_TRUE(fail.has_value());

  w.sim.Run();
  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_TRUE(r.idle());
  EXPECT_EQ(w.metrics.finished(), 1);
  EXPECT_EQ(r.reprefills(), 1);
  EXPECT_GE(r.transfers_completed(), 1);
  const auto requeue = Find(w.trace, "requeue", 1);
  ASSERT_TRUE(requeue.has_value());
  EXPECT_GE(requeue->detail, 2);  // attempts after the re-prefill
  EXPECT_GE(w.metrics.handoffs(), 2);  // prefilled twice
  EXPECT_EQ(w.metrics.prefills(), 1);  // but exactly one first token
  w.ExpectNoLeaks(8);
}

// Crash a decode-island device mid-decode: the decode batcher releases all
// resident KV and hands every request back through the router for a fresh
// prefill; everything still finishes.
TEST(DisaggCrashTest, DecodeIslandCrashReturnsRequestsForReprefill) {
  DisaggWorld w(GiB(1), /*devices_per_host=*/4);
  DisaggRouter& r = w.MakeDisagg(2, 2, KvCacheConfig{}, BatcherConfig{});

  ASSERT_TRUE(r.Offer(w.Req(1, /*prefill=*/8, /*decode=*/48)));
  ASSERT_TRUE(r.Offer(w.Req(2, /*prefill=*/8, /*decode=*/48)));
  faults::FaultPlan plan;
  // Devices 4..7 are island 1; the decode slice holds 4 and 5.
  plan.CrashDevice(hw::DeviceId(4), TimePoint() + Duration::Millis(1),
                   /*down_for=*/Duration::Millis(1));
  faults::FaultInjector injector(w.cluster.get(), w.runtime.get(),
                                 std::move(plan));
  injector.Arm();
  w.sim.Run();

  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_TRUE(r.idle());
  EXPECT_EQ(w.metrics.finished(), 2);
  EXPECT_GE(w.decode->aborted_iterations(), 1);
  EXPECT_GE(r.reprefills(), 1);
  EXPECT_GE(w.metrics.handoffs(), 3);  // at least one request went around twice
  EXPECT_GE(w.runtime->resource_manager().vdevs_remapped(), 1);
  w.ExpectNoLeaks(8);
}

// -------------------------------------------------- in-flight KV throttle --

TEST(DisaggThrottleTest, InflightFloorBoundsConcurrentTransfers) {
  const Bytes tok = KiB(16);
  BatcherConfig cfg;
  cfg.token_budget = 512;
  // HBM holds the iteration staging plus about two 8-token prompts' KV, so
  // the derived floor (HBM minus staging) admits two transfers, not three.
  const Bytes staging =
      cfg.activation_bytes_per_shard + cfg.output_bytes_per_shard;
  const Bytes floor = 2 * 8 * tok + 4 * tok;
  DisaggWorld w(/*hbm=*/staging + floor);
  DisaggRouter& r = w.MakeDisagg(2, 2, KvCacheConfig{tok}, cfg);
  // Slow the NIC so handoffs outpace transfers and the throttle must bite.
  w.cluster->dcn().SetNicBandwidthScale(hw::HostId(0), 0.05);

  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(r.Offer(w.Req(i, /*prefill=*/8, /*decode=*/2)));
  }
  w.sim.Run();

  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_EQ(w.metrics.finished(), 5);
  EXPECT_EQ(r.transfers_completed(), 5);
  // Two prompts' unready KV per decode shard in flight at once, never more.
  EXPECT_EQ(r.peak_inflight_per_shard(), 2 * 8 * tok);
  w.ExpectNoLeaks(4);
}

// ------------------------------------------------------- TTFT regression --

// Disaggregated TTFT must cover prefill + KV transfer + decode queueing —
// i.e. be stamped at the first *decode* token, not at prefill completion.
// A 5ms DCN latency makes any conflation of the two unmissable.
TEST(DisaggTtftTest, TtftStampedAtFirstDecodeTokenNotPrefillCompletion) {
  hw::SystemParams params = DisaggWorld::DefaultParams();
  params.dcn.latency = Duration::Millis(5);
  DisaggWorld w(GiB(1), /*devices_per_host=*/2, /*islands=*/2, params);
  DisaggRouter& r = w.MakeDisagg(2, 2, KvCacheConfig{}, BatcherConfig{});

  ASSERT_TRUE(r.Offer(w.Req(1, /*prefill=*/8, /*decode=*/4)));
  w.sim.Run();

  ASSERT_EQ(w.metrics.finished(), 1);
  ASSERT_EQ(w.metrics.handoffs(), 1);
  ASSERT_EQ(w.metrics.prefills(), 1);

  const auto prefill_done = Find(w.trace, "prefill", 1);
  const auto first_token = Find(w.trace, "first_token", 1);
  ASSERT_TRUE(prefill_done.has_value());
  ASSERT_TRUE(first_token.has_value());

  // TTFT equals the first decode token's timestamp (arrival was t=0)...
  EXPECT_NEAR(w.metrics.TtftUs(50),
              static_cast<double>(first_token->at_ns) / 1e3, 1.0);
  // ...which is at least one 5ms DCN hop after prefill completion, so the
  // two metrics cannot be conflated.
  EXPECT_GE(w.metrics.TtftUs(50), w.metrics.PrefillDoneUs(50) + 5000.0);
  EXPECT_NEAR(w.metrics.PrefillDoneUs(50),
              static_cast<double>(prefill_done->at_ns) / 1e3, 1.0);
}

// ------------------------------------------------------------ golden trace --

// Fixed two-island, two-tenant disagg scenario. Any change to batching,
// handoff, transfer, or network semantics moves these constants; update
// them only with an explanation of what legitimately changed.
TEST(DisaggGoldenTest, TwoIslandScenarioTraceChecksum) {
  DisaggWorld w(/*hbm=*/MiB(1), /*devices_per_host=*/2);
  KvCacheConfig kv;
  kv.bytes_per_token_per_shard = KiB(4);
  BatcherConfig cfg;
  cfg.max_batch = 4;
  cfg.token_budget = 128;
  cfg.kv_budget_per_device = KiB(512);
  DisaggRouter& r = w.MakeDisagg(2, 2, kv, cfg);

  TenantSpec t0;
  t0.arrivals.process = workload::ArrivalProcess::kPoisson;
  t0.arrivals.rate_per_sec = 15000;
  t0.arrivals.horizon = Duration::Millis(2);
  t0.arrivals.seed = 11;
  t0.min_prefill_tokens = 8;
  t0.max_prefill_tokens = 32;
  t0.min_decode_tokens = 4;
  t0.max_decode_tokens = 8;
  t0.token_seed = 3;

  TenantSpec t1;
  t1.arrivals.process = workload::ArrivalProcess::kUniform;
  t1.arrivals.rate_per_sec = 10000;
  t1.arrivals.horizon = Duration::Millis(2);
  t1.arrivals.seed = 22;
  t1.min_prefill_tokens = 16;
  t1.max_prefill_tokens = 48;
  t1.min_decode_tokens = 2;
  t1.max_decode_tokens = 6;
  t1.token_seed = 5;

  ServingTenant tenant0(
      0, [&r](Request req) { return r.Offer(std::move(req)); }, &w.sim, t0);
  ServingTenant tenant1(
      1, [&r](Request req) { return r.Offer(std::move(req)); }, &w.sim, t1);
  tenant0.Start();
  tenant1.Start();
  w.sim.Run();

  EXPECT_FALSE(w.sim.Deadlocked());
  EXPECT_TRUE(r.idle());
  EXPECT_EQ(w.metrics.arrivals(),
            tenant0.arrivals_generated() + tenant1.arrivals_generated());
  EXPECT_EQ(w.metrics.finished() + w.metrics.sheds(), w.metrics.arrivals());
  w.ExpectNoLeaks(4);

  // Golden constants — printed on mismatch for easy (deliberate) updates.
  const std::uint64_t kGoldenChecksum = 0xf7f81e13dc4c5f33ULL;
  const std::int64_t kGoldenFinished = 44;
  const std::int64_t kGoldenTransfers = 44;
  std::ostringstream actual;
  actual << "checksum 0x" << std::hex << w.trace.Checksum() << std::dec
         << " finished " << w.metrics.finished() << " transfers "
         << r.transfers_completed() << " arrivals " << w.metrics.arrivals()
         << " prefill_iters " << w.prefill->iterations() << " decode_iters "
         << w.decode->iterations();
  EXPECT_EQ(w.trace.Checksum(), kGoldenChecksum) << actual.str();
  EXPECT_EQ(w.metrics.finished(), kGoldenFinished) << actual.str();
  EXPECT_EQ(r.transfers_completed(), kGoldenTransfers) << actual.str();
}

}  // namespace
}  // namespace pw::serving
