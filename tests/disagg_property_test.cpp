// Randomized invariant layer for disaggregated prefill/decode serving
// (docs/SERVING.md). Seeded fuzz over two-island scenario shapes — tenant
// mixes, batch budgets, decode-island HBM sized *below* the KV working set
// so spilling is live, plus DCN partitions and NIC degradation landing
// while KV transfers are in flight — checking on every scenario:
//
//   * residency: no sequence ever decodes a token before its KV for the
//     *current attempt* is resident on the decode island (trace audit:
//     first_token/token events are only legal between a kv_ready and the
//     next requeue);
//   * memory: live KV per decode shard never exceeds the admission budget
//     (probed during the run), and the router's unready in-flight KV stays
//     under the decode island's fresh floor at its recorded peak;
//   * conservation: every arrival finishes or is shed — a DCN partition
//     mid-transfer delays delivery (held bytes replay at heal) but never
//     wedges the router, the batchers, or the reservation queues;
//   * determinism: a SweepRunner sweep over the same scenarios is
//     byte-identical between 1 worker thread and 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "hw/cluster.h"
#include "pathways/pathways.h"
#include "serving/serving.h"
#include "sim/simulator.h"
#include "sweep/param_grid.h"
#include "sweep/result_table.h"
#include "sweep/sweep_runner.h"

namespace pw::serving {
namespace {

using pathways::PathwaysRuntime;

struct Scenario {
  Bytes hbm = 0;
  Bytes kv_token = 0;
  BatcherConfig batcher;
  std::vector<TenantSpec> tenants;
  faults::FaultPlan faults;
  bool expect_partition = false;
};

// Derives a pressured two-island scenario from one seed: decode-island HBM
// at ~0.5x the projected KV working set (the spiller must field the
// overflow), and a fault schedule that partitions or degrades the prefill
// host's NIC inside the arrival window so transfers are hit mid-flight.
Scenario MakeScenario(std::uint64_t seed) {
  Rng rng(seed * 6271 + 3);
  Scenario s;
  s.kv_token = KiB(2) << rng.NextBounded(2);  // 2 or 4 KiB per token
  s.batcher.policy = BatchPolicy::kContinuous;
  s.batcher.max_batch = 2 + static_cast<int>(rng.NextBounded(3));  // 2..4
  s.batcher.token_budget = 64 + static_cast<int>(rng.NextBounded(96));
  s.batcher.queue_capacity = 16 + rng.NextBounded(32);

  const int tenants = 1 + static_cast<int>(rng.NextBounded(2));
  int max_kv_tokens = 1;
  for (int t = 0; t < tenants; ++t) {
    TenantSpec spec;
    spec.arrivals.process = rng.NextBounded(2) == 0
                                ? workload::ArrivalProcess::kPoisson
                                : workload::ArrivalProcess::kUniform;
    spec.arrivals.rate_per_sec =
        3000 + 1500 * static_cast<double>(rng.NextBounded(6));
    spec.arrivals.horizon = Duration::Millis(2);
    spec.arrivals.seed = seed * 100 + static_cast<std::uint64_t>(t) + 1;
    spec.min_prefill_tokens = 4 + static_cast<int>(rng.NextBounded(8));
    spec.max_prefill_tokens =
        spec.min_prefill_tokens + 8 + static_cast<int>(rng.NextBounded(16));
    spec.min_decode_tokens = 2 + static_cast<int>(rng.NextBounded(4));
    spec.max_decode_tokens =
        spec.min_decode_tokens + 2 + static_cast<int>(rng.NextBounded(8));
    spec.token_seed = seed * 1000 + static_cast<std::uint64_t>(t) + 1;
    const int kv = spec.max_prefill_tokens + spec.max_decode_tokens - 1;
    if (kv > max_kv_tokens) max_kv_tokens = kv;
    s.tenants.push_back(spec);
  }

  const Bytes working_set =
      static_cast<Bytes>(s.batcher.max_batch) * max_kv_tokens * s.kv_token;
  s.batcher.kv_budget_per_device = working_set;
  const Bytes staging = s.batcher.activation_bytes_per_shard +
                        s.batcher.output_bytes_per_shard +
                        s.batcher.collective_bytes_per_shard;
  s.hbm = working_set / 2 + staging;  // 0.5x the KV working set

  // Faults inside the 2ms arrival window. Host 0 is the prefill island's,
  // host 1 the decode island's; partitioning either holds every in-flight
  // KV piece on the fabric until heal.
  const TimePoint t0;
  switch (rng.NextBounded(4)) {
    case 0:  // partition the prefill host mid-window
      s.faults.PartitionHost(net::HostId(0),
                             t0 + Duration::Micros(300 + rng.NextBounded(400)),
                             Duration::Micros(200 + rng.NextBounded(600)));
      s.expect_partition = true;
      break;
    case 1:  // partition the decode host
      s.faults.PartitionHost(net::HostId(1),
                             t0 + Duration::Micros(300 + rng.NextBounded(400)),
                             Duration::Micros(200 + rng.NextBounded(600)));
      s.expect_partition = true;
      break;
    case 2:  // degrade the prefill NIC to 5..50%
      s.faults.DegradeHostLink(
          net::HostId(0), t0 + Duration::Micros(200 + rng.NextBounded(300)),
          Duration::Millis(1),
          0.05 + 0.45 * static_cast<double>(rng.NextBounded(10)) / 10.0);
      break;
    default:  // both: degrade decode NIC, then partition prefill host
      s.faults.DegradeHostLink(net::HostId(1), t0 + Duration::Micros(200),
                               Duration::Millis(1), 0.1);
      s.faults.PartitionHost(net::HostId(0),
                             t0 + Duration::Micros(500 + rng.NextBounded(300)),
                             Duration::Micros(200 + rng.NextBounded(400)));
      s.expect_partition = true;
      break;
  }
  return s;
}

struct RunResult {
  std::int64_t arrivals = 0;
  std::int64_t finished = 0;
  std::int64_t shed = 0;
  std::int64_t transfers = 0;
  std::int64_t transfer_fails = 0;
  std::int64_t reprefills = 0;
  std::int64_t spills = 0;
  std::uint64_t checksum = 0;
  bool deadlocked = false;
  bool idle = false;
  Bytes held_at_end = 0;
  std::int64_t live_buffers = 0;
  Bytes leaked_bytes = 0;
  Bytes probe_max_decode_live = 0;
  Bytes peak_inflight = 0;
  Bytes inflight_cap = 0;
  std::string trace_errors;
};

// Residency audit: a request's decode tokens are only legal while its KV
// is resident on the decode island — i.e. after a kv_ready with no
// intervening requeue/kv_fail. Also checks per-attempt event shape.
std::string AuditTrace(const ServingTrace& trace) {
  struct PerReq {
    bool resident = false;
    bool enqueued = false;
    int tokens_since_first = 0;
    bool saw_first_token = false;
    bool finished = false;
    bool shed = false;
  };
  std::map<std::int64_t, PerReq> reqs;
  std::ostringstream err;
  for (const auto& e : trace.events()) {
    if (e.request < 0) continue;
    PerReq& r = reqs[e.request];
    if (e.kind == "kv_ready") {
      r.resident = true;
    } else if (e.kind == "enqueue") {
      if (!r.resident) {
        err << "req " << e.request << ": enqueued before kv_ready\n";
      }
      r.enqueued = true;
    } else if (e.kind == "requeue" || e.kind == "kv_fail") {
      r.resident = false;
      r.enqueued = false;
      r.saw_first_token = false;
    } else if (e.kind == "first_token") {
      if (!r.resident || !r.enqueued) {
        err << "req " << e.request << ": first_token without resident KV\n";
      }
      r.saw_first_token = true;
      r.tokens_since_first = 0;
    } else if (e.kind == "token") {
      if (!r.resident) {
        err << "req " << e.request << ": token without resident KV\n";
      }
      ++r.tokens_since_first;
    } else if (e.kind == "finish") {
      r.finished = true;
      if (!r.saw_first_token) {
        err << "req " << e.request << ": finished without a first token\n";
      }
      if (r.tokens_since_first != e.detail - 1) {
        err << "req " << e.request << ": finish at " << e.detail
            << " tokens but " << r.tokens_since_first
            << " token events since first_token\n";
      }
    } else if (e.kind == "shed") {
      r.shed = true;
    }
  }
  for (const auto& [id, r] : reqs) {
    if (r.shed) continue;
    if (!r.finished) err << "req " << id << ": neither finished nor shed\n";
  }
  return err.str();
}

RunResult RunScenario(const Scenario& s) {
  sim::Simulator sim;
  hw::SystemParams params = hw::SystemParams::TpuDefault();
  params.host_jitter_frac = 0;
  params.hbm_capacity = s.hbm;
  hw::Cluster cluster(&sim, params, /*islands=*/2, /*hosts_per_island=*/1,
                      /*devices_per_host=*/2);
  PathwaysRuntime runtime(&cluster, pathways::PathwaysOptions{});
  pathways::Client* client = runtime.CreateClient();

  ServingMetrics metrics;
  ServingTrace trace;
  BatcherConfig prefill_cfg = s.batcher;
  prefill_cfg.role = BatcherRole::kPrefill;
  Batcher prefill(client, client->AllocateSlice(2, hw::IslandId(0)).value(),
                  KvCacheConfig{s.kv_token}, prefill_cfg, &metrics, &trace);
  BatcherConfig decode_cfg = s.batcher;
  decode_cfg.role = BatcherRole::kDecode;
  Batcher decode(client, client->AllocateSlice(2, hw::IslandId(1)).value(),
                 KvCacheConfig{s.kv_token}, decode_cfg, &metrics, &trace);
  DisaggRouter router({&prefill}, {&decode}, &metrics, &trace);

  std::vector<std::unique_ptr<ServingTenant>> tenants;
  for (std::size_t t = 0; t < s.tenants.size(); ++t) {
    tenants.push_back(std::make_unique<ServingTenant>(
        static_cast<int>(t),
        [&router](Request req) { return router.Offer(std::move(req)); }, &sim,
        s.tenants[t]));
    tenants.back()->Start();
  }

  faults::FaultPlan plan = s.faults;
  faults::FaultInjector injector(&cluster, &runtime, std::move(plan));
  injector.Arm();

  RunResult out;
  const Duration probe_period = Duration::Micros(50);
  std::function<void()> probe = [&]() {
    const Bytes live = decode.kv().live_bytes_per_shard();
    if (live > out.probe_max_decode_live) out.probe_max_decode_live = live;
    if (!router.idle() || sim.now() < TimePoint() + Duration::Millis(2)) {
      sim.Schedule(probe_period, probe);
    }
  };
  sim.Schedule(probe_period, probe);
  sim.Run();

  const pathways::ObjectStore& store = runtime.object_store();
  store.CheckNoReservationWedge();  // PW_CHECKs (aborts) on a wedge
  out.arrivals = metrics.arrivals();
  out.finished = metrics.finished();
  out.shed = metrics.sheds();
  out.transfers = router.transfers_completed();
  out.transfer_fails = router.transfers_failed();
  out.reprefills = router.reprefills();
  out.spills = store.spills_completed();
  out.checksum = trace.Checksum();
  out.deadlocked = sim.Deadlocked();
  out.idle = router.idle();
  out.held_at_end = cluster.dcn().held_bytes();
  out.live_buffers = store.live_buffers();
  for (int d = 0; d < 4; ++d) {
    out.leaked_bytes += store.logical_live_bytes(hw::DeviceId(d));
  }
  out.peak_inflight = router.peak_inflight_per_shard();
  out.inflight_cap = decode.hbm_floor() - decode.StagingPerShard();
  out.trace_errors = AuditTrace(trace);
  return out;
}

constexpr std::uint64_t kSeeds = 10;

TEST(DisaggPropertyTest, PartitionedTransfersNeverWedgeAndNothingLeaks) {
  std::int64_t total_transfers = 0;
  std::int64_t total_spills = 0;
  std::int64_t partitioned_runs = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Scenario s = MakeScenario(seed);
    const RunResult r = RunScenario(s);
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Liveness: partitions hold KV bytes on the fabric and replay them at
    // heal; the run must still quiesce with the router idle and the
    // fabric drained.
    EXPECT_FALSE(r.deadlocked);
    EXPECT_TRUE(r.idle);
    EXPECT_EQ(r.held_at_end, 0);
    // Conservation: every arrival finished or was shed.
    EXPECT_GT(r.arrivals, 0);
    EXPECT_EQ(r.finished + r.shed, r.arrivals);
    // Memory: live decode-island KV within the admission budget at every
    // probe; the router's unready in-flight KV under the fresh floor.
    EXPECT_LE(r.probe_max_decode_live, s.batcher.kv_budget_per_device);
    EXPECT_LE(r.peak_inflight, r.inflight_cap);
    // Nothing orphaned on either island.
    EXPECT_EQ(r.live_buffers, 0);
    EXPECT_EQ(r.leaked_bytes, 0);
    // Residency: no decode before the KV landed (see AuditTrace).
    EXPECT_EQ(r.trace_errors, "");
    total_transfers += r.transfers;
    total_spills += r.spills;
    if (s.expect_partition) ++partitioned_runs;
  }
  // The sweep exercised what it claims to: cross-island transfers under
  // partitions, with the decode island actually paging KV.
  EXPECT_GT(total_transfers, 0);
  EXPECT_GT(total_spills, 0);
  EXPECT_GE(partitioned_runs, 3);
}

TEST(DisaggPropertyTest, SweepIsByteIdenticalAcrossThreadCounts) {
  sweep::ParamGrid grid;
  std::vector<std::int64_t> seeds;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    seeds.push_back(static_cast<std::int64_t>(seed));
  }
  grid.AxisInts("seed", seeds);

  const auto point_fn = [](const sweep::ParamPoint& p) {
    const RunResult r = RunScenario(
        MakeScenario(static_cast<std::uint64_t>(p.GetInt("seed"))));
    return sweep::Metrics{
        {"finished", static_cast<double>(r.finished)},
        {"shed", static_cast<double>(r.shed)},
        {"transfers", static_cast<double>(r.transfers)},
        {"reprefills", static_cast<double>(r.reprefills)},
        // Checksum folded to stay exactly representable in a double.
        {"trace_lo", static_cast<double>(r.checksum & 0xffffffffULL)},
        {"trace_hi", static_cast<double>(r.checksum >> 32)},
    };
  };

  sweep::SweepRunner parallel(sweep::SweepRunner::Options{.threads = 4});
  sweep::SweepRunner serial(sweep::SweepRunner::Options{.threads = 1});
  std::ostringstream csv_mt, csv_1t;
  parallel.Run(grid, point_fn).WriteCsv(csv_mt);
  serial.Run(grid, point_fn).WriteCsv(csv_1t);
  EXPECT_EQ(csv_mt.str(), csv_1t.str());
  EXPECT_NE(csv_mt.str().find("transfers"), std::string::npos);
}

}  // namespace
}  // namespace pw::serving
