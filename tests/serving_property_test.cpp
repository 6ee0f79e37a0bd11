// Randomized invariant layer for the serving regime (docs/SERVING.md).
//
// Seeded fuzz over scenario shapes — tenant count, arrival processes and
// rates, prompt/output length ranges, batch policy and budgets, HBM sized
// *below* the aggregate KV working set so spilling is live — checking on
// every scenario:
//
//   * liveness: the simulator quiesces with the batcher idle (no deadlock,
//     no wedged reservation queues), and every offered request either
//     finishes or was shed — nothing is lost or stuck;
//   * memory safety: live KV never exceeds the admission budget (probed
//     periodically during the run, not just at the end), and at quiescence
//     the ObjectStore holds zero buffers and zero logical bytes;
//   * decode-step integrity: per request, the trace shows exactly one
//     prefill per attempt and `decode_tokens - 1` token events after the
//     last prefill — a decode step against an evicted-but-unrestored KV
//     shard is impossible by construction (iterations gate on grow grants,
//     reads go through the store's residency check) and would surface here
//     as a missing or duplicated step;
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
  int devices = 2;
  BatcherConfig batcher;
  std::vector<TenantSpec> tenants;
};

// Derives a pressured scenario from one seed. HBM is sized at roughly half
// the aggregate projected KV working set of a full batch, so the spiller
// must field the overflow.
Scenario MakeScenario(std::uint64_t seed) {
  Rng rng(seed * 7919 + 1);
  Scenario s;
  s.kv_token = KiB(2) << rng.NextBounded(2);  // 2 or 4 KiB per token
  s.batcher.policy = BatchPolicy::kContinuous;
  s.batcher.max_batch = 2 + static_cast<int>(rng.NextBounded(4));  // 2..5
  s.batcher.token_budget = 64 + static_cast<int>(rng.NextBounded(128));
  s.batcher.queue_capacity = 16 + rng.NextBounded(32);

  const int tenants = 1 + static_cast<int>(rng.NextBounded(3));
  int max_kv_tokens = 1;
  for (int t = 0; t < tenants; ++t) {
    TenantSpec spec;
    spec.arrivals.process = rng.NextBounded(2) == 0
                                ? workload::ArrivalProcess::kPoisson
                                : workload::ArrivalProcess::kUniform;
    spec.arrivals.rate_per_sec = 4000 + 2000 * static_cast<double>(rng.NextBounded(8));
    spec.arrivals.horizon = Duration::Millis(2);
    spec.arrivals.seed = seed * 100 + static_cast<std::uint64_t>(t) + 1;
    spec.min_prefill_tokens = 4 + static_cast<int>(rng.NextBounded(8));
    spec.max_prefill_tokens =
        spec.min_prefill_tokens + 8 + static_cast<int>(rng.NextBounded(24));
    spec.min_decode_tokens = 2 + static_cast<int>(rng.NextBounded(4));
    spec.max_decode_tokens =
        spec.min_decode_tokens + 2 + static_cast<int>(rng.NextBounded(8));
    spec.token_seed = seed * 1000 + static_cast<std::uint64_t>(t) + 1;
    const int kv = spec.max_prefill_tokens + spec.max_decode_tokens - 1;
    if (kv > max_kv_tokens) max_kv_tokens = kv;
    s.tenants.push_back(spec);
  }

  // Full-batch projected working set per device, in KV tokens.
  const Bytes working_set =
      static_cast<Bytes>(s.batcher.max_batch) * max_kv_tokens * s.kv_token;
  s.batcher.kv_budget_per_device = working_set;
  // Staging the batcher needs beside KV on each device.
  const Bytes staging = s.batcher.activation_bytes_per_shard +
                        s.batcher.output_bytes_per_shard +
                        s.batcher.collective_bytes_per_shard;
  s.hbm = working_set / 2 + staging;  // 0.5x the KV working set
  return s;
}

struct RunResult {
  std::int64_t arrivals = 0;
  std::int64_t finished = 0;
  std::int64_t shed = 0;
  std::int64_t iterations = 0;
  std::int64_t spills = 0;
  std::int64_t fills = 0;
  std::int64_t dram_reads = 0;
  std::uint64_t checksum = 0;
  bool deadlocked = false;
  bool idle = false;
  std::int64_t live_buffers = 0;
  Bytes leaked_bytes = 0;
  Bytes probe_max_live_kv = 0;
  std::string trace_errors;
};

// Per-request trace audit: one prefill per attempt, and the finish arrives
// after exactly finish.detail - 1 token events since the last prefill.
std::string AuditTrace(const ServingTrace& trace) {
  struct PerReq {
    int prefills = 0;
    int tokens_since_prefill = 0;
    int requeues = 0;
    bool finished = false;
    bool shed = false;
  };
  std::map<std::int64_t, PerReq> reqs;
  std::ostringstream err;
  for (const auto& e : trace.events()) {
    if (e.request < 0) continue;
    PerReq& r = reqs[e.request];
    if (e.kind == "prefill") {
      ++r.prefills;
      r.tokens_since_prefill = 0;
    } else if (e.kind == "token") {
      ++r.tokens_since_prefill;
    } else if (e.kind == "requeue") {
      ++r.requeues;
    } else if (e.kind == "finish") {
      r.finished = true;
      if (r.tokens_since_prefill != e.detail - 1) {
        err << "req " << e.request << ": finish at " << e.detail
            << " tokens but " << r.tokens_since_prefill
            << " token events since last prefill\n";
      }
    } else if (e.kind == "shed") {
      r.shed = true;
    }
  }
  for (const auto& [id, r] : reqs) {
    if (r.shed) continue;
    if (!r.finished) err << "req " << id << ": neither finished nor shed\n";
    if (r.prefills != r.requeues + 1) {
      err << "req " << id << ": " << r.prefills << " prefills for "
          << r.requeues << " requeues\n";
    }
  }
  return err.str();
}

RunResult RunScenario(const Scenario& s) {
  sim::Simulator sim;
  hw::SystemParams params = hw::SystemParams::TpuDefault();
  params.host_jitter_frac = 0;
  params.hbm_capacity = s.hbm;
  hw::Cluster cluster(&sim, params, /*islands=*/1, /*hosts_per_island=*/1,
                      s.devices);
  PathwaysRuntime runtime(&cluster, pathways::PathwaysOptions{});
  pathways::Client* client = runtime.CreateClient();
  pathways::VirtualSlice slice = client->AllocateSlice(s.devices).value();

  ServingMetrics metrics;
  ServingTrace trace;
  Batcher batcher(client, slice, KvCacheConfig{s.kv_token}, s.batcher,
                  &metrics, &trace);

  std::vector<std::unique_ptr<ServingTenant>> tenants;
  for (std::size_t t = 0; t < s.tenants.size(); ++t) {
    tenants.push_back(std::make_unique<ServingTenant>(
        static_cast<int>(t), &batcher, &sim, s.tenants[t]));
    tenants.back()->Start();
  }

  // Periodic in-flight probe: live KV must stay within the admission budget
  // at every instant, not just at quiescence.
  RunResult out;
  // Bounded probes: stop once arrivals are over and the batcher drained,
  // or the recurring event would keep the simulator alive forever.
  const Duration probe_period = Duration::Micros(50);
  std::function<void()> probe = [&]() {
    const Bytes live = batcher.kv().live_bytes_per_shard();
    if (live > out.probe_max_live_kv) out.probe_max_live_kv = live;
    if (!batcher.idle() || sim.now() < TimePoint() + Duration::Millis(2)) {
      sim.Schedule(probe_period, probe);
    }
  };
  sim.Schedule(probe_period, probe);
  sim.Run();

  const pathways::ObjectStore& store = runtime.object_store();
  store.CheckNoReservationWedge();  // PW_CHECKs (aborts) on a wedge
  out.arrivals = metrics.arrivals();
  out.finished = batcher.finished();
  out.shed = batcher.shed();
  out.iterations = batcher.iterations();
  out.spills = store.spills_completed();
  out.fills = store.fills_completed();
  out.dram_reads = store.dram_reads();
  out.checksum = trace.Checksum();
  out.deadlocked = sim.Deadlocked();
  out.idle = batcher.idle();
  out.live_buffers = store.live_buffers();
  for (int d = 0; d < s.devices; ++d) {
    out.leaked_bytes += store.logical_live_bytes(hw::DeviceId(d));
  }
  out.trace_errors = AuditTrace(trace);
  return out;
}

constexpr std::uint64_t kSeeds = 10;

TEST(ServingPropertyTest, PressuredScenariosFinishOrShedEverything) {
  std::int64_t total_spills = 0;
  std::int64_t total_dram_activity = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Scenario s = MakeScenario(seed);
    const RunResult r = RunScenario(s);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_FALSE(r.deadlocked);
    EXPECT_TRUE(r.idle);
    EXPECT_GT(r.arrivals, 0);
    // Every admitted request eventually finished or was shed.
    EXPECT_EQ(r.finished + r.shed, r.arrivals);
    // Total live KV stayed within the admission budget at every probe.
    EXPECT_LE(r.probe_max_live_kv, s.batcher.kv_budget_per_device);
    // Nothing leaked.
    EXPECT_EQ(r.live_buffers, 0);
    EXPECT_EQ(r.leaked_bytes, 0);
    // Per-request decode-step integrity (see AuditTrace).
    EXPECT_EQ(r.trace_errors, "");
    total_spills += r.spills;
    total_dram_activity += r.fills + r.dram_reads;
  }
  // HBM at ~0.5x the KV working set: the sweep as a whole must have
  // actually paged KV out and read/restored it back.
  EXPECT_GT(total_spills, 0);
  EXPECT_GT(total_dram_activity, 0);
}

TEST(ServingPropertyTest, SweepIsByteIdenticalAcrossThreadCounts) {
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
        {"iterations", static_cast<double>(r.iterations)},
        {"spills", static_cast<double>(r.spills)},
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
  EXPECT_NE(csv_mt.str().find("finished"), std::string::npos);
}

}  // namespace
}  // namespace pw::serving
