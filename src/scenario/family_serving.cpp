// Families "serving" and "serving_disagg": iteration-level batching with
// per-sequence KV in the ObjectStore, colocated (continuous vs static under
// KV budgets) and disaggregated (prefill islands streaming KV over the DCN
// to decode islands, vs a colocated arm at equal device count). Pass/fail
// thresholds are the "gates" of scenarios/serving{,_disagg}.json.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "models/transformer.h"
#include "pathways/pathways.h"
#include "scenario/family_common.h"
#include "serving/serving.h"

namespace pw::scenario {
namespace {

using pathways::PathwaysRuntime;
using serving::BatcherConfig;
using serving::BatchPolicy;
using serving::KvCacheConfig;
using serving::ServingMetrics;
using serving::ServingTenant;
using serving::ServingTrace;
using serving::TenantSpec;

// The request shape both families offer; a scenario sets only the arrival
// horizon (ServingSpec, DisaggSpec).
constexpr int kMaxBatch = 8;
constexpr int kTokenBudget = 256;
constexpr int kMinPrefillTokens = 8;
constexpr int kMaxPrefillTokens = 48;
constexpr int kMinDecodeTokens = 2;
constexpr int kMaxDecodeTokens = 32;
constexpr std::uint64_t kArrivalSeedBase = 11;
constexpr std::uint64_t kArrivalSeedStride = 17;
constexpr std::uint64_t kTokenSeedBase = 101;
// Projected full KV of one worst-case sequence, per device shard.
constexpr int kMaxKvTokens = kMaxPrefillTokens + kMaxDecodeTokens - 1;

// Tenant `t` of the two every serving arm runs, offering half of `rate`.
TenantSpec MakeTenantSpec(double horizon_ms, int t, double rate) {
  TenantSpec ts;
  ts.arrivals.process = t == 0 ? workload::ArrivalProcess::kPoisson
                               : workload::ArrivalProcess::kUniform;
  ts.arrivals.rate_per_sec = rate / 2;
  ts.arrivals.horizon = Duration::Millis(horizon_ms);
  ts.arrivals.seed =
      kArrivalSeedBase + static_cast<std::uint64_t>(t) * kArrivalSeedStride;
  ts.min_prefill_tokens = kMinPrefillTokens;
  ts.max_prefill_tokens = kMaxPrefillTokens;
  ts.min_decode_tokens = kMinDecodeTokens;
  ts.max_decode_tokens = kMaxDecodeTokens;
  ts.token_seed = kTokenSeedBase + static_cast<std::uint64_t>(t);
  return ts;
}

// Whether a drained serving arm stalled, and how many buffers it left live.
struct ArmHealth {
  bool deadlocked = false;
  double leaked_buffers = 0;
};

// Runs one serving arm: its two tenants offer `rate` into `sink` until
// `horizon_ms`, and the simulator drains. A reservation wedge dies here
// naming its cycle. The arm is deadlocked if the engine reports blocked
// work, `idle()` is false (work is left in the serving stack), or an
// arrival was neither finished nor shed.
ArmHealth RunArm(sim::Simulator* sim, pathways::ObjectStore* store,
                 const ServingTenant::OfferSink& sink, double horizon_ms,
                 double rate, const ServingMetrics& metrics,
                 const std::function<bool()>& idle) {
  ServingTenant tenant0(0, sink, sim, MakeTenantSpec(horizon_ms, 0, rate));
  ServingTenant tenant1(1, sink, sim, MakeTenantSpec(horizon_ms, 1, rate));
  tenant0.Start();
  tenant1.Start();
  sim->Run();

  store->CheckNoReservationWedge();
  const bool all_accounted =
      metrics.finished() + metrics.sheds() == metrics.arrivals();
  return {sim->Deadlocked() || !idle() || !all_accounted,
          static_cast<double>(store->live_buffers())};
}

// The serving trace's checksum folded into two doubles, so any
// nondeterminism in event order shows up in the cross-thread-count CSV
// comparison.
void AddTraceChecksum(sweep::Metrics* m, const std::string& prefix,
                      const ServingTrace& trace) {
  m->emplace_back(prefix + "trace_lo",
                  static_cast<double>(trace.Checksum() & 0xffffffffULL));
  m->emplace_back(prefix + "trace_hi",
                  static_cast<double>(trace.Checksum() >> 32));
}

// --- family "serving" ------------------------------------------------------

// KV bytes per token per device shard, and the HBM each device gets: a
// fraction of a full batch's projected KV plus fixed staging headroom.
constexpr std::int64_t kKvBytesPerToken = 4096;
constexpr double kHbmFracOfWorkingSet = 0.2;
constexpr double kHbmHeadroomKib = 128;

sweep::Metrics MeasureServing(const Scenario& sc, bool quick,
                              const sweep::ParamPoint& p) {
  const double horizon_ms = sc.serving.For(quick).horizon_ms;
  const double rate = p.GetDouble("rate_per_s");  // total across tenants
  const bool continuous = p.GetInt("policy_continuous") != 0;
  const double kv_scale = p.GetDouble("kv_scale");

  // Aggregate projected KV working set of a full batch, per device shard.
  const Bytes working_set_per_shard =
      static_cast<Bytes>(kMaxBatch) * kMaxKvTokens * kKvBytesPerToken;

  sim::Simulator sim;
  hw::SystemParams params = BaseSystemParams(sc.cluster);
  BatcherConfig cfg;
  cfg.policy = continuous ? BatchPolicy::kContinuous : BatchPolicy::kStatic;
  cfg.max_batch = kMaxBatch;
  cfg.token_budget = kTokenBudget;
  cfg.kv_budget_per_device = static_cast<Bytes>(
      kv_scale * static_cast<double>(working_set_per_shard));
  // HBM far below the working set (plus fixed staging headroom): even the
  // 0.5x-budget point must overflow KV into host DRAM to keep serving.
  params.hbm_capacity =
      static_cast<Bytes>(kHbmFracOfWorkingSet *
                         static_cast<double>(working_set_per_shard)) +
      cfg.activation_bytes_per_shard + cfg.output_bytes_per_shard +
      KiB(kHbmHeadroomKib);
  auto cluster = BuildCluster(&sim, sc.cluster, params);
  PathwaysRuntime runtime(cluster.get(), pathways::PathwaysOptions{});
  pathways::Client* client = runtime.CreateClient();
  pathways::VirtualSlice slice =
      client->AllocateSlice(cluster->num_devices()).value();

  ServingMetrics metrics;
  ServingTrace trace;
  serving::Batcher batcher(client, slice, KvCacheConfig{kKvBytesPerToken},
                           cfg, &metrics, &trace);
  pathways::ObjectStore& store = runtime.object_store();
  const ArmHealth health = RunArm(
      &sim, &store,
      [&batcher](serving::Request req) {
        return batcher.Offer(std::move(req));
      },
      horizon_ms, rate, metrics, [&batcher] { return batcher.idle(); });
  const double seconds = sim.now().ToSeconds();

  sweep::Metrics m;
  m.emplace_back("arrivals", static_cast<double>(metrics.arrivals()));
  m.emplace_back("finished", static_cast<double>(batcher.finished()));
  m.emplace_back("shed", static_cast<double>(batcher.shed()));
  m.emplace_back("iterations", static_cast<double>(batcher.iterations()));
  m.emplace_back("goodput_per_s",
                 static_cast<double>(batcher.finished()) / seconds);
  m.emplace_back("tokens_per_s",
                 static_cast<double>(metrics.prefills() + metrics.tokens()) /
                     seconds);
  m.emplace_back("ttft_p50_us", metrics.TtftUs(50));
  m.emplace_back("ttft_p99_us", metrics.TtftUs(99));
  m.emplace_back("token_p50_us", metrics.TokenLatencyUs(50));
  m.emplace_back("token_p99_us", metrics.TokenLatencyUs(99));
  m.emplace_back("spills", static_cast<double>(store.spills_completed()));
  m.emplace_back("dram_reads", static_cast<double>(store.dram_reads()));
  m.emplace_back("kv_grows", static_cast<double>(store.grows_completed()));
  m.emplace_back("deadlocked", health.deadlocked ? 1.0 : 0.0);
  m.emplace_back("leaked_buffers", health.leaked_buffers);
  AddTraceChecksum(&m, "", trace);
  return m;
}

std::map<std::string, double> SummarizeServing(
    const Scenario&, bool, const sweep::ResultTable& table,
    const std::vector<sweep::ParamPoint>& points, bool deterministic) {
  double max_rate = 0, min_rate = 1e18;
  for (const auto& pt : points) {
    max_rate = std::max(max_rate, pt.GetDouble("rate_per_s"));
    min_rate = std::min(min_rate, pt.GetDouble("rate_per_s"));
  }

  bool any_deadlock = false;
  double spills_at_half_budget = 0;
  double p99_ttft_low_rate_cont = 0;
  // goodput[policy][kv_scale] at the highest swept rate.
  std::map<std::pair<int, double>, double> top_rate_goodput;
  for (std::size_t i = 0; i < table.rows().size(); ++i) {
    const auto& row = table.rows()[i];
    const double rate = points[i].GetDouble("rate_per_s");
    const bool cont = points[i].GetInt("policy_continuous") != 0;
    const double scale = points[i].GetDouble("kv_scale");
    any_deadlock |= row.Metric("deadlocked") > 0.5;
    if (scale == 0.5) spills_at_half_budget += row.Metric("spills");
    if (cont && rate == min_rate) {
      p99_ttft_low_rate_cont =
          std::max(p99_ttft_low_rate_cont, row.Metric("ttft_p99_us"));
    }
    if (rate == max_rate) {
      top_rate_goodput[{cont ? 1 : 0, scale}] = row.Metric("goodput_per_s");
    }
  }

  // Continuous-vs-static goodput at the highest swept rate, worst case
  // over KV budget scales.
  double min_speedup = 1e18;
  for (const auto& [key, goodput] : top_rate_goodput) {
    if (key.first != 1) continue;
    const auto st = top_rate_goodput.find({0, key.second});
    if (st == top_rate_goodput.end() || st->second <= 0) continue;
    min_speedup = std::min(min_speedup, goodput / st->second);
  }

  return {{"deadlocks", any_deadlock ? 1.0 : 0.0},
          {"continuous_goodput_x", min_speedup},
          {"spills_at_half_budget", spills_at_half_budget},
          {"p99_ttft_low_rate_us", p99_ttft_low_rate_cont},
          {"deterministic", deterministic ? 1.0 : 0.0}};
}

// --- family "serving_disagg" -----------------------------------------------

constexpr double kDisaggHbmHeadroomMib = 1;

// Decode-island KV working set per shard at the reference half:half split;
// HBM is fixed across every point at half of it (plus staging headroom).
Bytes DisaggHbm(const BatcherConfig& cfg, int devices_per_arm) {
  const models::TransformerConfig model =
      models::TransformerConfig::Decoder3B();
  const Bytes kv_per_shard = model.KvBytesPerToken() / (devices_per_arm / 2);
  const Bytes working_set =
      static_cast<Bytes>(kMaxBatch) * kMaxKvTokens * kv_per_shard;
  return working_set / 2 + cfg.activation_bytes_per_shard +
         cfg.output_bytes_per_shard + MiB(kDisaggHbmHeadroomMib);
}

sweep::Metrics MeasureDisagg(const Scenario& sc, bool quick,
                             const sweep::ParamPoint& p) {
  const double horizon_ms = sc.disagg.For(quick).horizon_ms;
  const double rate = p.GetDouble("rate_per_s");  // total across tenants
  const int prefill_devices = static_cast<int>(p.GetInt("prefill_devices"));
  // Per arm: P prefill + (devices_per_host - P) decode.
  const int arm_devices = sc.cluster.devices_per_host;
  const int decode_devices = arm_devices - prefill_devices;
  const double dcn_scale = p.GetDouble("dcn_scale");
  const models::TransformerConfig model =
      models::TransformerConfig::Decoder3B();

  auto base_cfg = [&] {
    BatcherConfig cfg;
    cfg.policy = BatchPolicy::kContinuous;
    cfg.max_batch = kMaxBatch;
    cfg.token_budget = kTokenBudget;
    return cfg;
  };
  // Projected-KV admission budget for a decode role with `shards` devices.
  auto kv_budget = [&](int shards) {
    return static_cast<Bytes>(kMaxBatch) * kMaxKvTokens *
           (model.KvBytesPerToken() / shards);
  };

  sweep::Metrics m;
  bool deadlocked = false;
  double leaked = 0;

  // --- Disaggregated arm: P prefill shards (island 0) + D decode (1) ---
  {
    sim::Simulator sim;
    hw::SystemParams params = BaseSystemParams(sc.cluster);
    params.hbm_capacity = DisaggHbm(base_cfg(), arm_devices);
    auto cluster = BuildCluster(&sim, sc.cluster, params);
    for (int h = 0; h < cluster->num_hosts(); ++h) {
      cluster->dcn().SetNicBandwidthScale(net::HostId(h), dcn_scale);
    }
    PathwaysRuntime runtime(cluster.get(), pathways::PathwaysOptions{});
    pathways::Client* client = runtime.CreateClient();

    const auto prefill_costs =
        serving::ModelServingCosts::Derive(model, params, prefill_devices);
    const auto decode_costs =
        serving::ModelServingCosts::Derive(model, params, decode_devices);
    ServingMetrics metrics;
    ServingTrace trace;
    BatcherConfig pcfg = base_cfg();
    pcfg.role = serving::BatcherRole::kPrefill;
    prefill_costs.Apply(&pcfg);
    serving::Batcher prefill(
        client,
        client->AllocateSlice(prefill_devices, hw::IslandId(0)).value(),
        prefill_costs.KvConfig(), pcfg, &metrics, &trace);
    BatcherConfig dcfg = base_cfg();
    dcfg.role = serving::BatcherRole::kDecode;
    dcfg.kv_budget_per_device = kv_budget(decode_devices);
    decode_costs.Apply(&dcfg);
    serving::Batcher decode(
        client,
        client->AllocateSlice(decode_devices, hw::IslandId(1)).value(),
        decode_costs.KvConfig(), dcfg, &metrics, &trace);
    serving::DisaggRouter router({&prefill}, {&decode}, &metrics, &trace);

    const ArmHealth health = RunArm(
        &sim, &runtime.object_store(),
        [&router](serving::Request req) {
          return router.Offer(std::move(req));
        },
        horizon_ms, rate, metrics, [&router] { return router.idle(); });
    deadlocked |= health.deadlocked;
    leaked += health.leaked_buffers;
    const double seconds = sim.now().ToSeconds();
    m.emplace_back("arrivals", static_cast<double>(metrics.arrivals()));
    m.emplace_back("d_finished", static_cast<double>(metrics.finished()));
    m.emplace_back("d_shed", static_cast<double>(metrics.sheds()));
    m.emplace_back("d_goodput_per_s",
                   static_cast<double>(metrics.finished()) / seconds);
    m.emplace_back("d_ttft_p50_us", metrics.TtftUs(50));
    m.emplace_back("d_ttft_p99_us", metrics.TtftUs(99));
    m.emplace_back("d_token_p50_us", metrics.TokenLatencyUs(50));
    m.emplace_back("d_token_p99_us", metrics.TokenLatencyUs(99));
    m.emplace_back("d_transfers",
                   static_cast<double>(router.transfers_completed()));
    m.emplace_back("d_reprefills", static_cast<double>(router.reprefills()));
    m.emplace_back("d_kv_mib",
                   static_cast<double>(router.bytes_transferred()) /
                       static_cast<double>(MiB(1)));
    m.emplace_back(
        "d_spills",
        static_cast<double>(runtime.object_store().spills_completed()));
    AddTraceChecksum(&m, "d_", trace);
  }

  // --- Colocated baseline: same model, same total device count ---
  {
    sim::Simulator sim;
    hw::SystemParams params = BaseSystemParams(sc.cluster);
    params.hbm_capacity = DisaggHbm(base_cfg(), arm_devices);
    auto cluster = BuildCluster(&sim, sc.cluster, params);
    PathwaysRuntime runtime(cluster.get(), pathways::PathwaysOptions{});
    pathways::Client* client = runtime.CreateClient();

    const auto costs =
        serving::ModelServingCosts::Derive(model, params, arm_devices);
    ServingMetrics metrics;
    ServingTrace trace;
    BatcherConfig cfg = base_cfg();
    cfg.kv_budget_per_device = kv_budget(arm_devices);
    costs.Apply(&cfg);
    serving::Batcher batcher(
        client, client->AllocateSlice(arm_devices, hw::IslandId(0)).value(),
        costs.KvConfig(), cfg, &metrics, &trace);

    const ArmHealth health = RunArm(
        &sim, &runtime.object_store(),
        [&batcher](serving::Request req) {
          return batcher.Offer(std::move(req));
        },
        horizon_ms, rate, metrics, [&batcher] { return batcher.idle(); });
    deadlocked |= health.deadlocked;
    leaked += health.leaked_buffers;
    const double seconds = sim.now().ToSeconds();
    m.emplace_back("c_finished", static_cast<double>(batcher.finished()));
    m.emplace_back("c_shed", static_cast<double>(batcher.shed()));
    m.emplace_back("c_goodput_per_s",
                   static_cast<double>(batcher.finished()) / seconds);
    m.emplace_back("c_ttft_p50_us", metrics.TtftUs(50));
    m.emplace_back("c_ttft_p99_us", metrics.TtftUs(99));
    m.emplace_back("c_token_p50_us", metrics.TokenLatencyUs(50));
    m.emplace_back("c_token_p99_us", metrics.TokenLatencyUs(99));
    AddTraceChecksum(&m, "c_", trace);
  }

  m.emplace_back("deadlocked", deadlocked ? 1.0 : 0.0);
  m.emplace_back("leaked_buffers", leaked);
  return m;
}

std::map<std::string, double> SummarizeDisagg(
    const Scenario&, bool, const sweep::ResultTable& table,
    const std::vector<sweep::ParamPoint>& points, bool deterministic) {
  double max_rate = 0;
  for (const auto& pt : points) {
    max_rate = std::max(max_rate, pt.GetDouble("rate_per_s"));
  }

  bool any_deadlock = false;
  double total_transfers = 0;
  double total_disagg_spills = 0;
  // Best (lowest) disagg p99 token latency over ratios at the top rate on
  // the healthy fabric, and colocated's p99 at the same rate.
  double best_d_tok_p99 = 1e18, best_d_ttft_p99 = 0, top_c_tok_p99 = 0;
  int best_ratio = 0;
  for (std::size_t i = 0; i < table.rows().size(); ++i) {
    const auto& row = table.rows()[i];
    const double rate = points[i].GetDouble("rate_per_s");
    const int pd = static_cast<int>(points[i].GetInt("prefill_devices"));
    const double dcn = points[i].GetDouble("dcn_scale");
    any_deadlock |= row.Metric("deadlocked") > 0.5;
    total_transfers += row.Metric("d_transfers");
    total_disagg_spills += row.Metric("d_spills");
    const double d_tok = row.Metric("d_token_p99_us");
    if (rate == max_rate && dcn == 1.0) {
      top_c_tok_p99 = row.Metric("c_token_p99_us");
      if (d_tok < best_d_tok_p99) {
        best_d_tok_p99 = d_tok;
        best_d_ttft_p99 = row.Metric("d_ttft_p99_us");
        best_ratio = pd;
      }
    }
  }

  return {{"deadlocks", any_deadlock ? 1.0 : 0.0},
          {"best_ratio_prefill_devices", static_cast<double>(best_ratio)},
          {"best_d_token_p99_us", best_d_tok_p99},
          {"top_rate_c_token_p99_us", top_c_tok_p99},
          {"best_d_ttft_p99_us", best_d_ttft_p99},
          {"transfers", total_transfers},
          {"disagg_spills", total_disagg_spills},
          {"deterministic", deterministic ? 1.0 : 0.0}};
}

}  // namespace

Family MakeServingFamily() {
  Family f;
  f.name = "serving";
  f.description =
      "continuous vs static batching with KV caches under memory pressure "
      "(rate x policy x KV-budget grid)";
  f.axes = {{"rate_per_s", AxisKind::kDouble},
            {"policy_continuous", AxisKind::kInt},
            {"kv_scale", AxisKind::kDouble}};
  f.check_determinism = true;
  f.measure = MeasureServing;
  f.summarize = SummarizeServing;
  return f;
}

Family MakeServingDisaggFamily() {
  Family f;
  f.name = "serving_disagg";
  f.description =
      "disaggregated prefill/decode over DCN with cross-island KV transfer "
      "vs a colocated arm at equal device count";
  f.axes = {{"rate_per_s", AxisKind::kDouble},
            {"prefill_devices", AxisKind::kInt},
            {"dcn_scale", AxisKind::kDouble}};
  f.check_determinism = true;
  f.measure = MeasureDisagg;
  f.summarize = SummarizeDisagg;
  return f;
}

}  // namespace pw::scenario
