#include "workloads.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "common/stats.h"
#include "hw/cluster.h"
#include "models/step_builder.h"
#include "pathways/pathways.h"
#include "serving/serving.h"
#include "sim/simulator.h"

namespace pwbench {
namespace {

using namespace pw;
using pathways::Client;
using pathways::PathwaysProgram;
using pathways::PathwaysRuntime;
using pathways::VirtualSlice;

// Sizes of one measured run: 2-4 s each on a 4-core x86 host; a benchmark
// invocation repeats the run for --seconds. The serving horizons also keep
// the largest growing vectors (serving trace, device trace spans, latency
// samples) midway between power-of-two capacities for every seed, so peak
// RSS does not jump with the seed. Smoke runs are 1/100 of these (training
// keeps its two-step minimum: step 0 is excluded from throughput).
constexpr int kPipelineSteps = 16;
constexpr int kTrainClosSteps = 3;
constexpr double kServeKvHorizonS = 34;
constexpr double kDisaggHorizonS = 530;

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

// Independent, collision-free tenant streams per benchmark seed.
std::uint64_t ArrivalSeed(std::uint64_t seed, int tenant) {
  return seed * 16 + static_cast<std::uint64_t>(tenant);
}
std::uint64_t TokenSeed(std::uint64_t seed, int tenant) {
  return seed * 16 + 8 + static_cast<std::uint64_t>(tenant);
}

// p-th percentile over `total` ops, of which the `sampled` fastest have a
// latency in `pct` (a percentile function over them) and the rest never
// produced one — those count as missing any limit (+infinity).
template <typename PercentileFn>
double PercentileWithMisses(PercentileFn pct, std::int64_t sampled,
                            std::int64_t total, double p) {
  if (sampled <= 0 || total <= 0) return std::numeric_limits<double>::max();
  const double rank = p / 100.0 * static_cast<double>(total - 1);
  if (rank > static_cast<double>(sampled - 1)) {
    return std::numeric_limits<double>::max();
  }
  return pct(sampled == 1 ? 0.0
                          : 100.0 * rank / static_cast<double>(sampled - 1));
}

// Shared state and counters of every workload: one simulator, one cluster,
// one Pathways runtime. Members are destroyed in reverse order, so the
// runtime goes before the cluster it references, and subclass state
// (batchers, programs) before both.
class SystemWorkload : public Workload {
 protected:
  explicit SystemWorkload(WorkloadConfig config) : config_(config) {}

  hw::SystemParams BaseParams() const {
    hw::SystemParams params = hw::SystemParams::TpuDefault();
    params.seed = config_.seed;
    return params;
  }

  static void EnableClos(hw::SystemParams* params, int spines) {
    params->dcn.clos.enabled = true;
    params->dcn.clos.hosts_per_leaf = 8;
    params->dcn.clos.num_spines = spines;
    params->dcn.clos.oversubscription = 1.0;
  }

  // Records the physical devices behind `slice` (utilization denominator).
  void NoteSlice(const VirtualSlice& slice) {
    for (const auto& vdev : slice.devices) {
      used_devices_.insert(
          runtime_->resource_manager().Lookup(vdev.id).value());
    }
  }

  // Invariants and counters every workload shares. Call after the run.
  void CollectCommon(RunOutcome* out) {
    auto& v = out->values;
    const double sim_s = sim_->now().ToSeconds();
    v["sim.events"] = static_cast<double>(sim_->events_executed());
    v["sim.simulated_s"] = sim_s;

    double busy_s = 0, used_busy_s = 0, peak_hbm = 0;
    std::int64_t kernels = 0;
    for (int i = 0; i < cluster_->num_devices(); ++i) {
      const hw::Device& d = cluster_->device(i);
      busy_s += d.busy_time().ToSeconds();
      kernels += d.kernels_completed();
      if (used_devices_.contains(i)) {
        used_busy_s += d.busy_time().ToSeconds();
        peak_hbm = std::max(peak_hbm,
                            static_cast<double>(d.hbm().peak_used()) /
                                static_cast<double>(d.hbm().capacity()));
      }
    }
    v["sim_util_pct"] =
        100.0 * used_busy_s /
        (static_cast<double>(used_devices_.size()) * sim_s);
    v["hw.kernels"] = static_cast<double>(kernels);
    v["hw.busy_s"] = busy_s;
    v["hw.trace_spans"] =
        static_cast<double>(cluster_->trace().spans().size());

    double ici_bytes = 0, sched_busy_s = 0;
    std::int64_t gangs = 0, msgs = 0, flows = 0;
    for (int i = 0; i < cluster_->num_islands(); ++i) {
      hw::Island& island = cluster_->island(i);
      ici_bytes += static_cast<double>(island.ici_bytes_transferred());
      if (island.ici_flow_network() != nullptr) {
        flows += island.ici_flow_network()->flows_started();
      }
      const auto& sched = runtime_->scheduler(hw::IslandId(i));
      gangs += sched.gangs_dispatched();
      msgs += sched.dispatch_messages();
      sched_busy_s += sched.scheduler_busy().ToSeconds();
    }
    v["hw.ici_gib"] = ici_bytes / kGiB;
    v["pathways.gangs"] = static_cast<double>(gangs);
    v["pathways.dispatch_msgs"] = static_cast<double>(msgs);
    v["pathways.sched_busy_pct"] =
        100.0 * sched_busy_s / (cluster_->num_islands() * sim_s);

    double wait_us = 0;
    std::int64_t waited_gangs = 0;
    for (const Client* c : clients_) {
      const auto stats = runtime_->SchedStatsFor(c->id());
      wait_us += stats.queue_wait.ToMicros();
      waited_gangs += stats.gangs_dispatched;
    }
    v["pathways.sched_wait_us_per_gang"] =
        waited_gangs > 0 ? wait_us / static_cast<double>(waited_gangs) : 0.0;

    net::DcnFabric& dcn = cluster_->dcn();
    if (dcn.flow_network() != nullptr) {
      flows += dcn.flow_network()->flows_started();
    }
    v["net.dcn_msgs"] = static_cast<double>(dcn.messages_sent());
    v["net.dcn_gib"] = static_cast<double>(dcn.bytes_sent()) / kGiB;
    v["net.flows"] = static_cast<double>(flows);

    const pathways::ObjectStore& store = runtime_->object_store();
    v["memory.spills"] = static_cast<double>(store.spills_completed());
    v["memory.spilled_gib"] =
        static_cast<double>(store.spilled_bytes_total()) / kGiB;
    v["memory.dram_reads"] = static_cast<double>(store.dram_reads());
    v["memory.fills"] = static_cast<double>(store.fills_completed());
    v["memory.peak_hbm_pct"] = 100.0 * peak_hbm;

    const std::int64_t live = store.live_buffers();
    v["pathways.live_buffers"] = static_cast<double>(live);
    if (live != 0) {
      out->errors.push_back("leaked " + std::to_string(live) +
                            " buffers after the drain");
      out->failed += live;
    }
    if (sim_->pending_events() != 0) {
      out->errors.push_back("event queue not drained");
    }
    const std::vector<std::string> blocked = sim_->BlockedEntities();
    if (!blocked.empty()) {
      out->errors.push_back("deadlocked: " + blocked.front());
    } else {
      store.CheckNoReservationWedge();  // aborts with the cycle named
    }
    out->failed = std::min(out->failed, out->attempted);
  }

  WorkloadConfig config_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<PathwaysRuntime> runtime_;
  std::vector<Client*> clients_;
  std::set<std::int64_t> used_devices_;
};

// --- training: pipeline16 and train_clos ------------------------------------

class TrainingWorkload : public SystemWorkload {
 public:
  TrainingWorkload(bool pipeline, WorkloadConfig config)
      : SystemWorkload(config),
        pipeline_(pipeline),
        model_(pipeline ? models::TransformerConfig::Decoder3B()
                        : models::TransformerConfig::Decoder64B()),
        steps_(config.smoke ? 2 : (pipeline ? kPipelineSteps
                                            : kTrainClosSteps)) {}

  void Setup(Probe& probe) override {
    sim_ = std::make_unique<sim::Simulator>();
    hw::SystemParams params = BaseParams();
    // fig12's validation arm: a single spine at R=1 is a non-blocking Clos.
    if (!pipeline_ && !config_.analytic_dcn) EnableClos(&params, 1);
    {
      Probe::Scope s(probe, "hw.build");
      cluster_ = pipeline_ ? hw::Cluster::ConfigC(sim_.get(), params)
                           : std::make_unique<hw::Cluster>(
                                 sim_.get(), params, /*islands=*/2,
                                 /*hosts_per_island=*/64,
                                 /*devices_per_host=*/8);
    }
    std::vector<VirtualSlice> slices;
    {
      Probe::Scope s(probe, "pathways.build");
      pathways::PathwaysOptions options;
      // pipeline16 is single-tenant: no throttle on S x M in-flight gangs.
      options.max_inflight_gangs = pipeline_ ? 4096 : 64;
      runtime_ = std::make_unique<PathwaysRuntime>(cluster_.get(), options);
      client_ = runtime_->CreateClient();
      if (pipeline_) {
        // Config C: stages 4k..4k+3 on island k, so three of the fifteen
        // stage boundaries cross the DCN.
        for (int s = 0; s < 16; ++s) {
          slices.push_back(
              client_->AllocateSlice(8, hw::IslandId(s / 4)).value());
        }
      } else {
        for (int i = 0; i < 2; ++i) {
          slices.push_back(
              client_->AllocateSlice(512, hw::IslandId(i)).value());
        }
      }
    }
    clients_ = {client_};
    for (const VirtualSlice& slice : slices) NoteSlice(slice);
    {
      Probe::Scope s(probe, "models.build");
      models::StepBuilder builder(model_, cluster_->params());
      program_ = std::make_unique<PathwaysProgram>(
          pipeline_ ? builder.BuildGPipeProgram(
                          slices, 64, cluster_->island(0).collectives())
                    : builder.BuildMultiIslandStep(
                          slices, 8, cluster_->island(0).collectives()));
    }
  }

  // Closed loop: one client submits the next step when the previous one
  // has completed and its outputs are released.
  void Run(Probe& probe) override {
    for (int s = 0; s < steps_; ++s) {
      const TimePoint submitted = sim_->now();
      sim::SimFuture<pathways::ExecutionResult> result;
      {
        Probe::Scope scope(probe, "pathways.submit");
        result = client_->Run(program_.get());
      }
      bool done = false;
      {
        Probe::Scope scope(probe, "sim.run");
        done = sim_->RunUntilPredicate([&result] { return result.ready(); });
      }
      if (!done || result.value().failed) break;
      {
        Probe::Scope scope(probe, "pathways.release");
        for (const auto& out : result.value().outputs) {
          runtime_->object_store().Release(out.id);
        }
      }
      step_latency_ms_.push_back((sim_->now() - submitted).ToMillis());
      if (s == 0) measure_start_ = sim_->now();
    }
    Probe::Scope scope(probe, "sim.run");
    sim_->Run();
  }

  RunOutcome Finish() override {
    RunOutcome out;
    auto& v = out.values;
    const auto completed = static_cast<std::int64_t>(step_latency_ms_.size());
    out.attempted = steps_;
    out.failed = steps_ - completed;
    if (completed < steps_) {
      out.errors.push_back("only " + std::to_string(completed) + " of " +
                           std::to_string(steps_) + " steps completed");
    }
    // Step 0 pays pipeline fill; throughput and latency use the rest.
    const double measured_s =
        completed >= 2 ? (sim_->now() - measure_start_).ToSeconds() : 0.0;
    const double steps_per_s =
        measured_s > 0 ? static_cast<double>(completed - 1) / measured_s : 0;
    v["sim_tokens_per_s"] =
        static_cast<double>(model_.tokens_per_batch) * steps_per_s;
    v["sim_goodput_ops_per_s"] = steps_per_s;
    PercentileSampler latency;
    for (std::size_t i = 1; i < step_latency_ms_.size(); ++i) {
      latency.Add(step_latency_ms_[i]);
    }
    out.op_samples = static_cast<std::int64_t>(latency.count());
    v["sim_op_p50_ms"] = latency.Percentile(50);
    v["sim_op_p99_ms"] = latency.Percentile(99);
    out.op_p999_ms = latency.Percentile(99.9);
    v["models.program_nodes"] = static_cast<double>(program_->num_nodes());
    for (const char* name :
         {"serving.iterations", "serving.kv_appends", "serving.trace_events",
          "serving.requests", "serving.shed_pct", "serving.kv_transfers",
          "serving.kv_transfer_gib", "serving.reprefills",
          "serving.token_p99_ms"}) {
      v[name] = 0;
    }
    CollectCommon(&out);
    return out;
  }

 private:
  bool pipeline_;
  models::TransformerConfig model_;
  int steps_;
  Client* client_ = nullptr;
  std::unique_ptr<PathwaysProgram> program_;
  std::vector<double> step_latency_ms_;
  TimePoint measure_start_;
};

// --- serving: serve_kv and serve_disagg_clos --------------------------------

constexpr int kMaxBatch = 8;
constexpr int kTokenBudget = 256;
constexpr int kMinPrefill = 8, kMaxPrefill = 48;
constexpr int kMinDecode = 2, kMaxDecode = 32;
constexpr int kMaxKvTokens = kMaxPrefill + kMaxDecode - 1;

class ServingWorkload : public SystemWorkload {
 protected:
  ServingWorkload(WorkloadConfig config, double rate_per_s, double horizon_s,
                  double p99_limit_ms)
      : SystemWorkload(config),
        rate_per_s_(rate_per_s),
        horizon_(Duration::Seconds(config.smoke ? horizon_s / 100
                                                : horizon_s)),
        p99_limit_ms_(p99_limit_ms) {}

  hw::SystemParams ServingParams() const {
    hw::SystemParams params = BaseParams();
    params.host_jitter_frac = 0;
    return params;
  }

  static serving::BatcherConfig BaseConfig() {
    serving::BatcherConfig cfg;
    cfg.policy = serving::BatchPolicy::kContinuous;
    cfg.max_batch = kMaxBatch;
    cfg.token_budget = kTokenBudget;
    return cfg;
  }

  // Open loop: two tenants, Poisson and uniform, each at half the rate,
  // offering through the harness's own sink so offers are timed.
  void StartTenants(Probe& probe, std::function<bool(serving::Request)> offer) {
    auto sink = [this, probe = &probe,
                 offer = std::move(offer)](serving::Request req) {
      return probe->Aggregate(
          "serving.offer", sim_->now().nanos() / 1'000'000'000,
          [&] { return offer(std::move(req)); });
    };
    for (int t = 0; t < 2; ++t) {
      serving::TenantSpec ts;
      ts.arrivals.process = t == 0 ? workload::ArrivalProcess::kPoisson
                                   : workload::ArrivalProcess::kUniform;
      ts.arrivals.rate_per_sec = rate_per_s_ / 2;
      ts.arrivals.horizon = horizon_;
      ts.arrivals.seed = ArrivalSeed(config_.seed, t);
      ts.min_prefill_tokens = kMinPrefill;
      ts.max_prefill_tokens = kMaxPrefill;
      ts.min_decode_tokens = kMinDecode;
      ts.max_decode_tokens = kMaxDecode;
      ts.token_seed = TokenSeed(config_.seed, t);
      tenants_.push_back(
          std::make_unique<serving::ServingTenant>(t, sink, sim_.get(), ts));
    }
  }

  void Run(Probe& probe) override {
    for (auto& t : tenants_) t->Start();
    Probe::Scope scope(probe, "sim.run");
    sim_->Run();
  }

  // Serving results shared by both modes; `finished` and `idle` come from
  // the batcher or the router.
  void CollectServing(std::int64_t finished, bool idle,
                      std::int64_t iterations, std::int64_t kv_appends,
                      RunOutcome* out) {
    auto& v = out->values;
    const std::int64_t arrivals = metrics_.arrivals();
    const double sim_s = sim_->now().ToSeconds();
    out->attempted = arrivals;
    out->failed = arrivals - finished;
    if (finished + metrics_.sheds() != arrivals) {
      out->errors.push_back("arrivals != finished + shed");
    }
    if (!idle) out->errors.push_back("serving did not drain");
    if (arrivals == 0) out->errors.push_back("no requests arrived");

    v["sim_tokens_per_s"] =
        static_cast<double>(metrics_.prefills() + metrics_.tokens()) / sim_s;
    v["sim_goodput_ops_per_s"] = static_cast<double>(finished) / sim_s;
    // TTFT over every arrival: a shed request misses any limit.
    auto ttft_ms = [this](double p) { return metrics_.TtftUs(p) / 1e3; };
    out->op_samples = metrics_.prefills();
    out->op_p99_limit_ms = p99_limit_ms_;
    auto ttft = [&](double p) {
      return PercentileWithMisses(ttft_ms, metrics_.prefills(), arrivals, p);
    };
    v["sim_op_p50_ms"] = ttft(50);
    v["sim_op_p99_ms"] = ttft(99);
    out->op_p999_ms = ttft(99.9);
    if (v["sim_op_p99_ms"] > p99_limit_ms_) {
      out->errors.push_back("p99 TTFT misses its " +
                            std::to_string(p99_limit_ms_) + " ms limit");
    }
    v["serving.token_p99_ms"] = metrics_.TokenLatencyUs(99) / 1e3;
    v["serving.iterations"] = static_cast<double>(iterations);
    v["serving.kv_appends"] = static_cast<double>(kv_appends);
    v["serving.trace_events"] = static_cast<double>(trace_.events().size());
    v["serving.requests"] = static_cast<double>(arrivals);
    v["serving.shed_pct"] =
        arrivals > 0 ? 100.0 * static_cast<double>(metrics_.sheds()) /
                           static_cast<double>(arrivals)
                     : 0.0;
    // Disaggregation counters; serve_disagg_clos overwrites them.
    v["serving.kv_transfers"] = 0;
    v["serving.kv_transfer_gib"] = 0;
    v["serving.reprefills"] = 0;
    v["models.program_nodes"] = 0;
    out->serving_checksum = trace_.Checksum();
  }

  double rate_per_s_;
  Duration horizon_;
  double p99_limit_ms_;
  serving::ServingMetrics metrics_;
  serving::ServingTrace trace_;
  std::vector<std::unique_ptr<serving::ServingTenant>> tenants_;
};

// Colocated continuous batching on 1 host x 2 devices with the serving
// scenario's memory pressure: KV budget 0.5x and HBM 0.2x the batch's
// projected KV working set, so KV spills to and is read through from DRAM.
class ServeKvWorkload : public ServingWorkload {
 public:
  explicit ServeKvWorkload(WorkloadConfig config)
      : ServingWorkload(config, /*rate_per_s=*/1200, kServeKvHorizonS,
                        /*p99_limit_ms=*/10) {}

  void Setup(Probe& probe) override {
    constexpr Bytes kKvBytesPerToken = 4096;
    const Bytes working_set =
        static_cast<Bytes>(kMaxBatch) * kMaxKvTokens * kKvBytesPerToken;
    sim_ = std::make_unique<sim::Simulator>();
    serving::BatcherConfig cfg = BaseConfig();
    cfg.kv_budget_per_device = working_set / 2;
    hw::SystemParams params = ServingParams();
    params.hbm_capacity = static_cast<Bytes>(0.2 * working_set) +
                          cfg.activation_bytes_per_shard +
                          cfg.output_bytes_per_shard + KiB(128);
    {
      Probe::Scope s(probe, "hw.build");
      cluster_ = std::make_unique<hw::Cluster>(sim_.get(), params, 1, 1, 2);
    }
    VirtualSlice slice;
    {
      Probe::Scope s(probe, "pathways.build");
      runtime_ = std::make_unique<PathwaysRuntime>(
          cluster_.get(), pathways::PathwaysOptions{});
      clients_ = {runtime_->CreateClient()};
      slice = clients_[0]->AllocateSlice(2).value();
    }
    NoteSlice(slice);
    Probe::Scope s(probe, "serving.build");
    batcher_ = std::make_unique<serving::Batcher>(
        clients_[0], slice, serving::KvCacheConfig{kKvBytesPerToken}, cfg,
        &metrics_, &trace_);
    StartTenants(probe, [this](serving::Request req) {
      return batcher_->Offer(std::move(req));
    });
  }

  RunOutcome Finish() override {
    RunOutcome out;
    CollectServing(batcher_->finished(), batcher_->idle(),
                   batcher_->iterations(), batcher_->kv().appends(), &out);
    CollectCommon(&out);
    return out;
  }

 private:
  std::unique_ptr<serving::Batcher> batcher_;
};

// Disaggregated Decoder3B serving on 2 islands x 1 host x 4 devices: one
// prefill device on island 0, three decode devices on island 1, KV streamed
// over the flow-level Clos DCN (serving_disagg's memory sizing).
class ServeDisaggWorkload : public ServingWorkload {
 public:
  explicit ServeDisaggWorkload(WorkloadConfig config)
      : ServingWorkload(config, /*rate_per_s=*/45, kDisaggHorizonS,
                        /*p99_limit_ms=*/150) {}

  void Setup(Probe& probe) override {
    constexpr int kPrefillDevices = 1, kDecodeDevices = 3, kArmDevices = 4;
    const models::TransformerConfig model =
        models::TransformerConfig::Decoder3B();
    sim_ = std::make_unique<sim::Simulator>();
    hw::SystemParams params = ServingParams();
    EnableClos(&params, /*spines=*/4);
    // HBM holds half the decode KV working set at a 2:2 split, plus staging.
    const serving::BatcherConfig base = BaseConfig();
    const Bytes working_set = static_cast<Bytes>(kMaxBatch) * kMaxKvTokens *
                              (model.KvBytesPerToken() / (kArmDevices / 2));
    params.hbm_capacity = working_set / 2 + base.activation_bytes_per_shard +
                          base.output_bytes_per_shard + MiB(1);
    {
      Probe::Scope s(probe, "hw.build");
      cluster_ = std::make_unique<hw::Cluster>(sim_.get(), params, 2, 1,
                                               kArmDevices);
    }
    VirtualSlice prefill_slice, decode_slice;
    {
      Probe::Scope s(probe, "pathways.build");
      runtime_ = std::make_unique<PathwaysRuntime>(
          cluster_.get(), pathways::PathwaysOptions{});
      clients_ = {runtime_->CreateClient()};
      prefill_slice =
          clients_[0]->AllocateSlice(kPrefillDevices, hw::IslandId(0)).value();
      decode_slice =
          clients_[0]->AllocateSlice(kDecodeDevices, hw::IslandId(1)).value();
    }
    NoteSlice(prefill_slice);
    NoteSlice(decode_slice);
    std::optional<serving::ModelServingCosts> prefill_costs, decode_costs;
    {
      Probe::Scope s(probe, "models.build");
      prefill_costs =
          serving::ModelServingCosts::Derive(model, params, kPrefillDevices);
      decode_costs =
          serving::ModelServingCosts::Derive(model, params, kDecodeDevices);
    }
    Probe::Scope s(probe, "serving.build");
    serving::BatcherConfig pcfg = base;
    pcfg.role = serving::BatcherRole::kPrefill;
    prefill_costs->Apply(&pcfg);
    prefill_ = std::make_unique<serving::Batcher>(
        clients_[0], prefill_slice, prefill_costs->KvConfig(), pcfg,
        &metrics_, &trace_);
    serving::BatcherConfig dcfg = base;
    dcfg.role = serving::BatcherRole::kDecode;
    dcfg.kv_budget_per_device = static_cast<Bytes>(kMaxBatch) * kMaxKvTokens *
                                (model.KvBytesPerToken() / kDecodeDevices);
    decode_costs->Apply(&dcfg);
    decode_ = std::make_unique<serving::Batcher>(
        clients_[0], decode_slice, decode_costs->KvConfig(), dcfg, &metrics_,
        &trace_);
    router_ = std::make_unique<serving::DisaggRouter>(
        std::vector<serving::Batcher*>{prefill_.get()},
        std::vector<serving::Batcher*>{decode_.get()}, &metrics_, &trace_);
    StartTenants(probe, [this](serving::Request req) {
      return router_->Offer(std::move(req));
    });
  }

  RunOutcome Finish() override {
    RunOutcome out;
    CollectServing(metrics_.finished(), router_->idle(),
                   prefill_->iterations() + decode_->iterations(),
                   prefill_->kv().appends() + decode_->kv().appends(), &out);
    out.values["serving.kv_transfers"] =
        static_cast<double>(router_->transfers_completed());
    out.values["serving.kv_transfer_gib"] =
        static_cast<double>(router_->bytes_transferred()) / kGiB;
    out.values["serving.reprefills"] =
        static_cast<double>(router_->reprefills());
    CollectCommon(&out);
    return out;
  }

 private:
  std::unique_ptr<serving::Batcher> prefill_;
  std::unique_ptr<serving::Batcher> decode_;
  std::unique_ptr<serving::DisaggRouter> router_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "pipeline16", "train_clos", "serve_kv", "serve_disagg_clos"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "pipeline16") {
    return std::make_unique<TrainingWorkload>(true, config);
  }
  if (name == "train_clos") {
    return std::make_unique<TrainingWorkload>(false, config);
  }
  if (name == "serve_kv") return std::make_unique<ServeKvWorkload>(config);
  if (name == "serve_disagg_clos") {
    return std::make_unique<ServeDisaggWorkload>(config);
  }
  return nullptr;
}

}  // namespace pwbench
