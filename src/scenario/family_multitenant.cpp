// Family "multitenant": N weighted clients drive Poisson open-loop traffic
// through bounded admission queues into the weighted-stride gang scheduler.
// scenarios/multitenant.json gates proportional share and determinism on
// this family's summary.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pathways/pathways.h"
#include "scenario/family_common.h"
#include "workload/workload.h"
#include "xlasim/compiled_function.h"

namespace pw::scenario {
namespace {

// The `policy` axis' values: how a client's full admission queue sheds.
struct Shed {
  const char* name;
  workload::ShedPolicy policy;
};

constexpr Shed kShedPolicies[] = {
    {"drop-tail", workload::ShedPolicy::kDropTail},
    {"reject-retry", workload::ShedPolicy::kRejectWithRetry},
};

// The workload every multitenant scenario runs; a scenario sets only the
// measurement window (MultitenantSpec).
constexpr double kNominalPodPerSec = 2500;  // offered load at rate_scale 1
constexpr int kMaxInflightGangs = 2;
constexpr int kQueueCapacity = 64;
constexpr int kMaxOutstanding = 6;
constexpr int kRetryMaxAttempts = 5;
constexpr double kRetryInitialBackoffUs = 200;
constexpr double kRetryMaxBackoffMs = 5;
constexpr double kStepUs = 330;
constexpr std::int64_t kCollectiveBytes = 64;
constexpr std::int64_t kSeedBase = 0xC0FFEE;

bool Overloaded(double scale, int clients, const std::vector<double>& w) {
  // Proportional share only binds while every client is backlogged: the
  // largest-weight client must be offered more than its weighted share of
  // capacity. 1.25x margin keeps marginal points out of the gate.
  double wsum = 0, wmax = 0;
  for (double x : w) {
    wsum += x;
    wmax = std::max(wmax, x);
  }
  return scale >= 1.25 * static_cast<double>(clients) * wmax / wsum;
}

sweep::Metrics Measure(const Scenario& sc, bool quick,
                       const sweep::ParamPoint& p) {
  using namespace pw::pathways;
  using namespace pw::workload;
  const MultitenantSpec& spec = sc.multitenant.For(quick);
  const int clients = static_cast<int>(p.GetInt("clients"));
  const double scale = p.GetDouble("rate_scale");
  const ShedPolicy policy =
      FindByName(kShedPolicies, p.GetString("policy")).policy;

  sim::Simulator sim;
  auto cluster = BuildCluster(&sim, sc.cluster, BaseSystemParams(sc.cluster));
  PathwaysOptions options;
  options.policy = SchedulerPolicy::kWeightedStride;
  // Shallow window: the policy decides often.
  options.max_inflight_gangs = kMaxInflightGangs;
  PathwaysRuntime runtime(cluster.get(), options);

  const Duration warmup = Duration::Millis(spec.warmup_ms);
  const Duration horizon = Duration::Millis(spec.horizon_ms);

  std::vector<double> weights(static_cast<std::size_t>(clients));
  double wsum = 0;
  for (int i = 0; i < clients; ++i) {
    weights[static_cast<std::size_t>(i)] = static_cast<double>(1 << i);
    wsum += weights[static_cast<std::size_t>(i)];
  }

  const int shards = cluster->num_devices();
  std::vector<std::unique_ptr<PathwaysProgram>> programs;
  std::vector<std::unique_ptr<OpenLoopGenerator>> gens;
  std::vector<Client*> tenants;
  for (int i = 0; i < clients; ++i) {
    Client* client = runtime.CreateClient(weights[static_cast<std::size_t>(i)]);
    tenants.push_back(client);
    auto slice = client->AllocateSlice(shards).value();
    ProgramBuilder pb("serve" + std::to_string(i));
    pb.Call(xlasim::CompiledFunction::Synthetic(
                "infer", shards, Duration::Micros(kStepUs),
                net::CollectiveKind::kAllReduce, kCollectiveBytes),
            slice, {});
    programs.push_back(
        std::make_unique<PathwaysProgram>(std::move(pb).Build()));

    OpenLoopSpec ospec;
    ospec.process = ArrivalProcess::kPoisson;
    // Equal offered load per client: shares then reflect the scheduler's
    // weights, not the arrival mix.
    ospec.rate_per_sec = scale * kNominalPodPerSec / clients;
    ospec.horizon = horizon;
    ospec.seed = static_cast<std::uint64_t>(kSeedBase) +
                 1000 * p.index() + static_cast<std::uint64_t>(i);
    AdmissionOptions adm;
    adm.capacity = static_cast<std::size_t>(kQueueCapacity);
    // Larger than max_inflight_gangs so the stride scheduler — not each
    // client's submit round-trip — is the bottleneck under overload.
    adm.max_outstanding = kMaxOutstanding;
    adm.policy = policy;
    adm.retry.max_attempts = kRetryMaxAttempts;
    adm.retry.initial_backoff = Duration::Micros(kRetryInitialBackoffUs);
    adm.retry.max_backoff = Duration::Millis(kRetryMaxBackoffMs);
    gens.push_back(std::make_unique<OpenLoopGenerator>(
        client, programs.back().get(), ospec, adm));
    gens.back()->Start();
  }

  // Every reported metric covers the same steady-state window
  // [warmup, horizon): at warmup the counters are snapshotted, the
  // distribution state (latency samples, depth histograms) is reset, and
  // the scheduler's cumulative per-client accounting is baselined.
  std::vector<std::int64_t> base(static_cast<std::size_t>(clients), 0);
  std::int64_t base_arrivals = 0, base_sheds = 0, base_gangs = 0;
  double base_wait_us = 0;
  sim.ScheduleAt(TimePoint() + warmup, [&] {
    for (int i = 0; i < clients; ++i) {
      LatencyRecorder& r = gens[static_cast<std::size_t>(i)]->recorder();
      base[static_cast<std::size_t>(i)] = r.completions();
      base_arrivals += r.arrivals();
      base_sheds += r.sheds();
      r.BeginMeasurementWindow();
    }
    for (Client* t : tenants) {
      const auto stats = runtime.SchedStatsFor(t->id());
      base_gangs += stats.gangs_dispatched;
      base_wait_us += stats.queue_wait.ToMicros();
    }
  });
  sim.RunUntil(TimePoint() + horizon);

  const double window_s = (horizon - warmup).ToSeconds();
  std::vector<double> goodput(static_cast<std::size_t>(clients));
  double total = 0;
  std::int64_t arrivals = 0, sheds = 0, gangs = 0;
  double wait_us = 0;
  for (int i = 0; i < clients; ++i) {
    const LatencyRecorder& r = gens[static_cast<std::size_t>(i)]->recorder();
    goodput[static_cast<std::size_t>(i)] = static_cast<double>(
        r.completions() - base[static_cast<std::size_t>(i)]);
    total += goodput[static_cast<std::size_t>(i)];
    arrivals += r.arrivals();
    sheds += r.sheds();
  }
  arrivals -= base_arrivals;
  sheds -= base_sheds;
  for (Client* t : tenants) {
    const auto stats = runtime.SchedStatsFor(t->id());
    gangs += stats.gangs_dispatched;
    wait_us += stats.queue_wait.ToMicros();
  }
  gangs -= base_gangs;
  wait_us -= base_wait_us;
  const std::int64_t rebases = runtime.total_pass_rebases();

  LatencyRecorder merged(static_cast<std::size_t>(kQueueCapacity));
  for (const auto& g : gens) merged.Merge(g->recorder());

  // Everything was sampled at the horizon; now drain the backlog (arrivals
  // have stopped) so no in-flight execution is torn down mid-run.
  sim.Run();

  const bool overloaded = Overloaded(scale, clients, weights);
  sweep::Metrics m;
  double share_err_max = 0;
  for (int i = 0; i < clients; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::string suffix = "_c" + std::to_string(i);
    const double share = total > 0 ? goodput[idx] / total : 0.0;
    const double target = weights[idx] / wsum;
    if (overloaded && target > 0) {
      share_err_max = std::max(share_err_max,
                               std::abs(share - target) / target);
    }
    m.emplace_back("share" + suffix, share);
    m.emplace_back("target" + suffix, target);
    m.emplace_back("goodput_per_s" + suffix, goodput[idx] / window_s);
  }
  m.emplace_back("goodput_total_per_s", total / window_s);
  m.emplace_back("share_err_max", share_err_max);
  m.emplace_back("overloaded", overloaded ? 1.0 : 0.0);
  m.emplace_back("shed_frac",
                 arrivals > 0 ? static_cast<double>(sheds) /
                                    static_cast<double>(arrivals)
                              : 0.0);
  m.emplace_back("p50_us", merged.LatencyUs(50));
  m.emplace_back("p95_us", merged.LatencyUs(95));
  m.emplace_back("p99_us", merged.LatencyUs(99));
  // Admission-queue depth a typical arrival found, and the slice of
  // end-to-end latency spent waiting in the *scheduler's* queues (per
  // dispatched gang) — together they locate where requests spend their
  // time as overload grows.
  m.emplace_back("qdepth_mean", merged.MeanQueueDepth());
  m.emplace_back("sched_wait_us_per_gang",
                 gangs > 0 ? wait_us / static_cast<double>(gangs) : 0.0);
  m.emplace_back("pass_rebases", static_cast<double>(rebases));
  return m;
}

std::map<std::string, double> Summarize(
    const Scenario&, bool quick, const sweep::ResultTable& table,
    const std::vector<sweep::ParamPoint>&, bool deterministic) {
  double gate_err = 0;
  for (const auto& row : table.rows()) {
    if (row.Metric("overloaded") > 0.5) {
      gate_err = std::max(gate_err, row.Metric("share_err_max"));
    }
  }
  return {{"max_share_err_overloaded", gate_err},
          {"share_tolerance", quick ? 0.10 : 0.05},
          {"deterministic", deterministic ? 1.0 : 0.0}};
}

}  // namespace

Family MakeMultitenantFamily() {
  Family f;
  f.name = "multitenant";
  f.description =
      "weighted open-loop clients through the stride gang scheduler "
      "(proportional share under overload)";
  f.axes = {{"clients", AxisKind::kInt},
            {"rate_scale", AxisKind::kDouble},
            {"policy", AxisKind::kString, NamesOf(kShedPolicies)}};
  f.check_determinism = true;
  f.measure = Measure;
  f.summarize = Summarize;
  return f;
}

}  // namespace pw::scenario
