// Family "clients": N closed-loop clients share one pod (§5.2), each running
// a single gang-scheduled computation of `compute_ms` over every device,
// measured against N multi-controller JAX jobs time-sharing the same pod.
// The `policy` axis picks the scheduling regime:
//   fifo    the default runtime (FIFO gang scheduler, 64 gangs in flight),
//           one program outstanding per client: the closed loops of Figs. 8
//           and 11, whose throughput and utilization ramp with the clients;
//   stride  the weighted-stride scheduler with a 2-gang window and every
//           client backlogged (one program more than the window), so the
//           scheduler, not a client's submit round trip, sets its share:
//           Fig. 9.
// `weights` ("1:2:4:8") are the clients' proportional-share weights, repeated
// over the clients. scenarios/fig8_multitenancy.json, fig9_fairness.json and
// fig11_util.json gate the rows.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/logging.h"
#include "pathways/pathways.h"
#include "scenario/family_common.h"
#include "sim/serial_resource.h"
#include "xlasim/compiled_function.h"

namespace pw::scenario {
namespace {

using pathways::Client;
using pathways::PathwaysProgram;
using pathways::PathwaysRuntime;

constexpr Duration kWarmup = Duration::Millis(300);
constexpr Duration kMeasure = Duration::Seconds(2);

// The `policy` axis' values (see the header comment).
struct Policy {
  const char* name;
  pathways::SchedulerPolicy policy;
};

constexpr Policy kPolicies[] = {
    {"fifo", pathways::SchedulerPolicy::kFifo},
    {"stride", pathways::SchedulerPolicy::kWeightedStride},
};

// Parses `weights` into one cycle of per-client weights; returns what is
// wrong with the text, or "" if every item is a finite positive number.
// `pwsim validate` runs it on every value (the axis' FamilyAxis::check).
std::string ParseWeights(const std::string& text, std::vector<double>* cycle) {
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t end = std::min(text.find(':', pos), text.size());
    const std::string item = text.substr(pos, end - pos);
    char* stop = nullptr;
    const double w = std::strtod(item.c_str(), &stop);
    if (item.empty() || *stop != '\0' || !std::isfinite(w) || w <= 0) {
      return "weights '" + text +
             "' are not finite positive numbers separated by ':'";
    }
    cycle->push_back(w);
    pos = end + 1;
  }
  return "";
}

std::string CheckWeights(const std::string& text) {
  std::vector<double> cycle;
  return ParseWeights(text, &cycle);
}

std::vector<double> Weights(const std::string& text, int clients) {
  std::vector<double> cycle;
  const std::string problem = ParseWeights(text, &cycle);
  PW_CHECK(problem.empty()) << "clients: " << problem;
  std::vector<double> weights;
  for (int c = 0; c < clients; ++c) {
    weights.push_back(cycle[static_cast<std::size_t>(c) % cycle.size()]);
  }
  return weights;
}

// One client's closed loop: resubmit as soon as a run completes, until
// stopped.
struct Loop {
  Client* client;
  PathwaysProgram* prog;
  std::int64_t* completed;
  const bool* counting;
  const bool* stopped;
  void Go() {
    client->Run(prog).Then([this](const pathways::ExecutionResult& r) {
      if (*counting) ++*completed;
      for (const auto& out : r.outputs) {
        client->runtime().object_store().Release(out.id);
      }
      if (!*stopped) Go();
    });
  }
};

// JAX: concurrent multi-controller jobs own every device while they run, so
// their programs serialize on the pod with a context switch (XLA program and
// buffer swap); the host's Python interpreter dispatching them is shared.
double MeasureJax(const Scenario& sc, int clients, Duration compute) {
  sim::Simulator sim;
  auto cluster = BuildCluster(&sim, sc.cluster, BaseSystemParams(sc.cluster));
  const Duration body =
      cluster->island(0).collectives().AllReduce(4, cluster->num_devices()) +
      compute;
  const Duration python = cluster->params().python_call_overhead;
  const Duration context_switch = Duration::Micros(150);
  std::int64_t completed = 0;
  bool counting = false;
  sim::SerialResource pod(&sim, "pod");
  sim::SerialResource host_python(&sim, "python");
  struct JaxLoop {
    sim::SerialResource* pod;
    sim::SerialResource* python;
    Duration python_cost;
    Duration program_cost;
    std::int64_t* completed;
    const bool* counting;
    void Go() {
      python->Submit(python_cost, [this] {
        pod->Submit(program_cost, [this] {
          if (*counting) ++*completed;
          Go();
        });
      });
    }
  };
  std::vector<std::unique_ptr<JaxLoop>> loops;
  for (int c = 0; c < clients; ++c) {
    loops.push_back(std::make_unique<JaxLoop>(JaxLoop{
        &pod, &host_python, python, context_switch + body, &completed,
        &counting}));
    loops.back()->Go();
  }
  sim.RunFor(kWarmup);
  counting = true;
  sim.RunFor(kMeasure);
  return static_cast<double>(completed) / kMeasure.ToSeconds();
}

sweep::Metrics Measure(const Scenario& sc, bool, const sweep::ParamPoint& p) {
  using namespace pw::pathways;
  const int clients = static_cast<int>(p.GetInt("clients"));
  const Duration compute = Duration::Millis(p.GetDouble("compute_ms"));
  const SchedulerPolicy policy =
      FindByName(kPolicies, p.GetString("policy")).policy;
  const bool stride = policy == SchedulerPolicy::kWeightedStride;
  const std::vector<double> weights = Weights(p.GetString("weights"), clients);

  sim::Simulator sim;
  auto cluster = BuildCluster(&sim, sc.cluster, BaseSystemParams(sc.cluster));
  PathwaysOptions options;
  options.policy = policy;
  if (stride) options.max_inflight_gangs = 2;
  PathwaysRuntime runtime(cluster.get(), options);
  const int shards = cluster->num_devices();
  std::vector<Client*> tenants;
  std::vector<std::unique_ptr<PathwaysProgram>> programs;
  for (int c = 0; c < clients; ++c) {
    Client* client = runtime.CreateClient(weights[static_cast<std::size_t>(c)]);
    tenants.push_back(client);
    auto slice = client->AllocateSlice(shards).value();
    ProgramBuilder pb("op");
    pb.Call(xlasim::CompiledFunction::Synthetic(
                "op", shards, compute, net::CollectiveKind::kAllReduce, 4),
            slice, {});
    programs.push_back(
        std::make_unique<PathwaysProgram>(std::move(pb).Build()));
  }
  const int outstanding = stride ? options.max_inflight_gangs + 1 : 1;
  std::int64_t completed = 0;
  bool counting = false, stopped = false;
  std::vector<std::unique_ptr<Loop>> loops;
  for (int c = 0; c < clients; ++c) {
    for (int k = 0; k < outstanding; ++k) {
      loops.push_back(std::make_unique<Loop>(
          Loop{tenants[static_cast<std::size_t>(c)],
               programs[static_cast<std::size_t>(c)].get(), &completed,
               &counting, &stopped}));
      loops.back()->Go();
    }
  }

  // The metrics are window deltas of these cumulative counters.
  struct Counters {
    std::vector<std::int64_t> gangs;  // dispatched, per client
    Duration busy;                    // summed over devices
  };
  const auto read = [&] {
    Counters n;
    for (Client* t : tenants) {
      n.gangs.push_back(runtime.SchedStatsFor(t->id()).gangs_dispatched);
    }
    for (int d = 0; d < shards; ++d) n.busy += cluster->device(d).busy_time();
    return n;
  };
  sim.RunFor(kWarmup);
  const Counters before = read();
  counting = true;
  sim.RunFor(kMeasure);
  const Counters after = read();
  // Drain the programs in flight: an execution torn down mid-run leaks.
  counting = false;
  stopped = true;
  sim.Run();

  const double pw_rate = static_cast<double>(completed) / kMeasure.ToSeconds();
  const double jax_rate = MeasureJax(sc, clients, compute);
  sweep::Metrics m = {
      {"pw_comp_per_sec", pw_rate},
      {"jax_comp_per_sec", jax_rate},
      {"pw_over_jax", pw_rate / jax_rate},
      {"utilization", (after.busy - before.busy) / (kMeasure * shards)}};
  if (stride) {
    // Every client runs the same program, so its share of the dispatched
    // gangs is its share of device time.
    const auto sum = [](const auto& v) {
      return std::accumulate(v.begin(), v.end(), 0.0);
    };
    const double total = sum(after.gangs) - sum(before.gangs);
    const double weight_sum = sum(weights);
    double max_err = 0;
    for (int c = 0; c < clients; ++c) {
      const auto i = static_cast<std::size_t>(c);
      const double share =
          100.0 * static_cast<double>(after.gangs[i] - before.gangs[i]) / total;
      const double target = 100.0 * weights[i] / weight_sum;
      m.emplace_back("share_pct_c" + std::to_string(c), share);
      m.emplace_back("target_pct_c" + std::to_string(c), target);
      max_err = std::max(max_err, std::abs(share - target));
    }
    m.emplace_back("max_share_err_pp", max_err);
  }
  return m;
}

}  // namespace

Family MakeClientsFamily() {
  Family f;
  f.name = "clients";
  f.description =
      "Figs. 8, 9, 11: closed-loop clients sharing a pod: throughput vs "
      "JAX, utilization, proportional share";
  f.axes = {{"clients", AxisKind::kInt},
            {"compute_ms", AxisKind::kDouble},
            {"policy", AxisKind::kString, NamesOf(kPolicies)},
            {"weights", AxisKind::kString, {}, CheckWeights}};
  f.check_determinism = false;  // no summary reads it
  f.measure = Measure;
  return f;
}

}  // namespace pw::scenario
