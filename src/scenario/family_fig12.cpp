// Family "fig12_twoisland": §5.3 / Figure 12 — large decoder-only LMs
// trained data-parallel over two islands connected by DCN, vs one island
// with twice the devices.
//
// The model axis fixes the per-island core count (decoder64b -> 512,
// decoder136b -> 1024). Every point also re-runs the two-island arm on the
// flow-level Clos DCN (single spine at R=1: a non-blocking fat pipe) so the
// scenario can gate "uncontended flow == analytic" at full system scale.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "models/step_builder.h"
#include "pathways/pathways.h"
#include "scenario/family_common.h"

namespace pw::scenario {
namespace {

using pathways::Client;
using pathways::PathwaysProgram;
using pathways::PathwaysRuntime;
using pathways::ProgramBuilder;
using pathways::VirtualSlice;

struct ModelPoint {
  const char* name;
  models::TransformerConfig (*config)();
  int cores_per_island;
};

constexpr ModelPoint kModels[] = {
    {"decoder64b", &models::TransformerConfig::Decoder64B, 512},
    {"decoder136b", &models::TransformerConfig::Decoder136B, 1024},
};

// The training run every fig12 scenario measures; a scenario varies only
// the model axis.
constexpr int kSteps = 3;
constexpr int kChunks = 8;
constexpr int kMaxInflightGangs = 64;
constexpr int kModelParallel = 32;  // single-island SPMD arm

struct ArmResult {
  double tokens_per_sec = 0;
  double dcn_gb_per_step = 0;
};

ArmResult MeasureDataParallel(const models::TransformerConfig& config,
                              int islands, int cores_per_island,
                              const hw::SystemParams& params) {
  using namespace pathways;
  sim::Simulator sim;
  auto cluster = std::make_unique<hw::Cluster>(&sim, params, islands,
                                               cores_per_island / 8, 8);
  PathwaysOptions options;
  options.max_inflight_gangs = kMaxInflightGangs;
  PathwaysRuntime runtime(cluster.get(), options);
  Client* client = runtime.CreateClient();
  models::StepBuilder builder(config, cluster->params());

  std::unique_ptr<PathwaysProgram> program;
  if (islands == 1) {
    ProgramBuilder pb("spmd");
    auto slice = client->AllocateSlice(cores_per_island).value();
    pb.Call(builder.SpmdStepFunction(cores_per_island,
                                     cluster->island(0).collectives(),
                                     kModelParallel),
            slice, {});
    program = std::make_unique<PathwaysProgram>(std::move(pb).Build());
  } else {
    std::vector<VirtualSlice> slices;
    for (int i = 0; i < islands; ++i) {
      slices.push_back(
          client->AllocateSlice(cores_per_island, hw::IslandId(i)).value());
    }
    program = std::make_unique<PathwaysProgram>(builder.BuildMultiIslandStep(
        slices, kChunks, cluster->island(0).collectives()));
  }
  const auto meas = models::MeasureTraining(
      client, program.get(), config.tokens_per_batch, kSteps);
  ArmResult r;
  r.tokens_per_sec = meas.tokens_per_sec;
  r.dcn_gb_per_step = static_cast<double>(cluster->dcn().bytes_sent()) /
                      (static_cast<double>(kSteps) * 1e9);
  return r;
}

sweep::Metrics Measure(const Scenario& sc, bool, const sweep::ParamPoint& p) {
  const ModelPoint& m = FindByName(kModels, p.GetString("model"));
  const models::TransformerConfig config = m.config();
  const hw::SystemParams params = BaseSystemParams(sc.cluster);

  const ArmResult two =
      MeasureDataParallel(config, 2, m.cores_per_island, params);
  const ArmResult one =
      MeasureDataParallel(config, 1, 2 * m.cores_per_island, params);

  // Flow-level validation arm: single spine at R=1 is non-blocking, so the
  // pairwise cross-island gradient exchange is uncontended and must land on
  // the analytic fabric's throughput (contention itself is the network
  // family's job).
  hw::SystemParams flow_params = params;
  flow_params.dcn.clos.enabled = true;
  flow_params.dcn.clos.hosts_per_leaf = 8;
  flow_params.dcn.clos.num_spines = 1;
  flow_params.dcn.clos.oversubscription = 1.0;
  const ArmResult flow =
      MeasureDataParallel(config, 2, m.cores_per_island, flow_params);

  return {{"two_island_tokens_per_sec", two.tokens_per_sec},
          {"one_island_tokens_per_sec", one.tokens_per_sec},
          {"efficiency", two.tokens_per_sec / one.tokens_per_sec},
          {"dcn_gb_per_step", two.dcn_gb_per_step},
          {"flow_tokens_per_sec", flow.tokens_per_sec},
          {"flow_vs_analytic_ratio",
           flow.tokens_per_sec / two.tokens_per_sec}};
}

std::map<std::string, double> Summarize(
    const Scenario&, bool, const sweep::ResultTable& table,
    const std::vector<sweep::ParamPoint>& points, bool deterministic) {
  std::map<std::string, double> summary;
  double worst_flow_drift = 0;
  for (std::size_t i = 0; i < table.rows().size(); ++i) {
    const auto& row = table.rows()[i];
    summary["efficiency_" + points[i].GetString("model")] =
        row.Metric("efficiency");
    worst_flow_drift =
        std::max(worst_flow_drift,
                 std::abs(row.Metric("flow_vs_analytic_ratio") - 1.0));
  }
  summary["worst_flow_drift"] = worst_flow_drift;
  summary["deterministic"] = deterministic ? 1.0 : 0.0;
  return summary;
}

}  // namespace

Family MakeFig12Family() {
  Family f;
  f.name = "fig12_twoisland";
  f.description =
      "Fig. 12: data-parallel LM training over two islands vs one island "
      "with 2x devices, plus the flow-level Clos validation arm";
  f.axes = {{"model", AxisKind::kString, NamesOf(kModels)}};
  // Three full training measurements per point: too slow to rerun the whole
  // grid serially for the generic determinism check (the scenario's gates
  // bound the flow-vs-analytic ratio instead).
  f.check_determinism = false;
  f.measure = Measure;
  f.summarize = Summarize;
  return f;
}

}  // namespace pw::scenario
