// Family "training": tokens/s of a language-model training step (§5.3) on
// `cores` TPU cores, as one SPMD program (stages = 1) or a GPipe pipeline of
// `stages` stages x 4*stages micro-batches spread over `islands` islands.
// Each point also measures the baseline its plan is compared against in
// the paper:
//   SPMD                    multi-controller JAX running the same step
//                           (Table 1: pw_over_jax);
//   pipeline on one island  SPMD on the same cores (Table 2: over_spmd);
//   pipeline over islands   the same pipeline on one island (Fig. 10:
//                           over_one_island).
// scenarios/table1_t5.json, table2_pipeline.json and fig10_islands.json
// gate those ratios.
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "hw/collective_group.h"
#include "models/step_builder.h"
#include "pathways/pathways.h"
#include "scenario/family_common.h"

namespace pw::scenario {
namespace {

using models::TransformerConfig;

struct Model {
  const char* name;
  TransformerConfig (*config)();
  // The core count the config's global batch is sized for; the batch
  // scales with cores / reference_cores.
  int reference_cores;
  int model_parallel;  // SPMD sharding width of a layer; -1 = all cores
};

constexpr Model kModels[] = {
    // Table 1: T5 trains hybrid data/model parallel, layers sharded 8-wide.
    {"t5_base", &TransformerConfig::T5Base, 32, 8},
    {"t5_large", &TransformerConfig::T5Large, 32, 8},
    {"t5_3b", &TransformerConfig::T5_3B, 512, 8},
    {"t5_11b", &TransformerConfig::T5_11B, 512, 8},
    // Table 2 and Fig. 10: the 3B decoder-only LM.
    {"decoder3b", &TransformerConfig::Decoder3B, 128, -1},
};

// `islands` islands of 8-core hosts holding `cores` cores in total.
std::unique_ptr<hw::Cluster> MakeCluster(sim::Simulator* sim,
                                         const hw::SystemParams& params,
                                         int islands, int cores) {
  PW_CHECK_EQ(cores % (8 * islands), 0)
      << "training: " << cores << " cores do not fill 8-core hosts on "
      << islands << " islands";
  return std::make_unique<hw::Cluster>(sim, params, islands,
                                       cores / (8 * islands), 8);
}

double MeasureSpmd(const TransformerConfig& config,
                   const hw::SystemParams& params, int cores,
                   int model_parallel) {
  using namespace pw::pathways;
  sim::Simulator sim;
  auto cluster = MakeCluster(&sim, params, 1, cores);
  PathwaysRuntime runtime(cluster.get(), PathwaysOptions{});
  Client* client = runtime.CreateClient();
  models::StepBuilder builder(config, cluster->params());
  auto slice = client->AllocateSlice(cores).value();
  ProgramBuilder pb("spmd_step");
  pb.Call(builder.SpmdStepFunction(cores, cluster->island(0).collectives(),
                                   model_parallel),
          slice, {});
  auto program = std::move(pb).Build();
  return models::MeasureTraining(client, &program, config.tokens_per_batch, 3)
      .tokens_per_sec;
}

// Multi-controller JAX: every host dispatches the step kernel to each of its
// devices (python + launch per device), four steps queued back to back. The
// step time is the spacing of device 0's kernel completions after the first.
double MeasureJaxSpmd(const TransformerConfig& config,
                      const hw::SystemParams& params, int cores,
                      int model_parallel) {
  sim::Simulator sim;
  auto cluster = MakeCluster(&sim, params, 1, cores);
  models::StepBuilder builder(config, cluster->params());
  const auto fn = builder.SpmdStepFunction(
      cores, cluster->island(0).collectives(), model_parallel);
  constexpr int kSteps = 4;
  std::vector<std::shared_ptr<hw::CollectiveGroup>> groups;
  for (int s = 0; s < kSteps; ++s) {
    groups.push_back(std::make_shared<hw::CollectiveGroup>(
        &sim, &cluster->island(0).collectives(),
        net::CollectiveKind::kAllReduce, cores, "step" + std::to_string(s)));
  }
  const Duration dispatch_cost =
      cluster->params().host_kernel_dispatch_cost +
      cluster->params().python_call_overhead /
          static_cast<std::int64_t>(cluster->host(0).devices().size());
  std::vector<TimePoint> ends;
  for (int h = 0; h < cluster->num_hosts(); ++h) {
    hw::Host& host = cluster->host(h);
    for (int s = 0; s < kSteps; ++s) {
      for (hw::Device* dev : host.devices()) {
        hw::KernelDesc kernel;
        kernel.pre_time = fn.pre_collective_time;
        kernel.post_time = fn.post_collective_time;
        kernel.collective = groups[static_cast<std::size_t>(s)];
        kernel.collective_bytes = fn.collective_bytes_per_shard;
        auto done = host.DispatchKernel(dev, std::move(kernel), dispatch_cost);
        if (h == 0 && dev == host.devices().front()) {
          done.Then([&](const sim::Unit&) { ends.push_back(sim.now()); });
        }
      }
    }
  }
  sim.Run();
  const Duration step_time =
      (ends.back() - ends.front()) / static_cast<std::int64_t>(kSteps - 1);
  return static_cast<double>(config.tokens_per_batch) / step_time.ToSeconds();
}

double MeasurePipeline(const TransformerConfig& config,
                       const hw::SystemParams& params, int cores, int stages,
                       int islands) {
  using namespace pw::pathways;
  PW_CHECK_EQ(stages % islands, 0)
      << "training: " << stages << " stages do not split over " << islands
      << " islands";
  const int micro_batches = 4 * stages;
  sim::Simulator sim;
  auto cluster = MakeCluster(&sim, params, islands, cores);
  PathwaysOptions options;
  // Single-tenant training needs no admission control; the backward cascade
  // keeps early stages' gangs incomplete for a long time, so any modest
  // window would throttle dispatch of later micro-batches.
  options.max_inflight_gangs = 4 * stages * micro_batches;
  PathwaysRuntime runtime(cluster.get(), options);
  Client* client = runtime.CreateClient();
  models::StepBuilder builder(config, cluster->params());
  std::vector<VirtualSlice> slices;
  for (int s = 0; s < stages; ++s) {
    // Consecutive stages share an island: islands - 1 stage boundaries
    // cross the DCN.
    slices.push_back(client
                         ->AllocateSlice(cores / stages,
                                         hw::IslandId(s * islands / stages))
                         .value());
  }
  auto program = builder.BuildGPipeProgram(slices, micro_batches,
                                           cluster->island(0).collectives());
  return models::MeasureTraining(client, &program, config.tokens_per_batch, 3)
      .tokens_per_sec;
}

sweep::Metrics Measure(const Scenario& sc, bool, const sweep::ParamPoint& p) {
  const Model& model = FindByName(kModels, p.GetString("model"));
  const int cores = static_cast<int>(p.GetInt("cores"));
  const int stages = static_cast<int>(p.GetInt("stages"));
  const int islands = static_cast<int>(p.GetInt("islands"));
  TransformerConfig config = model.config();
  config.tokens_per_batch =
      config.tokens_per_batch * cores / model.reference_cores;
  const hw::SystemParams params = BaseSystemParams(sc.cluster);

  if (stages == 1) {
    if (islands > 1) return {};  // one SPMD program spans one island
    const double spmd = MeasureSpmd(config, params, cores, model.model_parallel);
    const double jax =
        MeasureJaxSpmd(config, params, cores, model.model_parallel);
    return {{"tokens_per_sec", spmd},
            {"jax_tokens_per_sec", jax},
            {"pw_over_jax", spmd / jax}};
  }
  const double pipeline =
      MeasurePipeline(config, params, cores, stages, islands);
  if (islands == 1) {
    const double spmd = MeasureSpmd(config, params, cores, model.model_parallel);
    return {{"tokens_per_sec", pipeline},
            {"spmd_tokens_per_sec", spmd},
            {"over_spmd", pipeline / spmd}};
  }
  const double one = MeasurePipeline(config, params, cores, stages, 1);
  return {{"tokens_per_sec", pipeline},
          {"one_island_tokens_per_sec", one},
          {"over_one_island", pipeline / one}};
}

}  // namespace

Family MakeTrainingFamily() {
  Family f;
  f.name = "training";
  f.description =
      "Tables 1-2, Fig. 10: LM training tokens/s as SPMD or a GPipe "
      "pipeline over islands, against the paper's baseline for the plan";
  f.axes = {{"model", AxisKind::kString, NamesOf(kModels)},
            {"cores", AxisKind::kInt},
            {"stages", AxisKind::kInt},
            {"islands", AxisKind::kInt}};
  f.check_determinism = false;  // no summary reads it
  f.measure = Measure;
  return f;
}

}  // namespace pw::scenario
