#include "models/step_builder.h"

#include <string>

#include "common/logging.h"

namespace pw::models {

using pathways::PathwaysProgram;
using pathways::ProgramBuilder;
using pathways::ValueRef;
using pathways::VirtualSlice;
using xlasim::CompiledFunction;

namespace {

// Fraction of activation-collective bandwidth cost that is *not* overlapped
// with compute inside an SPMD step.
constexpr double kExposedCommFraction = 0.15;

}  // namespace

StepBuilder::StepBuilder(TransformerConfig config,
                         const hw::SystemParams& hw_params)
    : config_(std::move(config)), hw_(hw_params) {}

double StepBuilder::ModelParallelPenalty(int model_parallel_cores) {
  if (model_parallel_cores <= 32) return 1.0;
  const double excess =
      std::log2(static_cast<double>(model_parallel_cores)) - 5.0;
  return 1.0 + 0.08 * excess * excess;
}

Duration StepBuilder::ComputeTime(int cores, int model_parallel) const {
  PW_CHECK_GT(cores, 0);
  return Duration::Seconds(config_.FlopsPerStep() /
                           (static_cast<double>(cores) * hw_.device_flops *
                            config_.effective_mfu)) *
         ModelParallelPenalty(model_parallel);
}

Duration StepBuilder::MpLatencyOverhead(
    int layers, int cores, const net::CollectiveModel& collectives) const {
  if (cores <= 1) return Duration::Zero();
  // Latency-bound part of each within-layer collective (payload excluded:
  // the bandwidth share is carried by the aggregated rendezvous payload).
  const Duration per_collective =
      collectives.Time(net::CollectiveKind::kAllReduce, /*bytes=*/0, cores);
  return per_collective * (layers * kCollectivesPerLayer);
}

CompiledFunction StepBuilder::SpmdStepFunction(
    int cores, const net::CollectiveModel& collectives,
    int model_parallel) const {
  if (model_parallel < 0) model_parallel = cores;
  CompiledFunction f;
  f.name = config_.name + "/spmd_step";
  f.num_shards = cores;
  const Duration compute = ComputeTime(cores, model_parallel);
  const Duration mp_latency = MpLatencyOverhead(
      static_cast<int>(config_.num_layers), cores, collectives);
  // Gradient apply happens after the aggregated collective.
  f.pre_collective_time = compute + mp_latency;
  f.post_collective_time = compute * 0.02;  // optimizer update
  f.collective = net::CollectiveKind::kAllReduce;
  // Exposed share of the activation-collective traffic, per shard.
  const double act_bytes =
      static_cast<double>(config_.ActivationBytes(config_.tokens_per_batch)) *
      config_.num_layers * kCollectivesPerLayer / cores;
  f.collective_bytes_per_shard =
      static_cast<Bytes>(act_bytes * kExposedCommFraction);
  f.input_bytes_per_shard =
      config_.ActivationBytes(config_.tokens_per_batch) / cores;
  f.output_bytes_per_shard = f.input_bytes_per_shard;
  f.scratch_bytes_per_shard = f.input_bytes_per_shard;
  return f;
}

std::vector<int> StepBuilder::StageLayerCounts(int stages) const {
  PW_CHECK_GT(stages, 0);
  if (stages == 1) return {static_cast<int>(config_.num_layers)};
  PW_CHECK_GE(config_.num_layers, 2 * stages)
      << "too many stages for " << config_.num_layers << " layers";
  // Balanced split: every stage gets floor(L/S) layers and the remainder
  // goes to *interior* stages first — the first and last stages keep the
  // smaller count because they also run the embedding lookup and softmax
  // (§5.3: "we took out one Transformer layer from the first and last
  // stage to balance the amount of compute per stage").
  const int base = static_cast<int>(config_.num_layers) / stages;
  int remainder = static_cast<int>(config_.num_layers) - base * stages;
  std::vector<int> counts(static_cast<std::size_t>(stages), base);
  for (int s = 1; s < stages - 1 && remainder > 0; ++s, --remainder) {
    counts[static_cast<std::size_t>(s)] += 1;
  }
  // More remainder than interior stages: edges take the overflow.
  for (int s = 0; remainder > 0; s += stages - 1, --remainder) {
    counts[static_cast<std::size_t>(s % stages)] += 1;
  }
  return counts;
}

PathwaysProgram StepBuilder::BuildGPipeProgram(
    const std::vector<VirtualSlice>& slices, int micro_batches,
    const net::CollectiveModel& collectives) const {
  const int stages = static_cast<int>(slices.size());
  PW_CHECK_GE(stages, 1);
  PW_CHECK_GE(micro_batches, 1);
  const int stage_cores = slices[0].num_devices();
  for (const auto& s : slices) PW_CHECK_EQ(s.num_devices(), stage_cores);

  const std::vector<int> layer_counts = StageLayerCounts(stages);
  const std::int64_t micro_tokens = config_.tokens_per_batch / micro_batches;
  const Bytes act_bytes = config_.ActivationBytes(micro_tokens) / stage_cores;

  // Per-(stage, micro-batch) compute: forward is 1/3, backward 2/3 of the
  // 6N flops; embedding/softmax costs are folded into the freed layer slot.
  auto stage_fn = [&](int stage, bool backward) {
    // Only the edge stages carry the extra embedding/softmax work that the
    // removed Transformer layer makes room for.
    const bool edge = stage == 0 || stage == stages - 1;
    const double layer_frac =
        (static_cast<double>(layer_counts[static_cast<std::size_t>(stage)]) +
         (edge ? 1.0 : 0.0)) /
        static_cast<double>(config_.num_layers);
    // Per-device time if the whole model ran on this stage's cores alone;
    // within a stage, layers shard over only stage_cores (cheap collectives,
    // full-width tiles — the advantage over whole-pod SPMD).
    const Duration whole =
        ComputeTime(stage_cores * stages, /*model_parallel=*/stage_cores) *
        stages;
    const Duration stage_compute =
        whole * layer_frac / micro_batches * (backward ? 2.0 / 3.0 : 1.0 / 3.0);
    const Duration mp_latency =
        MpLatencyOverhead(layer_counts[static_cast<std::size_t>(stage)],
                          stage_cores, collectives) *
        ((backward ? 2.0 : 1.0) / 3.0) * (1.0 / micro_batches);
    CompiledFunction f;
    f.name = config_.name + (backward ? "/bwd" : "/fwd") + std::to_string(stage);
    f.num_shards = stage_cores;
    f.pre_collective_time = stage_compute + mp_latency;
    f.input_bytes_per_shard = act_bytes;
    f.output_bytes_per_shard = act_bytes;
    f.scratch_bytes_per_shard = act_bytes;
    return f;
  };

  ProgramBuilder pb(config_.name + "/gpipe");
  std::vector<std::vector<ValueRef>> fwd(
      static_cast<std::size_t>(stages),
      std::vector<ValueRef>(static_cast<std::size_t>(micro_batches)));
  std::vector<std::vector<ValueRef>> bwd = fwd;

  // Forward wave: micro-batch major so stage s can start micro-batch m+1
  // while s+1 works on m (the 1F schedule; order only sets device FIFO).
  for (int m = 0; m < micro_batches; ++m) {
    for (int s = 0; s < stages; ++s) {
      std::vector<ValueRef> inputs;
      if (s > 0) inputs.push_back(fwd[static_cast<std::size_t>(s - 1)]
                                     [static_cast<std::size_t>(m)]);
      fwd[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] =
          pb.Call(stage_fn(s, false), slices[static_cast<std::size_t>(s)],
                  std::move(inputs),
                  "f" + std::to_string(s) + "_" + std::to_string(m));
    }
  }
  // Backward wave: reverse order; bwd(s,m) needs bwd(s+1,m) and the stashed
  // fwd(s,m) activations.
  for (int m = 0; m < micro_batches; ++m) {
    for (int s = stages - 1; s >= 0; --s) {
      std::vector<ValueRef> inputs{
          fwd[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)]};
      if (s < stages - 1) {
        inputs.push_back(
            bwd[static_cast<std::size_t>(s + 1)][static_cast<std::size_t>(m)]);
      }
      bwd[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] =
          pb.Call(stage_fn(s, true), slices[static_cast<std::size_t>(s)],
                  std::move(inputs),
                  "b" + std::to_string(s) + "_" + std::to_string(m));
    }
  }
  // Per-stage weight update: apply gradients once all micro-batches done.
  for (int s = 0; s < stages; ++s) {
    CompiledFunction update;
    update.name = config_.name + "/update" + std::to_string(s);
    update.num_shards = stage_cores;
    update.pre_collective_time = ComputeTime(stage_cores * stages) * 0.01;
    update.input_bytes_per_shard = act_bytes;
    update.output_bytes_per_shard = 8;
    std::vector<ValueRef> grads(bwd[static_cast<std::size_t>(s)]);
    pb.Result(pb.Call(update, slices[static_cast<std::size_t>(s)],
                      std::move(grads), "upd" + std::to_string(s)));
  }
  return std::move(pb).Build();
}

PathwaysProgram StepBuilder::BuildMultiIslandStep(
    const std::vector<VirtualSlice>& island_slices, int chunks,
    const net::CollectiveModel& collectives) const {
  const int islands = static_cast<int>(island_slices.size());
  PW_CHECK_GE(islands, 1);
  PW_CHECK_GE(chunks, 1);
  const int cores = island_slices[0].num_devices();
  for (const auto& s : island_slices) PW_CHECK_EQ(s.num_devices(), cores);

  // Each island computes 1/islands of the global batch on its `cores`
  // devices — per-device compute equals the whole batch over all devices —
  // split into `chunks` chained chunk nodes (the progressive backward
  // pass); each chunk ends with an intra-island reduce-scatter of its
  // gradient slice.
  const Duration chunk_compute =
      ComputeTime(cores * islands, /*model_parallel=*/32) / chunks;
  const Bytes grad_chunk_shard = config_.GradientBytes() / chunks / cores;

  ProgramBuilder pb(config_.name + "/dp" + std::to_string(islands));
  std::vector<std::vector<ValueRef>> chunk_out(
      static_cast<std::size_t>(islands));
  for (int i = 0; i < islands; ++i) {
    ValueRef prev{};
    bool has_prev = false;
    for (int k = 0; k < chunks; ++k) {
      CompiledFunction f;
      f.name = config_.name + "/i" + std::to_string(i) + "c" + std::to_string(k);
      f.num_shards = cores;
      f.pre_collective_time =
          chunk_compute +
          MpLatencyOverhead(
              static_cast<int>(config_.num_layers / chunks), cores, collectives);
      f.collective = net::CollectiveKind::kReduceScatter;
      f.collective_bytes_per_shard = grad_chunk_shard;
      f.input_bytes_per_shard = grad_chunk_shard;
      f.output_bytes_per_shard = grad_chunk_shard;
      std::vector<ValueRef> inputs;
      if (has_prev) inputs.push_back(prev);
      prev = pb.Call(f, island_slices[static_cast<std::size_t>(i)],
                     std::move(inputs));
      has_prev = true;
      chunk_out[static_cast<std::size_t>(i)].push_back(prev);
    }
  }
  // Apply node per island: consumes the local chunks and every remote
  // island's chunks (those edges cross the DCN), then all-gathers the
  // updated parameters within the island.
  for (int i = 0; i < islands; ++i) {
    CompiledFunction apply;
    apply.name = config_.name + "/apply" + std::to_string(i);
    apply.num_shards = cores;
    apply.pre_collective_time = ComputeTime(cores * islands) * 0.02;
    apply.collective = net::CollectiveKind::kAllGather;
    apply.collective_bytes_per_shard = config_.GradientBytes() / cores;
    apply.input_bytes_per_shard = grad_chunk_shard;
    apply.output_bytes_per_shard = 8;
    std::vector<ValueRef> inputs;
    for (int j = 0; j < islands; ++j) {
      for (const ValueRef& v : chunk_out[static_cast<std::size_t>(j)]) {
        inputs.push_back(v);
      }
    }
    pb.Result(pb.Call(apply, island_slices[static_cast<std::size_t>(i)],
                      std::move(inputs)));
  }
  return std::move(pb).Build();
}

TrainingMeasurement MeasureTraining(pathways::Client* client,
                                    const pathways::PathwaysProgram* program,
                                    std::int64_t tokens_per_batch, int steps) {
  PW_CHECK_GE(steps, 2);
  sim::Simulator& sim = client->runtime().simulator();
  // Step 0 pays pipeline fill and warm-up; measure the rest back-to-back
  // (weights stay resident: outputs are released once the step completes).
  TimePoint measure_start;
  for (int s = 0; s < steps; ++s) {
    auto result = client->Run(program);
    const bool done = sim.RunUntilPredicate([&result] { return result.ready(); });
    PW_CHECK(done) << "training step deadlocked or stalled";
    for (const auto& out : result.value().outputs) {
      client->runtime().object_store().Release(out.id);
    }
    if (s == 0) measure_start = sim.now();
  }
  TrainingMeasurement m;
  m.step_time = (sim.now() - measure_start) / (steps - 1);
  m.steps_per_sec = 1.0 / m.step_time.ToSeconds();
  m.tokens_per_sec = static_cast<double>(tokens_per_batch) * m.steps_per_sec;
  return m;
}

}  // namespace pw::models
