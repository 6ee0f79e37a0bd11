// Builds executable training-step programs for the paper's §5.3 workloads.
//
// Three parallelism plans, all lowered to real PathwaysPrograms and *run on
// the simulated cluster* (step times are measured, not closed-form):
//
//   * SPMD: the whole step is one sharded compiled function — roofline
//     compute plus the model-parallel collective latency that cannot be
//     overlapped, with an aggregated activation-collective rendezvous.
//   * GPipe pipeline (Table 2, Fig. 10): S stages x M micro-batches of
//     forward and backward nodes plus per-stage weight updates; the bubble
//     and the inter-stage transfers emerge from the dataflow.
//   * Multi-island data parallel (Fig. 12): each island computes the step
//     in K backward "chunks"; each chunk's gradient shard crosses the DCN
//     while later chunks are still computing — the overlap that gives the
//     paper its ~97% two-island efficiency.
#pragma once

#include <memory>
#include <vector>

#include "hw/system_params.h"
#include "models/transformer.h"
#include "net/collective_model.h"
#include "pathways/pathways.h"
#include "xlasim/compiled_function.h"

namespace pw::models {

// Collectives per layer (2 forward + 2 backward in a Megatron-style
// sharded Transformer block).
inline constexpr int kCollectivesPerLayer = 4;

class StepBuilder {
 public:
  StepBuilder(TransformerConfig config, const hw::SystemParams& hw_params);

  const TransformerConfig& config() const { return config_; }

  // Model-parallel efficiency penalty: sharding a layer over more than ~32
  // cores shrinks per-core matmul tiles below the width that sustains peak
  // MFU, so effective compute time inflates. Calibrated so that Table 2's
  // SPMD-128 vs pipeline ordering reproduces (the table2_pipeline gate in
  // docs/BENCHMARKS.md).
  static double ModelParallelPenalty(int model_parallel_cores);

  // Pure-compute roofline time of the whole step on `cores` total cores
  // with `model_parallel` cores sharding each layer.
  Duration ComputeTime(int cores, int model_parallel = 32) const;

  // --- SPMD ---
  // `model_parallel` defaults to all cores (the paper's Table 2 "Model-
  // parallel (SPMD)" row); hybrid data/model-parallel configurations pass
  // their within-replica sharding width.
  xlasim::CompiledFunction SpmdStepFunction(
      int cores, const net::CollectiveModel& collectives,
      int model_parallel = -1) const;

  // --- GPipe pipeline ---
  // Per-stage layer counts with the paper's balancing: one Transformer
  // layer is removed from the first and last stages to offset the
  // embedding lookup and softmax layers.
  std::vector<int> StageLayerCounts(int stages) const;

  // Builds one training step: stage s runs on slices[s] (any island).
  // Requires slices.size() == stages and equal devices per slice.
  pathways::PathwaysProgram BuildGPipeProgram(
      const std::vector<pathways::VirtualSlice>& slices, int micro_batches,
      const net::CollectiveModel& collectives) const;

  // --- Multi-island data parallel ---
  // Each island holds a full replica; gradients exchange in `chunks`
  // chunks overlapped with the backward pass.
  pathways::PathwaysProgram BuildMultiIslandStep(
      const std::vector<pathways::VirtualSlice>& island_slices, int chunks,
      const net::CollectiveModel& collectives) const;

 private:
  // Unoverlapped model-parallel latency added to device time per step-part
  // covering `layers` layers sharded over `cores`.
  Duration MpLatencyOverhead(int layers, int cores,
                             const net::CollectiveModel& collectives) const;

  TransformerConfig config_;
  // By value: callers routinely pass temporaries (SystemParams::TpuDefault())
  // and the builder outlives the constructor call.
  hw::SystemParams hw_;
};

// Runs `program` for `steps` back-to-back steps on `client` and returns the
// steady-state step time (first step excluded: pipeline fill + compilation).
struct TrainingMeasurement {
  Duration step_time;
  double tokens_per_sec = 0;
  double steps_per_sec = 0;
};

TrainingMeasurement MeasureTraining(pathways::Client* client,
                                    const pathways::PathwaysProgram* program,
                                    std::int64_t tokens_per_batch, int steps = 3);

}  // namespace pw::models
