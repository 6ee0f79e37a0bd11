// CompiledFunction: the contract between the compiler and the runtime.
//
// A compiled function is a (potentially SPMD-sharded) computation with
// *statically known* resource requirements (paper §3): per-shard device
// time, the collective it performs (if any) and the payload per shard, and
// per-shard input/output/scratch buffer sizes. This is all the Pathways
// runtime needs for parallel asynchronous dispatch — successor buffers can
// be allocated before predecessors execute.
//
// Two construction paths:
//   * models::StepBuilder fills the struct for model programs, timing each
//     function from the transformer's FLOPs on hw::SystemParams at the
//     config's effective MFU;
//   * CompiledFunction::Synthetic builds one from explicit timings (used by
//     micro-benchmarks that sweep computation duration, as the paper does).
#pragma once

#include <optional>
#include <string>

#include "common/units.h"
#include "net/collective_model.h"

namespace pw::xlasim {

struct CompiledFunction {
  std::string name;
  int num_shards = 1;

  // Per-shard device occupancy, split around the collective (if any).
  Duration pre_collective_time = Duration::Zero();
  Duration post_collective_time = Duration::Zero();

  std::optional<net::CollectiveKind> collective;
  Bytes collective_bytes_per_shard = 0;

  // Per-shard static buffer assignment.
  Bytes input_bytes_per_shard = 0;
  Bytes output_bytes_per_shard = 0;
  Bytes scratch_bytes_per_shard = 0;

  Duration total_compute_time() const {
    return pre_collective_time + post_collective_time;
  }
  Bytes hbm_bytes_per_shard() const {
    return input_bytes_per_shard + output_bytes_per_shard + scratch_bytes_per_shard;
  }

  // Builds a function with explicit per-shard timing; `collective_bytes`
  // of 0 with a collective kind set still performs the (latency-bound)
  // rendezvous — this is the paper's "scalar AllReduce" micro-benchmark.
  static CompiledFunction Synthetic(
      std::string name, int num_shards, Duration compute_time,
      std::optional<net::CollectiveKind> collective = std::nullopt,
      Bytes collective_bytes_per_shard = 0, Bytes io_bytes_per_shard = 8);
};

}  // namespace pw::xlasim
