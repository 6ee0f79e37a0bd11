#include "xlasim/compiled_function.h"

#include <utility>

#include "common/logging.h"

namespace pw::xlasim {

CompiledFunction CompiledFunction::Synthetic(
    std::string name, int num_shards, Duration compute_time,
    std::optional<net::CollectiveKind> collective,
    Bytes collective_bytes_per_shard, Bytes io_bytes_per_shard) {
  PW_CHECK_GE(num_shards, 1);
  CompiledFunction f;
  f.name = std::move(name);
  f.num_shards = num_shards;
  if (collective.has_value()) {
    // Split compute evenly around the collective.
    f.pre_collective_time = compute_time / 2;
    f.post_collective_time = compute_time - f.pre_collective_time;
    f.collective = collective;
    f.collective_bytes_per_shard = collective_bytes_per_shard;
  } else {
    f.pre_collective_time = compute_time;
  }
  f.input_bytes_per_shard = io_bytes_per_shard;
  f.output_bytes_per_shard = io_bytes_per_shard;
  return f;
}

}  // namespace pw::xlasim
