// Pathways client library (paper §4.2, Fig. 2).
//
// A client allocates virtual slices, stages data onto devices, traces
// programs with ProgramBuilder, and runs them. Run() issues a single RPC
// per island carrying the whole subgraph (parallel asynchronous dispatch);
// the returned future resolves when every result shard has reported back.
// Clients may keep many programs in flight — the paper's asynchronous
// pipelining — or chain Run().Then(...) for the OpByOp pattern.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "hw/cluster.h"
#include "pathways/execution.h"
#include "pathways/ids.h"
#include "pathways/object_store.h"
#include "pathways/program.h"
#include "pathways/virtual_device.h"
#include "sim/serial_resource.h"

namespace pw::pathways {

class PathwaysRuntime;

// Retry-with-backoff policy for RunWithRetry: attempt k (1-based) that fails
// waits min(initial_backoff * multiplier^(k-1), max_backoff) before
// resubmitting. Resubmission re-lowers the program, so it picks up any
// virtual-device remap the resource manager performed after a device
// failure. The cap is load-bearing, not cosmetic: the uncapped product
// overflows Duration's int64 nanoseconds within ~60 doublings, and the
// resulting negative delay aborts the run inside Simulator::Schedule.
struct RetryPolicy {
  int max_attempts = 4;
  Duration initial_backoff = Duration::Micros(500);
  double multiplier = 2.0;
  Duration max_backoff = Duration::Millis(100);

  // Backoff before re-attempting after the `failed_attempts`-th failure
  // (1-based). Computed in double and clamped to max_backoff *before* the
  // Duration conversion, so it is overflow-proof for any attempt count.
  Duration BackoffFor(int failed_attempts) const;
};

class Client {
 public:
  Client(PathwaysRuntime* runtime, ClientId id, hw::Host* host, double weight);

  ClientId id() const { return id_; }
  double weight() const { return weight_; }
  hw::Host* host() { return host_; }

  // --- Resource allocation (Fig. 2: make_virtual_device_set().add_slice) ---
  StatusOr<VirtualSlice> AllocateSlice(
      int num_devices, std::optional<hw::IslandId> island = std::nullopt);
  void ReleaseSlice(const VirtualSlice& slice);

  // --- Data staging ---
  // Creates a device-resident buffer sharded over the slice's devices,
  // paying host→device PCIe transfer time for each shard.
  ShardedBuffer TransferToDevice(const VirtualSlice& slice, Bytes bytes_per_shard);
  void ReleaseBuffer(const ShardedBuffer& buffer);

  // --- Execution ---
  // Runs a traced program. Arguments must match program.num_arguments().
  // The future resolves on the client host when all results are complete.
  sim::SimFuture<ExecutionResult> Run(const PathwaysProgram* program,
                                      std::vector<ShardedBuffer> args = {});

  // Convenience: runs one compiled function as a single-node program.
  sim::SimFuture<ExecutionResult> RunFunction(
      const xlasim::CompiledFunction& fn, const VirtualSlice& slice,
      std::vector<ShardedBuffer> args = {});

  // Runs a program, transparently resubmitting (with exponential backoff)
  // when the execution aborts due to a device failure. The returned future
  // resolves with the first successful result — or, after max_attempts
  // failures, with the last failed result — and `attempts` set either way.
  sim::SimFuture<ExecutionResult> RunWithRetry(
      const PathwaysProgram* program, std::vector<ShardedBuffer> args = {},
      RetryPolicy policy = {});

  // Fire-and-observe submission path for workload generators: runs the
  // program (through RunWithRetry when `retry` is set, so device-failure
  // aborts resubmit transparently), releases every output buffer on
  // completion, and invokes `done` with the result. Generators drive this
  // in a loop; buffer release keeps a long traffic run from accreting HBM.
  void Submit(const PathwaysProgram* program,
              std::function<void(const ExecutionResult&)> done,
              std::optional<RetryPolicy> retry = std::nullopt);

  sim::SerialResource& cpu() { return cpu_; }
  PathwaysRuntime& runtime() { return *runtime_; }
  std::int64_t programs_submitted() const { return programs_submitted_; }
  std::int64_t retries() const { return retries_; }

 private:
  PathwaysRuntime* runtime_;
  ClientId id_;
  hw::Host* host_;
  double weight_;
  sim::SerialResource cpu_;
  std::int64_t programs_submitted_ = 0;
  std::int64_t retries_ = 0;
};

}  // namespace pw::pathways
