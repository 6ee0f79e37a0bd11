#include "pathways/client.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "common/logging.h"
#include "pathways/runtime.h"

namespace pw::pathways {

Duration RetryPolicy::BackoffFor(int failed_attempts) const {
  const double factor =
      std::pow(multiplier, static_cast<double>(failed_attempts - 1));
  const double ns = static_cast<double>(initial_backoff.nanos()) * factor;
  const double cap = static_cast<double>(max_backoff.nanos());
  // The inverted comparison routes overflow (inf) and NaN to the cap too.
  if (!(ns < cap)) return max_backoff;
  return Duration::Nanos(static_cast<std::int64_t>(ns));
}

Client::Client(PathwaysRuntime* runtime, ClientId id, hw::Host* host,
               double weight)
    : runtime_(runtime),
      id_(id),
      host_(host),
      weight_(weight),
      cpu_(&runtime->simulator(), "client" + std::to_string(id.value())) {}

StatusOr<VirtualSlice> Client::AllocateSlice(int num_devices,
                                             std::optional<hw::IslandId> island) {
  return runtime_->resource_manager().AllocateSlice(id_, num_devices, island);
}

void Client::ReleaseSlice(const VirtualSlice& slice) {
  runtime_->resource_manager().ReleaseSlice(slice);
}

ShardedBuffer Client::TransferToDevice(const VirtualSlice& slice,
                                       Bytes bytes_per_shard) {
  std::vector<hw::DeviceId> devices;
  devices.reserve(slice.devices.size());
  for (const VirtualDevice& v : slice.devices) {
    devices.push_back(runtime_->resource_manager().Lookup(v.id));
  }
  std::vector<sim::SimFuture<sim::Unit>> reservations;
  ShardedBuffer buffer = runtime_->object_store().CreateBuffer(
      id_, ExecutionId(), devices, bytes_per_shard, &reservations);
  // Host→device staging: once each shard's HBM is reserved, the data crosses
  // the owning host's PCIe link.
  auto landed = std::make_shared<sim::CountdownLatch>(
      &runtime_->simulator(), static_cast<int>(devices.size()));
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const hw::DeviceId dev = devices[i];
    const int shard = static_cast<int>(i);
    const LogicalBufferId id = buffer.id;
    reservations[i].Then([this, id, shard, dev, bytes_per_shard,
                          landed](const sim::Unit&) {
      runtime_->cluster().host_of(dev).pcie(dev).Transfer(
          bytes_per_shard, [this, id, shard, landed] {
            // Data is on the device: from here the shard is cold-spillable
            // until an execution reads it.
            runtime_->object_store().MarkShardContentReady(id, shard);
            landed->CountDown();
          });
    });
  }
  buffer.ready = landed->done();
  return buffer;
}

void Client::ReleaseBuffer(const ShardedBuffer& buffer) {
  runtime_->object_store().Release(buffer.id);
}

sim::SimFuture<ExecutionResult> Client::Run(const PathwaysProgram* program,
                                            std::vector<ShardedBuffer> args) {
  PW_CHECK(program != nullptr);
  auto exec = ProgramExecution::Create(runtime_, id_, weight_, host_->id(),
                                       &cpu_, program, std::move(args),
                                       runtime_->execution_ids().Next());
  ++programs_submitted_;

  // One subgraph RPC per island, each listing that island's nodes in program
  // order (parallel asynchronous dispatch sends a single message describing
  // the entire subgraph, §4.5). The RPCs share the program's subgraph table.
  cpu_.Submit(runtime_->params().client_rpc_cost,
              [this, exec, subgraphs = program->subgraphs()] {
    for (const IslandSubgraph& sub : *subgraphs) {
      GangScheduler& sched = runtime_->scheduler(sub.island);
      const Bytes rpc_bytes =
          128 + 64 * static_cast<Bytes>(sub.nodes.size());  // subgraph descriptor
      std::shared_ptr<const std::vector<int>> nodes(subgraphs, &sub.nodes);
      host_->SendDcn(sched.home()->id(), rpc_bytes,
                     [&sched, exec, nodes = std::move(nodes)] {
                       sched.SubmitSubgraph(exec, nodes);
                     });
    }
  });
  // Stream the per-shard fan-out work — launch descriptors and output-
  // handle registration, ~17 us per computation shard, serialized on this
  // client's thread. A gang cannot dispatch before its descriptors exist,
  // which puts the whole fan-out on the critical path of tight single-node
  // loops (the Figure 5/6 single-controller overhead: 2048 x 17 us ≈ 35 ms
  // per step at 512 hosts); multi-node programs stream far ahead of
  // execution, and concurrent tenants each stream on their own thread
  // (Figure 8 scales).
  for (const ComputationNode& n : program->nodes()) {
    const int node_id = n.id;
    cpu_.Submit(runtime_->params().coordinator_msg_cost * n.fn.num_shards,
                [exec, node_id] { exec->MarkClientReleased(node_id); });
  }
  return exec->done();
}

sim::SimFuture<ExecutionResult> Client::RunWithRetry(
    const PathwaysProgram* program, std::vector<ShardedBuffer> args,
    RetryPolicy policy) {
  PW_CHECK_GE(policy.max_attempts, 1);
  auto outer = std::make_shared<sim::SimPromise<ExecutionResult>>(
      &runtime_->simulator());
  // Attempt loop. The function object must not capture its own shared_ptr
  // (that cycle would leak it); instead each in-flight continuation holds
  // the strong reference, re-acquired through the weak handle at call time,
  // so the loop frees itself when the last continuation resolves.
  auto attempt = std::make_shared<std::function<void(int)>>();
  std::weak_ptr<std::function<void(int)>> weak_attempt = attempt;
  *attempt = [this, program, args = std::move(args), policy, outer,
              weak_attempt](int attempt_no) {
    auto self = weak_attempt.lock();
    PW_CHECK(self != nullptr);  // callers hold a strong ref across the call
    Run(program, args).Then([this, policy, outer, self,
                             attempt_no](const ExecutionResult& result) {
      if (!result.failed || attempt_no >= policy.max_attempts) {
        ExecutionResult annotated = result;
        annotated.attempts = attempt_no;
        outer->Set(std::move(annotated));
        return;
      }
      ++retries_;
      runtime_->simulator().Schedule(
          policy.BackoffFor(attempt_no),
          [self, attempt_no] { (*self)(attempt_no + 1); });
    });
  };
  (*attempt)(1);
  return outer->future();
}

void Client::Submit(const PathwaysProgram* program,
                    std::function<void(const ExecutionResult&)> done,
                    std::optional<RetryPolicy> retry) {
  auto fut = retry.has_value() ? RunWithRetry(program, {}, *retry)
                               : Run(program);
  fut.Then([this, done = std::move(done)](const ExecutionResult& result) {
    // A program may list the same node output as a result more than once;
    // the store holds one reference per buffer, so release each id once.
    std::vector<LogicalBufferId> released;
    for (const ShardedBuffer& out : result.outputs) {
      if (std::find(released.begin(), released.end(), out.id) !=
          released.end()) {
        continue;
      }
      released.push_back(out.id);
      runtime_->object_store().Release(out.id);
    }
    if (done) done(result);
  });
}

sim::SimFuture<ExecutionResult> Client::RunFunction(
    const xlasim::CompiledFunction& fn, const VirtualSlice& slice,
    std::vector<ShardedBuffer> args) {
  ProgramBuilder builder(fn.name);
  std::vector<ValueRef> inputs;
  inputs.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    inputs.push_back(builder.Argument());
  }
  builder.Call(fn, slice, std::move(inputs));
  // Single-use program: owned by the execution via shared_ptr.
  auto program = std::make_shared<PathwaysProgram>(std::move(builder).Build());
  auto result = Run(program.get(), std::move(args));
  // Keep the program alive until the run resolves.
  result.Then([program](const ExecutionResult&) {});
  return result;
}

}  // namespace pw::pathways
