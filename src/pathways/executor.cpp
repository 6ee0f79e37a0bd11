#include "pathways/executor.h"

#include "common/logging.h"
#include "pathways/runtime.h"

namespace pw::pathways {

DeviceExecutor::DeviceExecutor(PathwaysRuntime* runtime, hw::Device* device,
                               hw::Host* host)
    : runtime_(runtime), device_(device), host_(host) {}

void DeviceExecutor::Dispatch(std::shared_ptr<ProgramExecution> exec, int node,
                              int shard) {
  const std::uint64_t seq = next_arrival_seq_++;
  // Fault paths: a dispatch may land after its execution aborted (gang
  // partially emitted when the device died), or target a device that is
  // down (stranded virtual device — no island spare at remap time). Either
  // way the shard will never run; the in-order stream bookkeeping still
  // consumes the sequence number so later gangs can enqueue.
  if (exec->aborted() || device_->failed()) {
    if (!exec->aborted()) exec->Abort();
    EnqueueInOrder(seq, [] {});
    return;
  }
  const ComputationNode& n = exec->program().node(node);
  const hw::SystemParams& params = runtime_->params();

  // Host-side prep: input-buffer allocation, address exchange with the
  // producers' hosts, launch descriptor construction (paper §4.5 "performs
  // most of the preparatory work to launch node B's function").
  const Bytes staging =
      n.fn.scratch_bytes_per_shard + n.fn.input_bytes_per_shard;
  host_->RunOnCpu(
      runtime_->Jitter(params.executor_prep_cost),
      [this, exec, node, shard, seq, staging] {
        // Scratch rides the gang's dispatch ticket so it enters the device
        // FIFO in the same scheduler-consistent order as the gang's output
        // shards.
        auto scratch = runtime_->object_store().AllocateScratch(
            device_->id(), staging, exec->gang_ticket(node));
        auto output_reserved = exec->ReserveOutputShard(node, shard);
        sim::WhenBoth(&runtime_->simulator(), scratch, output_reserved,
            [this, exec, node, shard, seq, staging] {
              exec->MarkPrepDone(node, shard);
              EnqueueInOrder(seq, [this, exec, node, shard, staging] {
                if (exec->aborted()) {
                  // The execution died mid-prep. Its program may already be
                  // destroyed (single-use programs live only until done()
                  // fires), so don't touch it — just surrender the scratch
                  // and let the stream move on.
                  runtime_->object_store().FreeScratch(device_->id(), staging);
                  return;
                }
                const ComputationNode& cn = exec->program().node(node);
                hw::KernelDesc kernel;
                kernel.label = cn.name;
                kernel.client = exec->client().value();
                kernel.pre_time = cn.fn.pre_collective_time;
                kernel.post_time = cn.fn.post_collective_time;
                kernel.collective = exec->GroupFor(node);
                kernel.collective_bytes = cn.fn.collective_bytes_per_shard;
                kernel.inputs = exec->InputFutures(node, shard);
                device_->Enqueue(std::move(kernel))
                    .Then([this, exec, node, shard, staging](const sim::Unit&) {
                      runtime_->object_store().FreeScratch(device_->id(),
                                                           staging);
                      exec->MarkShardComplete(node, shard);
                      // Aborted first: the program may be gone once done()
                      // resolved with failure.
                      if (!exec->aborted() && exec->program().is_result(node)) {
                        host_->SendDcn(exec->client_host(), /*bytes=*/64,
                                       [exec] { exec->OnResultShardMessage(); });
                      }
                    });
                exec->MarkEnqueued(node, shard);
              });
            });
      });
}

void DeviceExecutor::EnqueueInOrder(std::uint64_t seq,
                                    sim::InlineFunction<void()> enqueue_fn) {
  // Kernels must join the device stream in scheduler order even when preps
  // complete out of order (jitter, HBM back-pressure): stash until every
  // earlier dispatch has enqueued.
  ready_[seq] = std::move(enqueue_fn);
  DrainReady();
}

void DeviceExecutor::DrainReady() {
  while (true) {
    auto it = ready_.find(next_enqueue_seq_);
    if (it == ready_.end()) return;
    sim::InlineFunction<void()> fn = std::move(it->second);
    ready_.erase(it);
    ++next_enqueue_seq_;
    fn();
  }
}

}  // namespace pw::pathways
