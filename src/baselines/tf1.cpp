#include "baselines/tf1.h"

#include <string>

#include "common/logging.h"

namespace pw::baselines {

Tf1SingleController::Tf1SingleController(hw::Cluster* cluster)
    : cluster_(cluster) {
  PW_CHECK_EQ(cluster_->num_islands(), 1);
  coordinator_host_ = std::make_unique<hw::Host>(
      &cluster_->simulator(), net::HostId(cluster_->num_hosts() + 500),
      cluster_->params(), &cluster_->dcn());
  coordinator_ = std::make_unique<sim::SerialResource>(&cluster_->simulator(),
                                                       "tf_coordinator");
}

Duration Tf1SingleController::UnitKernelTime(const MicrobenchSpec& spec) const {
  return cluster_->island(0).collectives().AllReduce(4, cluster_->num_devices()) +
         spec.unit_compute;
}

std::shared_ptr<hw::CollectiveGroup> Tf1SingleController::NewGroup() {
  return std::make_shared<hw::CollectiveGroup>(
      &cluster_->simulator(), &cluster_->island(0).collectives(),
      net::CollectiveKind::kAllReduce, cluster_->num_devices(),
      "tf_step" + std::to_string(group_counter_++));
}

void Tf1SingleController::StartCall() {
  if (!running_) return;
  // session.run: client-side graph pruning + RPC issue.
  coordinator_->Submit(cluster_->params().client_rpc_cost, [this] {
    const int per_call =
        spec_.mode == CallMode::kOpByOp ? 1 : spec_.chain_length;
    RunComputation(per_call);
  });
}

void Tf1SingleController::RunComputation(int remaining_in_call) {
  // One gang-scheduled computation: per-device control messages (full
  // materialized graph — one edge per shard), then kernels, then the
  // centralized barrier: every device acks before the next computation.
  const hw::SystemParams& params = cluster_->params();
  const bool fused = spec_.mode == CallMode::kFused;
  const Duration body =
      fused ? UnitKernelTime(spec_) * (spec_.chain_length - 1) : Duration::Zero();
  auto group = NewGroup();
  auto barrier = std::make_shared<sim::CountdownLatch>(
      &cluster_->simulator(), cluster_->num_devices());
  barrier->done().Then([this, remaining_in_call, fused](const sim::Unit&) {
    // Barrier acks return over the DCN before the coordinator proceeds.
    cluster_->simulator().Schedule(cluster_->params().dcn.latency,
                                   [this, remaining_in_call, fused] {
      if (counting_) {
        computations_done_ += fused ? spec_.chain_length : 1;
      }
      if (remaining_in_call > 1) {
        RunComputation(remaining_in_call - 1);
      } else {
        FinishCall();
      }
    });
  });
  for (int d = 0; d < cluster_->num_devices(); ++d) {
    hw::Device& dev = cluster_->device(d);
    hw::Host& worker = cluster_->host_of(dev.id());
    coordinator_->Submit(params.coordinator_msg_cost, [this, &dev, &worker,
                                                       group, barrier, body] {
      coordinator_host_->SendDcn(worker.id(), 256, [this, &dev, &worker, group,
                                                    barrier, body] {
        hw::KernelDesc kernel;
        kernel.label = "tf_op";
        kernel.client = 0;
        kernel.collective = group;
        kernel.collective_bytes = 4;
        kernel.post_time = spec_.unit_compute + body;
        worker
            .DispatchKernel(&dev, std::move(kernel),
                            cluster_->params().host_kernel_dispatch_cost)
            .Then([barrier](const sim::Unit&) { barrier->CountDown(); });
      });
    });
  }
}

void Tf1SingleController::FinishCall() {
  // No device object store: the (scalar) result is fetched back to the
  // client before the next call — device→host PCIe + DCN to the client.
  hw::Host& worker = cluster_->host_of(cluster_->device(0).id());
  worker.pcie(cluster_->device(0).id()).Transfer(4, [this, &worker] {
    worker.SendDcn(coordinator_host_->id(), 64, [this] { StartCall(); });
  });
}

MicrobenchResult Tf1SingleController::Measure(const MicrobenchSpec& spec) {
  spec_ = spec;
  computations_done_ = 0;
  counting_ = false;
  running_ = true;
  StartCall();
  sim::Simulator& sim = cluster_->simulator();
  sim.RunFor(spec_.warmup);
  counting_ = true;
  sim.RunFor(spec_.measure);
  counting_ = false;
  running_ = false;
  sim.Run();  // drain the in-flight call
  MicrobenchResult result;
  result.computations_per_sec =
      static_cast<double>(computations_done_) / spec_.measure.ToSeconds();
  const int per_call = spec_.mode == CallMode::kOpByOp ? 1 : spec_.chain_length;
  result.calls_per_sec = result.computations_per_sec / per_call;
  return result;
}

}  // namespace pw::baselines
