#include "baselines/raylike.h"

#include <string>

#include "common/logging.h"

namespace pw::baselines {
namespace {

// Actor-method invocation: schedule + deserialize.
constexpr Duration kActorCallOverhead = Duration::Micros(300);
constexpr Duration kObjectStorePut = Duration::Micros(50);
constexpr Bytes kResultBytes = 4;  // scalar result copied GPU->DRAM

}  // namespace

RayLike::RayLike(hw::Cluster* cluster)
    : cluster_(cluster), rng_(cluster->params().seed ^ 0x3c3c) {
  driver_host_ = std::make_unique<hw::Host>(
      &cluster_->simulator(), net::HostId(cluster_->num_hosts() + 700),
      cluster_->params(), &cluster_->dcn());
  actors_.reserve(static_cast<std::size_t>(cluster_->num_hosts()));
  for (int h = 0; h < cluster_->num_hosts(); ++h) {
    actors_.push_back(std::make_unique<sim::SerialResource>(
        &cluster_->simulator(), "actor" + std::to_string(h)));
  }
}

Duration RayLike::UnitCollectiveTime() const {
  // NCCL ring over the DCN across all GPUs (each its own "island" here, so
  // use the GPU cluster's per-island model which is DCN-parameterized).
  return cluster_->island(0).collectives().AllReduce(4, cluster_->num_hosts());
}

std::shared_ptr<hw::CollectiveGroup> RayLike::NewGroup() {
  return std::make_shared<hw::CollectiveGroup>(
      &cluster_->simulator(), &cluster_->island(0).collectives(),
      net::CollectiveKind::kAllReduce, cluster_->num_hosts(),
      "ray_step" + std::to_string(group_counter_++));
}

void RayLike::StartCall() {
  if (!running_) return;
  // Driver submits the gang of actor methods: one DCN message per actor.
  const int per_call = spec_.mode == CallMode::kOpByOp ? 1 : spec_.chain_length;
  driver_host_->cpu().Submit(Duration::Micros(50), [this, per_call] {
    RunStep(per_call);
  });
}

void RayLike::RunStep(int remaining_in_call) {
  const bool fused = spec_.mode == CallMode::kFused;
  const Duration body =
      fused ? (UnitCollectiveTime() + spec_.unit_compute) * (spec_.chain_length - 1)
            : Duration::Zero();
  auto group = NewGroup();
  auto all_done = std::make_shared<sim::CountdownLatch>(
      &cluster_->simulator(), cluster_->num_hosts());
  const bool chained = spec_.mode == CallMode::kChained;
  all_done->done().Then([this, remaining_in_call, fused,
                         chained](const sim::Unit&) {
    if (counting_) computations_done_ += fused ? spec_.chain_length : 1;
    if (remaining_in_call > 1) {
      // Chained: the next method is already scheduled on the actors via
      // future-passing; only per-step actor overhead recurs, no driver RTT.
      RunStep(remaining_in_call - 1);
      return;
    }
    // Final result handle returns to the driver.
    cluster_->host(0).SendDcn(driver_host_->id(), 64, [this] { StartCall(); });
  });

  for (int h = 0; h < cluster_->num_hosts(); ++h) {
    hw::Host& host = cluster_->host(h);
    hw::Device* gpu = host.devices().front();
    const Duration invoke =
        kActorCallOverhead *
        (1.0 + rng_.NextExponential(cluster_->params().host_jitter_frac));
    auto run_method = [this, &host, gpu, group, body, all_done, invoke] {
      actors_[static_cast<std::size_t>(host.id().value())]->Submit(
          invoke, [this, &host, gpu, group, body, all_done] {
            hw::KernelDesc kernel;
            kernel.label = "ray_allreduce";
            kernel.client = 0;
            kernel.collective = group;
            kernel.collective_bytes = 4;
            kernel.post_time = spec_.unit_compute + body;
            host.DispatchKernel(gpu, std::move(kernel),
                                cluster_->params().host_kernel_dispatch_cost)
                .Then([&host, gpu, all_done](const sim::Unit&) {
                  // No GPU object store: result copies device→DRAM before
                  // the object handle is returned.
                  host.pcie(gpu->id()).Transfer(
                      kResultBytes, [&host, all_done] {
                        host.cpu().Submit(kObjectStorePut, [all_done] {
                          all_done->CountDown();
                        });
                      });
                });
          });
    };
    if (spec_.mode == CallMode::kOpByOp) {
      // Fresh driver→actor message per step.
      driver_host_->SendDcn(host.id(), 128, run_method);
    } else {
      // Chained/Fused: methods were shipped once; subsequent steps fire
      // locally on the actor.
      run_method();
    }
  }
}

MicrobenchResult RayLike::Measure(const MicrobenchSpec& spec) {
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
  sim.Run();
  MicrobenchResult result;
  result.computations_per_sec =
      static_cast<double>(computations_done_) / spec_.measure.ToSeconds();
  const int per_call = spec_.mode == CallMode::kOpByOp ? 1 : spec_.chain_length;
  result.calls_per_sec = result.computations_per_sec / per_call;
  return result;
}

}  // namespace pw::baselines
