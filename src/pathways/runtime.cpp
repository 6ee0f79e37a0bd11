#include "pathways/runtime.h"

#include "pathways/client.h"

namespace pw::pathways {

PathwaysRuntime::PathwaysRuntime(hw::Cluster* cluster, PathwaysOptions options)
    : cluster_(cluster),
      options_(options),
      resource_manager_(cluster),
      object_store_(cluster),
      rng_(cluster->params().seed),
      next_client_host_id_(cluster->num_hosts()) {
  schedulers_.reserve(static_cast<std::size_t>(cluster_->num_islands()));
  for (int i = 0; i < cluster_->num_islands(); ++i) {
    hw::Island& island = cluster_->island(i);
    PW_CHECK(!island.hosts().empty());
    schedulers_.push_back(std::make_unique<GangScheduler>(
        this, &island, island.hosts().front()));
  }
  executors_.reserve(static_cast<std::size_t>(cluster_->num_devices()));
  for (int d = 0; d < cluster_->num_devices(); ++d) {
    hw::Device& dev = cluster_->device(d);
    executors_.push_back(std::make_unique<DeviceExecutor>(
        this, &dev, &cluster_->host_of(dev.id())));
  }
  // Memory-oversubscription wiring (docs/MEMORY.md): the spiller behind
  // every device's HBM stall observer, and per-device blocked probes so a
  // wedged run is reported with the stalled executions named instead of
  // draining silently.
  spiller_ = std::make_unique<memory::Spiller>(&simulator(), &object_store_);
  object_store_.set_spiller(spiller_.get());
  for (int d = 0; d < cluster_->num_devices(); ++d) {
    hw::HbmAllocator& hbm = cluster_->device(d).hbm();
    hbm.set_stall_observer([this, d] { spiller_->OnStall(d); });
    simulator().RegisterBlockedProbe([this, d] {
      return object_store_.BlockedReservationReason(hw::DeviceId(d));
    });
  }
}

PathwaysRuntime::~PathwaysRuntime() = default;

Client* PathwaysRuntime::CreateClient(double weight) {
  auto host = std::make_unique<hw::Host>(&simulator(),
                                         net::HostId(next_client_host_id_++),
                                         cluster_->params(), &cluster_->dcn());
  auto client = std::make_unique<Client>(this, client_ids_.Next(), host.get(),
                                         weight);
  Client* raw = client.get();
  client_hosts_.push_back(std::move(host));
  clients_.push_back(std::move(client));
  return raw;
}

int PathwaysRuntime::FailClient(ClientId client) {
  resource_manager_.ReleaseClient(client);
  return object_store_.ReleaseAllForOwner(client);
}

GangScheduler::ClientSchedStats PathwaysRuntime::SchedStatsFor(
    ClientId client) const {
  GangScheduler::ClientSchedStats total;
  for (const auto& sched : schedulers_) {
    auto it = sched->client_stats().find(client.value());
    if (it == sched->client_stats().end()) continue;
    total.gangs_dispatched += it->second.gangs_dispatched;
    total.queue_wait += it->second.queue_wait;
  }
  return total;
}

std::int64_t PathwaysRuntime::total_pass_rebases() const {
  std::int64_t total = 0;
  for (const auto& sched : schedulers_) total += sched->pass_rebases();
  return total;
}

void PathwaysRuntime::RegisterExecution(
    const std::shared_ptr<ProgramExecution>& exec) {
  live_execs_[exec->id()] = exec;
}

void PathwaysRuntime::OnExecutionFinished(ExecutionId id, bool success) {
  live_execs_.erase(id);
  if (success) {
    ++executions_completed_;
  } else {
    ++executions_aborted_;
  }
  for (const auto& [token, observer] : observers_) {
    observer(id, success);
  }
}

int PathwaysRuntime::AbortExecutionsUsing(hw::DeviceId dev) {
  // Collect first: Abort() mutates live_execs_ (via OnExecutionFinished).
  std::vector<std::shared_ptr<ProgramExecution>> doomed;
  for (const auto& [id, weak] : live_execs_) {
    if (std::shared_ptr<ProgramExecution> exec = weak.lock()) {
      if (!exec->aborted() && exec->UsesDevice(dev)) doomed.push_back(exec);
    }
  }
  for (const auto& exec : doomed) exec->Abort();
  return static_cast<int>(doomed.size());
}

Duration PathwaysRuntime::Jitter(Duration nominal) {
  const double frac = cluster_->params().host_jitter_frac;
  if (frac <= 0.0) return nominal;
  return nominal * (1.0 + rng_.NextExponential(frac));
}

}  // namespace pw::pathways
