// PathwaysRuntime: composition root for the single-controller runtime.
//
// Owns the resource manager, object store, one gang scheduler per island,
// and one executor per device, all layered over a hw::Cluster. Clients are
// created against the runtime; each gets a dedicated client host on the DCN
// (the paper's client-server split: clients are "farther away" than the
// per-host controllers of multi-controller systems).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "hw/cluster.h"
#include "memory/spiller.h"
#include "pathways/executor.h"
#include "pathways/gang_scheduler.h"
#include "pathways/ids.h"
#include "pathways/object_store.h"
#include "pathways/options.h"
#include "pathways/resource_manager.h"

namespace pw::pathways {

class Client;

class PathwaysRuntime {
 public:
  PathwaysRuntime(hw::Cluster* cluster, PathwaysOptions options);
  ~PathwaysRuntime();

  PathwaysRuntime(const PathwaysRuntime&) = delete;
  PathwaysRuntime& operator=(const PathwaysRuntime&) = delete;

  hw::Cluster& cluster() { return *cluster_; }
  sim::Simulator& simulator() { return cluster_->simulator(); }
  const PathwaysOptions& options() const { return options_; }
  const hw::SystemParams& params() const { return cluster_->params(); }

  ResourceManager& resource_manager() { return resource_manager_; }
  ObjectStore& object_store() { return object_store_; }
  // Spill engine behind every device's HBM stall observer (docs/MEMORY.md).
  memory::Spiller& spiller() { return *spiller_; }
  GangScheduler& scheduler(hw::IslandId island) {
    return *schedulers_.at(static_cast<std::size_t>(island.value()));
  }
  // Per-client scheduling stats summed over every island scheduler (a
  // multi-island program queues on several of them). Workload recorders use
  // this to split end-to-end latency into queueing and execution.
  GangScheduler::ClientSchedStats SchedStatsFor(ClientId client) const;
  // Total stride pass rebases across islands (drift-control telemetry).
  std::int64_t total_pass_rebases() const;
  DeviceExecutor& executor(hw::DeviceId device) {
    return *executors_.at(static_cast<std::size_t>(device.value()));
  }

  // Creates a client with its own host attached to the DCN. `weight` is the
  // proportional-share weight used by the stride scheduler.
  Client* CreateClient(double weight = 1.0);
  // Simulates a client failure: garbage-collects all buffers and virtual
  // devices the client owned. Returns the number of buffers collected.
  int FailClient(ClientId client);

  // --- Execution lifecycle & failure handling (see docs/FAULTS.md) ---
  // Every ProgramExecution registers itself here at creation and is dropped
  // when it finishes or aborts; the registry is what lets a device-crash
  // event find the in-flight work it doomed.
  void RegisterExecution(const std::shared_ptr<ProgramExecution>& exec);
  void OnExecutionFinished(ExecutionId id, bool success);
  // Aborts every live execution whose lowered placement includes `dev`
  // (gangs on that device can never complete). Returns the abort count.
  int AbortExecutionsUsing(hw::DeviceId dev);
  int live_executions() const { return static_cast<int>(live_execs_.size()); }
  std::int64_t executions_completed() const { return executions_completed_; }
  std::int64_t executions_aborted() const { return executions_aborted_; }

  // Observers run synchronously on every execution completion/abort (the
  // fault injector uses this to measure recovery latency and goodput).
  // Returns a token for RemoveExecutionObserver — observers capturing
  // shorter-lived objects must unregister before those objects die.
  using ExecutionObserver = std::function<void(ExecutionId, bool success)>;
  std::int64_t AddExecutionObserver(ExecutionObserver observer) {
    observers_.emplace_back(next_observer_id_, std::move(observer));
    return next_observer_id_++;
  }
  void RemoveExecutionObserver(std::int64_t token) {
    for (auto it = observers_.begin(); it != observers_.end(); ++it) {
      if (it->first == token) {
        observers_.erase(it);
        return;
      }
    }
  }

  // Host-side work jitter (exponential tail on CPU costs); deterministic.
  Duration Jitter(Duration nominal);

  IdGenerator<ExecutionTag>& execution_ids() { return execution_ids_; }

 private:
  hw::Cluster* cluster_;
  PathwaysOptions options_;
  ResourceManager resource_manager_;
  ObjectStore object_store_;
  std::unique_ptr<memory::Spiller> spiller_;
  std::vector<std::unique_ptr<GangScheduler>> schedulers_;
  std::vector<std::unique_ptr<DeviceExecutor>> executors_;
  std::vector<std::unique_ptr<hw::Host>> client_hosts_;
  std::vector<std::unique_ptr<Client>> clients_;
  IdGenerator<ClientTag> client_ids_;
  IdGenerator<ExecutionTag> execution_ids_;
  Rng rng_;
  std::int64_t next_client_host_id_;
  // Executions in flight; weak so a drained execution's callbacks don't keep
  // it alive through the registry.
  std::map<ExecutionId, std::weak_ptr<ProgramExecution>> live_execs_;
  std::vector<std::pair<std::int64_t, ExecutionObserver>> observers_;
  std::int64_t next_observer_id_ = 0;
  std::int64_t executions_completed_ = 0;
  std::int64_t executions_aborted_ = 0;
};

}  // namespace pw::pathways
