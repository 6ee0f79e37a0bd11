// Per-device executor (paper Fig. 3: "Executor (per device)").
//
// Receives gang-dispatch messages from the island scheduler and performs
// the host-side work for one shard of one computation: executor prep
// (input-buffer allocation, address exchange, launch descriptor), HBM
// reservations, then the actual kernel enqueue over PCIe. Enqueues are
// issued in exactly the scheduler's arrival order per device — preps may
// finish out of order (HBM back-pressure, jitter) but a later gang's kernel
// never jumps an earlier one, preserving the consistent gang order.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "common/units.h"
#include "hw/cluster.h"
#include "pathways/execution.h"
#include "pathways/ids.h"

namespace pw::pathways {

class PathwaysRuntime;

class DeviceExecutor {
 public:
  DeviceExecutor(PathwaysRuntime* runtime, hw::Device* device, hw::Host* host);

  DeviceExecutor(const DeviceExecutor&) = delete;
  DeviceExecutor& operator=(const DeviceExecutor&) = delete;

  hw::Device* device() { return device_; }
  hw::Host* host() { return host_; }

  // Entry point: a dispatch message for (exec, node, shard) has arrived at
  // this executor's host.
  void Dispatch(std::shared_ptr<ProgramExecution> exec, int node, int shard);

  std::int64_t kernels_enqueued() const { return next_enqueue_seq_; }

 private:
  void EnqueueInOrder(std::uint64_t seq,
                      sim::InlineFunction<void()> enqueue_fn);
  void DrainReady();

  PathwaysRuntime* runtime_;
  hw::Device* device_;
  hw::Host* host_;
  std::uint64_t next_arrival_seq_ = 0;
  std::uint64_t next_enqueue_seq_ = 0;
  std::map<std::uint64_t, sim::InlineFunction<void()>> ready_;
};

}  // namespace pw::pathways
