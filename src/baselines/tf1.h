// TensorFlow-v1-style single-controller baseline (paper §2, Fig. 1b/1c).
//
// One coordinator drives workers over the DCN with the pathologies the
// paper attributes to TF1:
//   * the full sharded graph is materialized: per-run control messages are
//     emitted per *device* (M x N edges, no compact sharded representation);
//   * gang order is enforced by a centralized barrier implemented with
//     control edges: the coordinator releases computation k+1 only after
//     every worker acked computation k — no parallel dispatch;
//   * there is no device object store: results return to the client after
//     each call (device→host PCIe + DCN), which hurts OpByOp throughput.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "baselines/microbench.h"
#include "hw/cluster.h"
#include "sim/serial_resource.h"

namespace pw::baselines {

class Tf1SingleController {
 public:
  explicit Tf1SingleController(hw::Cluster* cluster);

  MicrobenchResult Measure(const MicrobenchSpec& spec);

  Duration UnitKernelTime(const MicrobenchSpec& spec) const;

 private:
  void StartCall();
  void RunComputation(int remaining_in_call);
  void FinishCall();
  std::shared_ptr<hw::CollectiveGroup> NewGroup();

  hw::Cluster* cluster_;
  MicrobenchSpec spec_;
  std::unique_ptr<hw::Host> coordinator_host_;
  std::unique_ptr<sim::SerialResource> coordinator_;
  std::int64_t group_counter_ = 0;
  std::int64_t computations_done_ = 0;
  bool counting_ = false;
  bool running_ = false;
};

}  // namespace pw::baselines
