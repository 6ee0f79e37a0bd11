// Ray-style actor baseline on GPU VMs (paper §5.1 evaluation setup: Ray
// v1.3 + PyTorch on p3.2xlarge, one V100 per host, DCN-connected).
//
// Each host runs a long-lived actor; a driver invokes actor methods that
// execute PyTorch AllReduces. The costs the paper calls out:
//   * actor-method invocation overhead (general-purpose Python actors);
//   * no on-GPU object store: "Ray must transfer the result of a
//     computation from GPU to DRAM before returning the object handle";
//   * collectives ride NCCL rings over the DCN (no fast interconnect).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/microbench.h"
#include "common/rng.h"
#include "hw/cluster.h"
#include "sim/serial_resource.h"

namespace pw::baselines {

class RayLike {
 public:
  explicit RayLike(hw::Cluster* cluster);

  MicrobenchResult Measure(const MicrobenchSpec& spec);

  Duration UnitCollectiveTime() const;

 private:
  void StartCall();
  void RunStep(int remaining_in_call);
  std::shared_ptr<hw::CollectiveGroup> NewGroup();

  hw::Cluster* cluster_;
  Rng rng_;
  MicrobenchSpec spec_;
  std::unique_ptr<hw::Host> driver_host_;
  std::vector<std::unique_ptr<sim::SerialResource>> actors_;  // per host
  std::int64_t group_counter_ = 0;
  std::int64_t computations_done_ = 0;
  bool counting_ = false;
  bool running_ = false;
};

}  // namespace pw::baselines
