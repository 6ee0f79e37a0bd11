// Internal helpers shared by the family_*.cpp measurement harnesses.
#pragma once

#include <memory>

#include "hw/cluster.h"
#include "hw/system_params.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"

namespace pw::scenario {

// SystemParams from the cluster spec: preset base (tpu_default/config_* ->
// TpuDefault, gpu_vm -> GpuVmDefault) plus the optional overrides and the
// flow-level ICI/DCN toggles. Families may further override derived fields
// (e.g. serving computes hbm_capacity from its KV working set).
hw::SystemParams BaseSystemParams(const ClusterSpec& c);

// Cluster from the spec's shape. config_a/config_b/gpu_vm use the preset
// constructors with hosts_per_island as the host count; tpu_default uses
// the uniform (islands x hosts x devices) constructor.
std::unique_ptr<hw::Cluster> BuildCluster(sim::Simulator* sim,
                                          const ClusterSpec& c,
                                          const hw::SystemParams& params);

// Family constructors, one per measurement harness (assembled into the
// registry by runner.cpp).
Family MakeMultitenantFamily();
Family MakeFaultsFamily();
Family MakeOversubFamily();
Family MakeServingFamily();
Family MakeServingDisaggFamily();
Family MakeNetworkFamily();
Family MakeFig12Family();
Family MakeDispatchFamily();
Family MakePipelineDispatchFamily();
Family MakeTrainingFamily();
Family MakeClientsFamily();

}  // namespace pw::scenario
