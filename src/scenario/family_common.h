// Internal helpers shared by the family_*.cpp measurement harnesses.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
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

// The names of a constant table whose rows carry a `name`: the accepted
// values of the string axis that selects a row (FamilyAxis::values).
template <typename Row, std::size_t N>
std::vector<std::string> NamesOf(const Row (&table)[N]) {
  std::vector<std::string> names;
  for (const Row& row : table) names.emplace_back(row.name);
  return names;
}

// The row of `table` named `name`. ValidateForFamily has already rejected
// names outside NamesOf(table), so a miss is a bug.
template <typename Row, std::size_t N>
const Row& FindByName(const Row (&table)[N], const std::string& name) {
  for (const Row& row : table) {
    if (name == row.name) return row;
  }
  PW_CHECK(false) << "no row named '" << name << "'";
  return table[0];
}

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
Family MakeSimcoreFamily();

}  // namespace pw::scenario
