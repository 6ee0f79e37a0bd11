// Cluster topology: islands of devices with private ICI interconnects,
// hosts with local devices, all hosts on a shared DCN fabric (paper Fig. 3).
//
// Provides the paper's evaluation configurations:
//   Config A: one island, 4 TPUs/host, up to 512 hosts (2048 TPUs).
//   Config B: one island, 8 TPUs/host, up to 64 hosts (512 TPUs).
//   Config C: four islands, each 4 hosts x 8 TPUs (32 TPUs/island).
//   GpuVm:    N single-GPU hosts connected only by DCN (Ray baseline).
//
// Typical use:
//
//   sim::Simulator sim;
//   auto cluster = hw::Cluster::ConfigB(&sim, /*hosts=*/16);  // 128 TPUs
//   hw::Island& island = cluster->island(0);
//   auto done = island.Transfer(DeviceId(0), DeviceId(1), MiB(64));
//   done.Then([&](sim::Unit) { /* data landed on device 1 */ });
//   sim.Run();
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "hw/device.h"
#include "hw/host.h"
#include "hw/system_params.h"
#include "net/collective_model.h"
#include "net/dcn.h"
#include "net/flow.h"
#include "net/link.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace pw::hw {

// An island: a set of devices joined by a private high-bandwidth
// interconnect over which collectives and point-to-point transfers run
// without touching host memory or the DCN.
//
// Two ICI fidelity levels (SystemParams::ici_flow, docs/NETWORK.md):
//   * Abstract (default): per-device egress Links for point-to-point,
//     analytic CollectiveModel for collectives.
//   * Flow-level torus: devices form a 2D/3D torus; transfers become flows
//     on dimension-ordered routes with max-min fair link sharing, and
//     collectives are priced by FlowCollectiveModel over the same links
//     (ring vs tree all-reduce chosen by size).
class Island {
 public:
  Island(sim::Simulator* sim, IslandId id, const SystemParams& params);

  IslandId id() const { return id_; }
  const std::vector<Device*>& devices() const { return devices_; }
  const std::vector<Host*>& hosts() const { return hosts_; }
  const net::CollectiveModel& collectives() const { return *collective_model_; }

  // Device-to-device transfer over ICI. Abstract mode serializes on the
  // source device's egress link; flow mode contends on the torus route.
  // Completion future fires when the data lands in the destination buffers.
  sim::SimFuture<sim::Unit> Transfer(DeviceId src, DeviceId dst, Bytes bytes);

  Bytes ici_bytes_transferred() const { return ici_bytes_; }

  // Flow-level ICI introspection and fault surface (null in abstract mode).
  // To degrade one torus edge, SetLinkScale on ici_topology() and then call
  // ici_flow_network()->OnCapacityChanged() so active flows re-share from
  // now (a new topology generation makes the flow network re-solve every
  // flow); the collective model reprices itself via the same generation.
  net::Topology* ici_topology() { return ici_topo_.get(); }
  const net::TorusTopology* ici_torus() const { return ici_torus_.get(); }
  net::FlowNetwork* ici_flow_network() { return ici_flows_.get(); }

 private:
  friend class Cluster;
  void AddDevice(Device* d);
  void AddHost(Host* h) { hosts_.push_back(h); }
  // Called by Cluster once all devices exist: builds the torus + flow
  // engine and swaps in the FlowCollectiveModel when ici_flow.enabled.
  void Finalize();

  sim::Simulator* sim_;
  IslandId id_;
  const SystemParams& params_;
  std::unique_ptr<net::CollectiveModel> collective_model_;
  std::vector<Device*> devices_;
  std::vector<Host*> hosts_;
  std::vector<std::unique_ptr<net::Link>> egress_;  // parallel to devices_
  std::unique_ptr<net::Topology> ici_topo_;
  std::unique_ptr<net::TorusTopology> ici_torus_;
  std::unique_ptr<net::FlowNetwork> ici_flows_;
  Bytes ici_bytes_ = 0;
};

class Cluster {
 public:
  // Uniform topology: `islands` islands, each with `hosts_per_island` hosts
  // carrying `devices_per_host` devices.
  Cluster(sim::Simulator* sim, const SystemParams& params, int islands,
          int hosts_per_island, int devices_per_host);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Paper evaluation configurations. ConfigA takes at most kConfigAMaxHosts
  // hosts (2048 TPUs), ConfigB at most kConfigBMaxHosts (512 TPUs).
  static constexpr int kConfigAMaxHosts = 512;
  static constexpr int kConfigBMaxHosts = 64;
  static std::unique_ptr<Cluster> ConfigA(sim::Simulator* sim, int hosts,
                                          SystemParams params = SystemParams::TpuDefault());
  static std::unique_ptr<Cluster> ConfigB(sim::Simulator* sim, int hosts,
                                          SystemParams params = SystemParams::TpuDefault());
  static std::unique_ptr<Cluster> ConfigC(sim::Simulator* sim,
                                          SystemParams params = SystemParams::TpuDefault());
  static std::unique_ptr<Cluster> GpuVm(sim::Simulator* sim, int hosts,
                                        SystemParams params = SystemParams::GpuVmDefault());

  sim::Simulator& simulator() { return *sim_; }
  const SystemParams& params() const { return params_; }
  net::DcnFabric& dcn() { return dcn_; }

  // Kernel spans (one per completed kernel, resource "dev<id>") are opt-in:
  // devices record into trace() only after EnableTrace(), so untraced runs
  // pay nothing for them. Call it before running anything whose spans you
  // read; until then trace() is an empty recorder.
  void EnableTrace();
  sim::TraceRecorder& trace() { return trace_; }

  int num_islands() const { return static_cast<int>(islands_.size()); }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  int num_devices() const { return static_cast<int>(devices_.size()); }

  Island& island(int i) { return *islands_.at(static_cast<std::size_t>(i)); }
  Host& host(int i) { return *hosts_.at(static_cast<std::size_t>(i)); }
  Device& device(int i) { return *devices_.at(static_cast<std::size_t>(i)); }

  Device& device(DeviceId id) { return *devices_.at(static_cast<std::size_t>(id.value())); }
  Host& host(HostId id) { return *hosts_.at(static_cast<std::size_t>(id.value())); }

  // Host that owns a given device.
  Host& host_of(DeviceId id) {
    return *host_of_.at(static_cast<std::size_t>(id.value()));
  }
  Island& island_of(DeviceId id) {
    return *islands_.at(static_cast<std::size_t>(
        device(id).island().value()));
  }

 private:
  sim::Simulator* sim_;
  SystemParams params_;
  net::DcnFabric dcn_;
  sim::TraceRecorder trace_;
  std::vector<std::unique_ptr<Island>> islands_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<Host*> host_of_;  // indexed by device id
};

}  // namespace pw::hw
