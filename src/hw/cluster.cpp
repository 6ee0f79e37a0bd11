#include "hw/cluster.h"

namespace pw::hw {

Island::Island(sim::Simulator* sim, IslandId id, const SystemParams& params)
    : sim_(sim),
      id_(id),
      params_(params),
      collective_model_(std::make_unique<net::CollectiveModel>(params.ici)) {}

void Island::AddDevice(Device* d) {
  devices_.push_back(d);
  egress_.push_back(std::make_unique<net::Link>(
      sim_, "ici" + std::to_string(d->id().value()), params_.ici_ptp_latency,
      params_.ici_ptp_bandwidth));
}

void Island::Finalize() {
  if (!params_.ici_flow.enabled) return;
  // Devices arrive one by one after construction, so the torus (whose shape
  // is the device count) can only be built here. Balanced 2D/3D dims; a
  // degenerate 1 x n "torus" (prime counts) is just a ring.
  const int n = static_cast<int>(devices_.size());
  const double bw = params_.ici_flow.link_bandwidth > 0
                        ? params_.ici_flow.link_bandwidth
                        : params_.ici.link_bandwidth;
  ici_topo_ = std::make_unique<net::Topology>();
  ici_torus_ = std::make_unique<net::TorusTopology>(
      ici_topo_.get(),
      net::TorusTopology::BalancedDims(n, params_.ici_flow.dims), bw,
      "ici" + std::to_string(id_.value()));
  ici_flows_ = std::make_unique<net::FlowNetwork>(sim_, ici_topo_.get());
  collective_model_ = std::make_unique<net::FlowCollectiveModel>(
      params_.ici, ici_topo_.get(), ici_torus_.get());
}

sim::SimFuture<sim::Unit> Island::Transfer(DeviceId src, DeviceId dst, Bytes bytes) {
  // Locate the source device's egress link within this island.
  int src_index = -1;
  net::Link* link = nullptr;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i]->id() == src) {
      src_index = static_cast<int>(i);
      link = egress_[i].get();
      break;
    }
  }
  PW_CHECK(link != nullptr) << "device " << src << " not in island " << id_;
  int dst_index = -1;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i]->id() == dst) {
      dst_index = static_cast<int>(i);
      break;
    }
  }
  PW_CHECK_GE(dst_index, 0) << "device " << dst << " not in island " << id_
                            << " (cross-island transfers must use the DCN)";
  ici_bytes_ += bytes;
  if (ici_flows_ && src_index != dst_index) {
    // Flow-level torus: contend on the dimension-ordered route.
    sim::SimPromise<sim::Unit> p(sim_);
    ici_flows_->StartFlow(ici_torus_->Path(src_index, dst_index), bytes,
                          params_.ici_ptp_latency,
                          [p]() mutable { p.Set(sim::Unit{}); });
    return p.future();
  }
  return link->TransferAsync(bytes);
}

Cluster::Cluster(sim::Simulator* sim, const SystemParams& params, int islands,
                 int hosts_per_island, int devices_per_host)
    : sim_(sim), params_(params), dcn_(sim, params.dcn) {
  PW_CHECK_GE(islands, 1);
  PW_CHECK_GE(hosts_per_island, 1);
  PW_CHECK_GE(devices_per_host, 1);
  IdGenerator<DeviceTag> device_ids;
  std::int64_t next_host = 0;
  for (int isl = 0; isl < islands; ++isl) {
    auto island = std::make_unique<Island>(sim, IslandId(isl), params_);
    for (int h = 0; h < hosts_per_island; ++h) {
      auto host = std::make_unique<Host>(sim, HostId(next_host++), params_, &dcn_);
      island->AddHost(host.get());
      for (int d = 0; d < devices_per_host; ++d) {
        auto dev = std::make_unique<Device>(sim, device_ids.Next(), IslandId(isl),
                                            params_.hbm_capacity,
                                            params_.kernel_launch_overhead);
        host->AttachDevice(dev.get());
        island->AddDevice(dev.get());
        host_of_.push_back(host.get());
        devices_.push_back(std::move(dev));
      }
      hosts_.push_back(std::move(host));
    }
    island->Finalize();  // builds the flow-level ICI once devices exist
    islands_.push_back(std::move(island));
  }
}

void Cluster::EnableTrace() {
  for (auto& d : devices_) d->set_trace(&trace_);
}

std::unique_ptr<Cluster> Cluster::ConfigA(sim::Simulator* sim, int hosts,
                                          SystemParams params) {
  PW_CHECK_LE(hosts, kConfigAMaxHosts)
      << "config A tops out at 512 hosts (2048 TPUs)";
  return std::make_unique<Cluster>(sim, params, /*islands=*/1, hosts,
                                   /*devices_per_host=*/4);
}

std::unique_ptr<Cluster> Cluster::ConfigB(sim::Simulator* sim, int hosts,
                                          SystemParams params) {
  PW_CHECK_LE(hosts, kConfigBMaxHosts)
      << "config B tops out at 64 hosts (512 TPUs)";
  return std::make_unique<Cluster>(sim, params, /*islands=*/1, hosts,
                                   /*devices_per_host=*/8);
}

std::unique_ptr<Cluster> Cluster::ConfigC(sim::Simulator* sim, SystemParams params) {
  // Four islands, each 4 hosts x 8 TPUs = 32 TPUs per island.
  return std::make_unique<Cluster>(sim, params, /*islands=*/4,
                                   /*hosts_per_island=*/4,
                                   /*devices_per_host=*/8);
}

std::unique_ptr<Cluster> Cluster::GpuVm(sim::Simulator* sim, int hosts,
                                        SystemParams params) {
  // Every VM is its own "island" of one GPU; all communication is DCN.
  return std::make_unique<Cluster>(sim, params, /*islands=*/hosts,
                                   /*hosts_per_island=*/1,
                                   /*devices_per_host=*/1);
}

}  // namespace pw::hw
