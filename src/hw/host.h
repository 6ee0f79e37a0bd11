// A host machine: CPU dispatch thread, PCIe links to its local devices, and
// a NIC on the DCN fabric. Hosts are where all framework-side work costs
// time: kernel dispatch, executor prep, RPC handling.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "hw/device.h"
#include "hw/system_params.h"
#include "memory/dram_allocator.h"
#include "net/dcn.h"
#include "net/link.h"
#include "sim/serial_resource.h"
#include "sim/simulator.h"

namespace pw::hw {

using HostId = net::HostId;

class Host {
 public:
  Host(sim::Simulator* sim, HostId id, const SystemParams& params,
       net::DcnFabric* dcn);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  HostId id() const { return id_; }

  // Attaches a locally connected device (creates its PCIe link).
  void AttachDevice(Device* device);
  const std::vector<Device*>& devices() const { return devices_; }

  // The host's dispatch thread; work submitted here serializes.
  sim::SerialResource& cpu() { return cpu_; }

  // Runs `fn` after `cost` of CPU time (queued FIFO on the dispatch thread).
  void RunOnCpu(Duration cost, sim::InlineFunction<void()> fn) {
    cpu_.Submit(cost, std::move(fn));
  }

  // Enqueues `kernel` on a local device: CPU dispatch cost, then the command
  // crosses PCIe, then the kernel joins the device stream. Returns a future
  // for the *kernel completion* (not the enqueue).
  sim::SimFuture<sim::Unit> DispatchKernel(Device* device, KernelDesc kernel,
                                           Duration cpu_cost);

  // Sends `bytes` to another host over the DCN; `on_delivered` runs at the
  // destination's arrival time.
  void SendDcn(HostId dst, Bytes bytes,
               sim::InlineFunction<void()> on_delivered) {
    dcn_->Send(id_, dst, bytes, std::move(on_delivered));
  }

  net::Link& pcie(DeviceId device) {
    auto it = pcie_.find(device);
    PW_CHECK(it != pcie_.end()) << "device " << device << " not on host " << id_;
    return *it->second;
  }

  net::DcnFabric& dcn() { return *dcn_; }
  const SystemParams& params() const { return params_; }

  // Host DRAM backing spilled/staged device data (capacity accounting only;
  // the spill data path itself rides the device's PCIe link).
  memory::DramAllocator& dram() { return dram_; }
  const memory::DramAllocator& dram() const { return dram_; }

 private:
  sim::Simulator* sim_;
  HostId id_;
  const SystemParams& params_;
  net::DcnFabric* dcn_;
  sim::SerialResource cpu_;
  memory::DramAllocator dram_;
  std::vector<Device*> devices_;
  std::map<DeviceId, std::unique_ptr<net::Link>> pcie_;
};

}  // namespace pw::hw
