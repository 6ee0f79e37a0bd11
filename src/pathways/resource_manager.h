// Centralized resource manager (paper §4.1).
//
// Owns all devices across all islands; hands out "virtual slices" with the
// requested device count, keeping a one-to-one virtual→physical mapping and
// statically balancing load by preferring the least-loaded devices. Devices
// can be removed (drain/maintenance) and added dynamically; virtual devices
// mapped to a removed physical device are transparently remapped, and
// clients pick up the new mapping the next time a program is lowered —
// the paper's suspend/resume/migration hook.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/status.h"
#include "hw/cluster.h"
#include "pathways/ids.h"
#include "pathways/virtual_device.h"

namespace pw::pathways {

class ResourceManager {
 public:
  explicit ResourceManager(hw::Cluster* cluster);

  // Allocates `num_devices` virtual devices on one island. If `island` is
  // set, allocates there; otherwise picks the island with the most free
  // capacity. Fails if no single island can host the slice.
  StatusOr<VirtualSlice> AllocateSlice(ClientId client, int num_devices,
                                       std::optional<hw::IslandId> island = std::nullopt);

  // Releases a slice's load accounting and mappings.
  void ReleaseSlice(const VirtualSlice& slice);

  // Releases everything owned by a client (client failure / disconnect).
  void ReleaseClient(ClientId client);

  // Physical device currently backing a virtual device.
  hw::DeviceId Lookup(VirtualDeviceId vdev) const;

  // --- Dynamic reconfiguration ---
  // Removes a physical device from service; virtual devices mapped to it are
  // remapped to the least-loaded remaining device on the same island.
  // Fails (and rolls back) if the island has no other device — a *drain*
  // refuses to strand tenants.
  Status RemoveDevice(hw::DeviceId dev);
  // Returns a previously removed device to service.
  Status AddDevice(hw::DeviceId dev);

  // --- Failure handling (see docs/FAULTS.md) ---
  // A *crash* differs from a drain: the device is gone whether or not
  // spares exist, so the device always leaves service. Virtual devices are
  // remapped to island spares where possible; those that cannot be remapped
  // stay pointed at the dead device (executions lowered against them abort
  // at dispatch until the device recovers) and are counted as stranded.
  // Returns FailedPrecondition only if the device was already failed.
  Status MarkDeviceFailed(hw::DeviceId dev);
  // Recovery: the device rejoins service (and future remaps/allocations).
  Status MarkDeviceRecovered(hw::DeviceId dev);

  // --- Introspection ---
  int load(hw::DeviceId dev) const;
  int num_available_devices() const;
  bool in_service(hw::DeviceId dev) const;
  std::int64_t slices_allocated() const { return slices_allocated_; }
  std::int64_t vdevs_remapped() const { return vdevs_remapped_; }
  std::int64_t vdevs_stranded() const { return vdevs_stranded_; }

 private:
  struct VDevState {
    hw::DeviceId physical;
    ClientId owner;
    // Slice the vdev belongs to. Shards of one slice must stay on distinct
    // physical devices — two gang members on one single-threaded device
    // would self-deadlock at their collective rendezvous — so remaps
    // exclude devices already backing the same slice.
    std::int64_t slice_seq = -1;
  };

  // Least-loaded in-service devices of an island, stable order.
  std::vector<hw::DeviceId> PickDevices(hw::IslandId island, int count) const;
  int FreeCapacityRank(hw::IslandId island) const;
  // Least-loaded in-service island device not in `taken` (the devices
  // already backing the vdev's slice); invalid id if none exists.
  hw::DeviceId PickReplacement(hw::IslandId island,
                               const std::set<hw::DeviceId>& taken) const;
  // Devices currently backing each slice (keyed by slice_seq), computed in
  // one pass so per-vdev replacement lookups are set probes.
  std::map<std::int64_t, std::set<hw::DeviceId>> SliceDeviceSets() const;
  // Remaps every virtual device pointing at `dev` to an island spare,
  // keeping `by_slice` (a SliceDeviceSets() snapshot) current as it goes.
  // Returns the number left stranded (no valid spare available).
  int RemapAway(hw::DeviceId dev,
                std::map<std::int64_t, std::set<hw::DeviceId>>& by_slice);

  hw::Cluster* cluster_;
  std::map<VirtualDeviceId, VDevState> vdevs_;
  std::map<hw::DeviceId, int> load_;          // virtual devices per physical
  std::map<hw::DeviceId, bool> in_service_;
  IdGenerator<VirtualDeviceTag> vdev_ids_;
  std::int64_t slices_allocated_ = 0;
  std::int64_t vdevs_remapped_ = 0;
  std::int64_t vdevs_stranded_ = 0;
};

}  // namespace pw::pathways
