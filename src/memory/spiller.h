// Spiller: reacts to HBM back-pressure stalls by migrating idle device
// buffers to host DRAM (paper §4.6 made survivable: back-pressure stalls a
// computation when HBM is occupied, and the spiller is what eventually
// un-occupies it when the holders are merely cold, not running).
//
// The spiller is policy + pacing only. Mechanism — victim selection state,
// residency transitions, PCIe modeling, allocator accounting — lives behind
// the SpillBackend interface (implemented by pathways::ObjectStore), which
// keeps this module free of upper-layer types. Per device the spiller keeps
// at most one migration in flight; every spill completion re-checks the
// stall and kicks again, so a deep waiter queue drains one LRU victim at a
// time.
//
// A stall with nothing left to spill is left alone: mid-run it is usually a
// plain capacity wait that running kernels or in-flight migrations relieve
// (every completion re-kicks). A stall that survives to simulator
// quiescence is a true wedge — the object store's blocked probes report it
// through Simulator::BlockedEntities, and its CheckNoReservationWedge()
// PW_CHECKs with the wait-for cycle's executions named.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "common/logging.h"
#include "sim/simulator.h"

namespace pw::memory {

class SpillBackend {
 public:
  virtual ~SpillBackend() = default;

  // True if `device` has a queued HBM reservation that cannot currently be
  // granted.
  virtual bool HasStalledReservation(int device) const = 0;

  // Picks the least-recently-used idle resident shard on `device` and starts
  // migrating it to host DRAM; returns false if no shard is spillable (all
  // pinned / in flight / DRAM full). On completion the backend must call
  // Spiller::OnSpillComplete(device).
  virtual bool StartSpill(int device) = 0;
};

class Spiller {
 public:
  Spiller(sim::Simulator* sim, SpillBackend* backend)
      : sim_(sim), backend_(backend) {
    PW_CHECK(sim != nullptr && backend != nullptr);
  }

  Spiller(const Spiller&) = delete;
  Spiller& operator=(const Spiller&) = delete;

  // Called (synchronously, from the allocator's stall observer) whenever a
  // reservation on `device` queues or remains unserviceable after a free.
  // Defers the actual policy work to a zero-delay event so spilling never
  // reenters the allocator mid-operation.
  void OnStall(int device);

  // Called by the backend when a migration it started finishes (or aborts
  // because the buffer died mid-flight).
  void OnSpillComplete(int device);

  std::int64_t spills_started() const { return spills_started_; }
  std::int64_t stall_kicks() const { return stall_kicks_; }

 private:
  void Kick(int device);

  sim::Simulator* sim_;
  SpillBackend* backend_;
  std::map<int, bool> migrating_;     // a migration is in flight
  std::map<int, bool> kick_pending_;  // a zero-delay Kick is scheduled
  std::int64_t spills_started_ = 0;
  std::int64_t stall_kicks_ = 0;
};

}  // namespace pw::memory
