#include "memory/spiller.h"

namespace pw::memory {

void Spiller::OnStall(int device) {
  if (kick_pending_[device]) return;
  if (migrating_[device]) return;
  kick_pending_[device] = true;
  sim_->Schedule(Duration::Zero(), [this, device] {
    kick_pending_[device] = false;
    Kick(device);
  });
}

void Spiller::OnSpillComplete(int device) {
  PW_CHECK(migrating_[device]);
  migrating_[device] = false;
  if (backend_->HasStalledReservation(device)) OnStall(device);
}

void Spiller::Kick(int device) {
  ++stall_kicks_;
  if (migrating_[device] || !backend_->HasStalledReservation(device)) return;
  if (backend_->StartSpill(device)) {
    migrating_[device] = true;
    ++spills_started_;
  }
  // Otherwise nothing is spillable right now: running kernels or in-flight
  // migrations will free memory and re-trigger us. If nothing ever does,
  // quiescence reports the wedge (blocked probes / CheckNoReservationWedge).
}

}  // namespace pw::memory
