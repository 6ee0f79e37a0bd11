// TPU-like accelerator device.
//
// Semantics matching the paper's TPU model (§2, Appendix A.5):
//   * single-threaded: executes exactly one kernel at a time;
//   * non-preemptible: a started kernel runs to completion;
//   * in-order: kernels run in enqueue order (the hardware stream);
//   * a kernel may contain a collective, at which point the device parks
//     at the rendezvous until all participants arrive.
//
// Kernels gate on input futures *before* starting (DMA completions of the
// input buffers); once started the device is committed. Devices register a
// blocked-probe with the simulator so that quiescence with a parked device
// is reported as a deadlock — the failure mode gang-scheduling prevents.
//
// Availability state machine (fault injection, see docs/FAULTS.md):
// a device is kHealthy or kFailed. Fail() is fail-stop: the in-flight
// kernel is abandoned, queued kernels are discarded (their completion
// futures fire so host-side cleanup unwinds), and kernels enqueued while
// failed complete immediately without running — the layers above are
// responsible for having aborted the executions that owned them. Recover()
// returns the device to service with an empty stream. A per-device compute
// multiplier (straggler injection) scales kernel pre/post compute time;
// at exactly 1.0 the timing math is bypassed so fault-free runs stay
// bit-identical to builds without the fault subsystem.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strong_id.h"
#include "common/units.h"
#include "hw/collective_group.h"
#include "hw/hbm.h"
#include "sim/future.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace pw::hw {

struct DeviceTag {};
using DeviceId = StrongId<DeviceTag>;
struct IslandTag {};
using IslandId = StrongId<IslandTag>;

// One accelerator kernel: optional compute before a collective, the
// collective itself, and compute after. Plain compute kernels leave
// `collective` null.
struct KernelDesc {
  std::string label = "kernel";
  std::int64_t client = -1;  // for tracing / fairness accounting
  Duration pre_time = Duration::Zero();
  std::shared_ptr<CollectiveGroup> collective;  // may be null
  Bytes collective_bytes = 0;
  Duration post_time = Duration::Zero();
  std::vector<sim::SimFuture<sim::Unit>> inputs;  // must complete to start
};

enum class DeviceHealth { kHealthy, kFailed };

class Device {
 public:
  Device(sim::Simulator* sim, DeviceId id, IslandId island, Bytes hbm_capacity,
         Duration launch_overhead);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  DeviceId id() const { return id_; }
  IslandId island() const { return island_; }
  HbmAllocator& hbm() { return hbm_; }
  const HbmAllocator& hbm() const { return hbm_; }

  // Enqueues a kernel on the device stream; returns its completion future.
  // Order of Enqueue calls is the execution order (TPU stream semantics).
  // On a failed device the future fires immediately and the kernel never
  // runs (no compute, no trace span); callers that care must check health
  // before enqueueing.
  sim::SimFuture<sim::Unit> Enqueue(KernelDesc desc);

  // --- Availability state machine ---
  // Fail-stop crash: abandons the in-flight kernel, discards the queue
  // (firing each discarded kernel's completion future so executor cleanup
  // runs), and rejects future work until Recover(). Idempotent.
  void Fail();
  // Returns a failed device to service with an empty stream. Idempotent.
  void Recover();
  DeviceHealth health() const { return health_; }
  bool failed() const { return health_ == DeviceHealth::kFailed; }

  // Straggler knob: scales kernel pre/post compute time (> 0; 1.0 = nominal,
  // 2.0 = twice as slow). Exactly 1.0 bypasses the scaling arithmetic.
  void set_compute_multiplier(double m);
  double compute_multiplier() const { return compute_multiplier_; }

  // Observability.
  std::int64_t kernels_completed() const { return completed_; }
  std::int64_t kernels_dropped() const { return dropped_; }
  std::int64_t failures() const { return failures_; }
  std::size_t queue_depth() const { return queue_.size(); }
  Duration busy_time() const { return busy_accum_; }
  bool executing() const { return executing_; }

  // Description of why this device is blocked, or "" if it is not. Used by
  // Simulator deadlock probes.
  std::string BlockedReason() const;

  // Records a span per completed kernel into `trace` (null: no recording).
  void set_trace(sim::TraceRecorder* trace) { trace_ = trace; }

 private:
  struct QueuedKernel {
    KernelDesc desc;
    sim::SimPromise<sim::Unit> done;
  };

  void MaybeStart();
  void RunHead();
  void FinishHead(TimePoint started);
  Duration ScaleCompute(Duration d) const {
    return compute_multiplier_ == 1.0 ? d : d * compute_multiplier_;
  }

  sim::Simulator* sim_;
  DeviceId id_;
  IslandId island_;
  HbmAllocator hbm_;
  Duration launch_overhead_;
  sim::TraceRecorder* trace_ = nullptr;

  std::deque<QueuedKernel> queue_;
  bool executing_ = false;        // head kernel occupies the core
  bool waiting_inputs_ = false;   // head kernel gated on input futures
  bool at_rendezvous_ = false;    // head kernel parked at a collective
  DeviceHealth health_ = DeviceHealth::kHealthy;
  // Bumped by Fail(): timing events scheduled before the crash carry the
  // epoch they were scheduled in and no-op if it moved (the kernel they
  // belonged to is gone).
  std::uint64_t epoch_ = 0;
  double compute_multiplier_ = 1.0;
  std::int64_t completed_ = 0;
  std::int64_t dropped_ = 0;      // kernels discarded by Fail()/while failed
  std::int64_t failures_ = 0;
  Duration busy_accum_;
};

}  // namespace pw::hw
