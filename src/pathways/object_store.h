// Sharded object store (paper §4.6).
//
// Buffers live in device HBM — or host DRAM for spilled/staged data — and
// are referenced by opaque handles, so the system is free to migrate them.
// Client-visible buffers are *logical*: one ShardedBuffer covers N device
// shards with a single reference count, which is what lets the client scale
// ("amortizing the cost of bookkeeping tasks at the granularity of logical
// buffers instead of individual shards", §4.2). Objects carry ownership
// labels so everything a failed client or program held can be garbage
// collected. Allocation is asynchronous: when HBM is full the returned
// ready-future blocks, the back-pressure mechanism of §4.6.
//
// Oversubscription machinery (docs/MEMORY.md):
//   * Reservation ordering. Every gang draws one global MemoryTicket at the
//     instant its island scheduler dispatches it (and every staged buffer
//     at creation); the HBM allocators serve waiters strictly in ticket
//     order. Within an island this coincides with arrival order — the
//     scheduler is the single emission point — and across sources it pins
//     the one global order that stops staging/retry traffic from entering
//     two devices' queues in opposite orders and circular-waiting.
//   * Spilling. The store is the memory::SpillBackend: cold (granted,
//     content-ready, unpinned) shards migrate to host DRAM over PCIe when
//     a device's waiters stall. Consumers *read through*: a spilled shard
//     is served straight from host DRAM into the consumer's input staging,
//     so no kernel ever gates on re-acquiring HBM — the property that makes
//     spilling deadlock-free against non-preemptible in-order device
//     streams. A same-device read additionally restores residency when
//     capacity is free (TryRestoreShard), amortizing repeated use.
//   * Diagnostics. Per-device blocked probes describe stalled reservations
//     for Simulator::BlockedEntities, DescribeReservationCycle renders a
//     wait-for-graph cycle with the executions named, and
//     CheckNoReservationWedge PW_CHECKs at quiescence.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/units.h"
#include "hw/cluster.h"
#include "memory/spiller.h"
#include "pathways/ids.h"
#include "sim/future.h"
#include "sim/inline_function.h"

namespace pw::pathways {

// Residency of one shard's granted memory (ObjectStore::ShardInDram and
// shard_residency report it).
enum class ShardResidency { kHbm, kSpillingOut, kHostDram };

struct ShardBuffer {
  ShardBufferId id;
  hw::DeviceId device;
  Bytes bytes = 0;
};

// Client-visible handle to a logical buffer distributed over devices.
struct ShardedBuffer {
  LogicalBufferId id;
  std::vector<ShardBuffer> shards;
  // Completes when every shard's memory is reserved AND its data is
  // resident (for program outputs: when the producing kernels finished).
  sim::SimFuture<sim::Unit> ready;

  int num_shards() const { return static_cast<int>(shards.size()); }
  Bytes total_bytes() const {
    Bytes total = 0;
    for (const auto& s : shards) total += s.bytes;
    return total;
  }
};

class ObjectStore : public memory::SpillBackend {
 public:
  explicit ObjectStore(hw::Cluster* cluster) : cluster_(cluster) {}

  // --- Reservation ordering (docs/MEMORY.md) ---
  // Draws the next global reservation ticket. Draws are synchronous, so
  // everything ticketed within one simulator event is totally ordered; the
  // gang scheduler draws at dispatch, which makes ticket order coincide
  // with per-device gang arrival order.
  hw::MemoryTicket NextTicket() { return next_ticket_++; }
  // What a ticket reserves for, as its diagnostics label names it.
  enum class TicketKind : std::uint8_t {
    kExec,          // a gang's dispatch ticket: "exec <id>"
    kStagedBuffer,  // an eager buffer's creation: "staged buffer <id>"
    kGrow,          // one shard's in-place grow: "grow buffer <id>/<shard>"
  };
  // Records the entity behind a ticket for deadlock diagnostics. `entity`
  // keys the wait-for graph; executions use their id value. Only the record
  // is stored; the label ("exec 3") is rendered when a report asks for it.
  void RegisterTicket(hw::MemoryTicket ticket, std::int64_t entity,
                      TicketKind kind, std::int64_t id, int shard = 0);
  // The label of a registered ticket ("staged buffer 7", "grow buffer 7/1",
  // "exec 3"); "ticket <n>" once retired, "unticketed" for kUnticketed.
  std::string TicketName(hw::MemoryTicket ticket) const;
  // Drops a retired ticket from the diagnostics registry.
  void FinishTicket(hw::MemoryTicket ticket);
  // Stamps a deferred buffer with its gang's dispatch ticket; subsequent
  // ReserveShard calls enter the device queues under it.
  void SetBufferTicket(LogicalBufferId id, hw::MemoryTicket ticket);

  // Allocates a logical buffer with one shard of `bytes_per_shard` on each
  // listed device, all reservations issued atomically under one fresh
  // ticket. The buffer's `ready` future completes when all shards' HBM
  // reservations succeed (data-readiness for program outputs is layered on
  // top by the execution engine). Initial refcount is 1. If
  // `per_shard_reservations` is non-null it receives one future per shard —
  // executors gate each shard's kernel enqueue on its own reservation so one
  // full device back-pressures only its own shard's prep.
  ShardedBuffer CreateBuffer(
      ClientId owner, ExecutionId producer,
      const std::vector<hw::DeviceId>& devices, Bytes bytes_per_shard,
      std::vector<sim::SimFuture<sim::Unit>>* per_shard_reservations = nullptr);

  // Creates the logical buffer *without* reserving HBM: shards are reserved
  // individually via ReserveShard during executor prep. This is how program
  // outputs avoid over-committing memory — a queued program's buffers claim
  // no HBM until its kernels are actually being prepared (paper §4.6
  // back-pressure composes with deep program queues only if reservations
  // are lazy).
  ShardedBuffer CreateBufferDeferred(ClientId owner, ExecutionId producer,
                                     const std::vector<hw::DeviceId>& devices,
                                     Bytes bytes_per_shard);

  // Reserves HBM for one shard of a deferred buffer (under the buffer's
  // gang ticket, see SetBufferTicket). If the buffer was released (or its
  // owner failed) before the reservation is granted, the grant is returned
  // to the allocator immediately.
  sim::SimFuture<sim::Unit> ReserveShard(LogicalBufferId id, int shard);

  // Appends `delta` bytes to one granted shard — the KV-cache decode-step
  // append (docs/SERVING.md). The shard is internally pinned for the grow's
  // duration, so it cannot become a *new* spill victim while the delta is
  // queued (and an in-flight page-out abandons itself rather than complete
  // against a shard that grew under it). By residency:
  //   * kHbm / kSpillingOut — the delta enters the device's reservation
  //     queue under a fresh ticket drawn now, so appends issued within one
  //     simulator event are served in a deterministic global order;
  //   * kHostDram — the append lands in host DRAM synchronously when it
  //     fits (a paged-out sequence keeps growing without touching HBM);
  //     with DRAM exhausted the shard instead re-enters HBM at its grown
  //     size (old + delta queued as one reservation) and the DRAM copy is
  //     freed at grant — a forced restore.
  // The returned future completes when the delta is granted; callers gate
  // the next decode step on it. Shard bytes (and the logical-bytes stats)
  // grow at grant time, never before.
  sim::SimFuture<sim::Unit> GrowShard(LogicalBufferId id, int shard,
                                      Bytes delta);

  // Raw per-device scratch allocation (executor-internal); same back-pressure
  // and the same ticket ordering as buffer reservations.
  sim::SimFuture<sim::Unit> AllocateScratch(
      hw::DeviceId device, Bytes bytes,
      hw::MemoryTicket ticket = hw::kUnticketed);
  void FreeScratch(hw::DeviceId device, Bytes bytes);

  // --- Residency / spilling ---
  // Marks a shard's *data* as resident (producer kernel finished, or staged
  // bytes landed). Only content-ready shards are spill candidates.
  void MarkShardContentReady(LogicalBufferId id, int shard);
  // Transient read pins: readers pin a source shard for the duration of
  // each read (see ReadShard); pinned shards are never spill victims.
  // Both are no-ops on released buffers.
  void PinShard(LogicalBufferId id, int shard);
  void UnpinShard(LogicalBufferId id, int shard);
  // True if the shard's bytes currently live in host DRAM (readers must
  // source from the host side). False for resident shards, shards still on
  // their way out (the HBM copy is intact until the migration lands), and
  // released buffers.
  bool ShardInDram(LogicalBufferId id, int shard) const;
  // Moves `bytes` of one shard, homed on device `src`, to device `dst` — the
  // one data path every shard read takes. The route follows residency:
  //   * spilled: DRAM → dst PCIe on the same host (a read back to `src`
  //     itself also restores residency when idle HBM is free, amortizing
  //     repeated use), else DRAM → DCN → dst PCIe; counted as a DRAM read;
  //   * resident: in place when src == dst, ICI within an island, else
  //     src PCIe → DCN → dst PCIe.
  // `on_read` fires once the bytes have left the source (after the first
  // hop across islands), `on_landed` once they reached `dst`. Pins stay
  // with the caller, which unpins from `on_read`.
  void ReadShard(LogicalBufferId id, int shard, hw::DeviceId src,
                 hw::DeviceId dst, Bytes bytes,
                 sim::InlineFunction<void()> on_read,
                 sim::InlineFunction<void()> on_landed);
  ShardResidency shard_residency(LogicalBufferId id, int shard) const;

  // --- memory::SpillBackend (driven by the runtime's Spiller) ---
  bool HasStalledReservation(int device) const override;
  // Victim selection is a linear LRU scan over live shards — fine at
  // simulator scale (stall kicks are PCIe-paced, shard counts are small);
  // a per-device candidate index is the known upgrade path if stores grow.
  bool StartSpill(int device) override;

  void set_spiller(memory::Spiller* spiller) { spiller_ = spiller; }

  // Human-readable description of `device`'s stalled reservations for the
  // simulator's blocked-entity probes; "" when nothing is stalled.
  std::string BlockedReservationReason(hw::DeviceId device) const;
  // Wait-for-graph rendering of one reservation-deadlock cycle among the
  // stalled front waiters and the memory holders blocking them, with the
  // executions named; "" when the graph is acyclic.
  std::string DescribeReservationCycle() const;
  // Quiescence gate for tests/benches: after Run() drains, any surviving
  // stalled reservation is a wedge — PW_CHECKs with the cycle (or the
  // per-device blocked reasons) named. A no-op while waiters can still be
  // served, so call it only at quiescence.
  void CheckNoReservationWedge() const;

  // Logical refcounting. Release drops one reference; at zero, every
  // shard's memory is freed.
  void AddRef(LogicalBufferId id);
  void Release(LogicalBufferId id);

  // Garbage collection by ownership label (client failed / disconnected).
  // Returns the number of logical buffers collected.
  int ReleaseAllForOwner(ClientId owner);

  // Garbage collection by producing execution (execution aborted after a
  // device failure): frees every surviving buffer the execution produced,
  // regardless of refcount — an aborted execution's outputs were never
  // handed to anyone. Returns the number of logical buffers collected.
  int ReleaseAllForProducer(ExecutionId producer);

  // --- Introspection ---
  bool Contains(LogicalBufferId id) const { return entries_.contains(id); }
  int refcount(LogicalBufferId id) const;
  std::int64_t live_buffers() const { return static_cast<std::int64_t>(entries_.size()); }
  Bytes hbm_used(hw::DeviceId device) const {
    return cluster_->device(device).hbm().used();
  }
  // Logical bytes (HBM-resident + spilled) of granted buffer shards homed
  // on `device`, and the peak over the run — the oversubscription factor
  // the oversub scenario gates on is logical_peak / hbm capacity.
  Bytes logical_live_bytes(hw::DeviceId device) const;
  Bytes logical_peak_bytes(hw::DeviceId device) const;
  std::int64_t spills_completed() const { return spills_completed_; }
  std::int64_t fills_completed() const { return fills_completed_; }
  Bytes spilled_bytes_total() const { return spilled_bytes_total_; }
  std::int64_t grows_completed() const { return grows_completed_; }
  Bytes grown_bytes_total() const { return grown_bytes_total_; }
  // Current bytes of one shard (grows land here at grant time).
  Bytes shard_bytes(LogicalBufferId id, int shard) const;
  // Reads ReadShard served from host DRAM.
  std::int64_t dram_reads() const { return dram_reads_; }
  Bytes dram_read_bytes() const { return dram_read_bytes_; }
  // One line per live shard (owner, device, bytes, residency, pins,
  // content-ready, last use) — the operator-facing memory map.
  std::string DumpShardStates() const;

 private:
  struct ShardState {
    bool requested = false;      // a reservation has been issued
    bool granted = false;        // HBM (or DRAM, when spilled) is held
    bool content_ready = false;  // the shard's data exists (spillable)
    ShardResidency residency = ShardResidency::kHbm;
    int pins = 0;                // active readers; pinned shards never spill
    std::int64_t last_use_ns = 0;
  };
  struct Entry {
    ClientId owner;
    ExecutionId producer;
    hw::MemoryTicket ticket = hw::kUnticketed;
    std::vector<ShardBuffer> shards;
    std::vector<ShardState> states;
    int refcount = 1;
  };

  using EntryMap = std::map<LogicalBufferId, Entry>;
  // The one release path: erases the entry, then frees what it held, so an
  // HBM free that synchronously admits a queued reservation on the same
  // buffer (a GrowShard, a ReserveShard) finds the buffer gone and hands
  // the grant back instead of leaking it. Returns the next entry.
  EntryMap::iterator Drop(EntryMap::iterator it);
  // Opportunistic page-in: if the shard sits in DRAM and its device has
  // free, uncontended HBM, flip it back to resident (the caller is already
  // moving the bytes to the device, so this is pure accounting). Never
  // blocks and never jumps the reservation queue.
  void TryRestoreShard(LogicalBufferId id, int shard);
  void Touch(ShardState& state);
  // Returns `bytes` of granted HBM to `device` in a zero-delay event (a
  // grant whose buffer died while it queued, or a redundant part of one).
  void FreeLater(hw::DeviceId device, Bytes bytes);
  // Charges `bytes` to `device`'s logical live/peak accounting.
  void AddLogical(hw::DeviceId device, Bytes bytes);
  // Records a shard's HBM grant: granted, resident, touched and charged.
  void MarkGranted(ShardState& state, hw::DeviceId device, Bytes bytes);
  // Retries a stalled device's spiller after an event that can unblock a
  // previously failed victim search (pin dropped, content became ready,
  // DRAM freed) — those produce no HBM activity, so the allocator's own
  // stall observer would never re-fire.
  void MaybeKickSpiller(hw::DeviceId device);

  hw::Cluster* cluster_;
  memory::Spiller* spiller_ = nullptr;
  EntryMap entries_;
  IdGenerator<BufferTag> logical_ids_;
  IdGenerator<ShardBufferTag> shard_ids_;

  hw::MemoryTicket next_ticket_ = 1;
  struct TicketInfo {
    std::int64_t entity;
    TicketKind kind;
    int shard;
    std::int64_t id;
  };
  static std::string LabelOf(const TicketInfo& info);
  std::map<hw::MemoryTicket, TicketInfo> tickets_;

  std::map<int, Bytes> logical_live_;
  std::map<int, Bytes> logical_peak_;
  std::int64_t spills_completed_ = 0;
  std::int64_t fills_completed_ = 0;
  Bytes spilled_bytes_total_ = 0;
  std::int64_t grows_completed_ = 0;
  Bytes grown_bytes_total_ = 0;
  std::int64_t dram_reads_ = 0;
  Bytes dram_read_bytes_ = 0;
};

}  // namespace pw::pathways
