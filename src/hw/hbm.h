// HBM capacity accounting with back-pressure.
//
// The paper (§4.6): "We can use simple back-pressure to stall a computation
// if it cannot allocate memory because other computations' buffers are
// temporarily occupying HBM." AllocateAsync returns a future that stays
// pending until capacity frees up.
//
// Waiter service order is the deadlock story (docs/MEMORY.md). Requests
// carry a MemoryTicket — the scheduler-consistent global reservation order,
// drawn per gang at dispatch time and per staged buffer at creation — and
// the queue serves strictly smallest ticket first (FIFO among equal
// tickets, so unticketed callers keep arrival order). For gangs of one
// island this matches arrival order by construction (the island scheduler
// is the single emission point); what it fixes is every *other* source of
// reservations — client staging, retries — racing the gang pipeline into
// inconsistent per-device orders, the inversion that lets two entities
// each hold one device while queueing behind the other (the paper's §4.6
// "scheduler ensures allocation order" argument made real).
//
// Zero-byte requests are granted immediately, never queued: an empty shard
// consumes no capacity and can relieve no pressure by waiting — parking it
// behind waiters only creates drain-path deadlocks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/future.h"

namespace pw::hw {

// Global reservation order; lower = older = served first. Requests without
// a ticket sort after all ticketed ones, in arrival order.
using MemoryTicket = std::uint64_t;
inline constexpr MemoryTicket kUnticketed =
    std::numeric_limits<MemoryTicket>::max();

class HbmAllocator {
 public:
  HbmAllocator(sim::Simulator* sim, Bytes capacity)
      : sim_(sim), capacity_(capacity) {
    PW_CHECK_GT(capacity, 0);
  }

  // Immediate allocation; fails (without queuing) if space is unavailable.
  Status Allocate(Bytes bytes);

  // Queued allocation: the returned future completes when the reservation
  // succeeds. Requests larger than total capacity fail the process (caller
  // bug). `on_admit`, if given, runs synchronously at the instant capacity
  // is debited (before the future's callbacks fire) — the object store uses
  // it to retire declared demand without an extra event.
  sim::SimFuture<sim::Unit> AllocateAsync(
      Bytes bytes, MemoryTicket ticket = kUnticketed,
      sim::InlineFunction<void()> on_admit = nullptr);

  void Free(Bytes bytes);

  // Stall observer: invoked (synchronously) whenever a request queues, and
  // whenever the queue remains non-empty after a Free could not drain it.
  // The spill subsystem hangs off this.
  void set_stall_observer(std::function<void()> fn) {
    stall_observer_ = std::move(fn);
  }

  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_; }
  Bytes available() const { return capacity_ - used_; }
  Bytes peak_used() const { return peak_; }
  std::size_t waiters() const { return waiters_.size(); }

  // True if a queued reservation exists that cannot be granted right now.
  bool HasStalledWaiter() const { return !waiters_.empty(); }
  // Ticket/bytes of the waiter that must be served next; only valid when
  // HasStalledWaiter().
  MemoryTicket front_waiter_ticket() const;
  Bytes front_waiter_bytes() const;

 private:
  struct Waiter {
    Bytes bytes;
    MemoryTicket ticket;
    std::uint64_t seq;  // arrival order, the FIFO tie-break
    sim::SimPromise<sim::Unit> promise;
    sim::InlineFunction<void()> on_admit;
  };

  void Admit(Bytes bytes);
  void ServeWaiters();
  void NotifyStall();

  sim::Simulator* sim_;
  Bytes capacity_;
  Bytes used_ = 0;
  Bytes peak_ = 0;
  // Sorted by (ticket, seq).
  std::deque<Waiter> waiters_;
  std::uint64_t next_seq_ = 0;
  std::function<void()> stall_observer_;
};

}  // namespace pw::hw
