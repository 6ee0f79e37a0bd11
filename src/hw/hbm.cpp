#include "hw/hbm.h"

#include <algorithm>

namespace pw::hw {

Status HbmAllocator::Allocate(Bytes bytes) {
  PW_CHECK_GE(bytes, 0);
  if (bytes == 0) return OkStatus();
  if (!waiters_.empty() || bytes > available()) {
    return ResourceExhaustedError("HBM full");
  }
  Admit(bytes);
  return OkStatus();
}

sim::SimFuture<sim::Unit> HbmAllocator::AllocateAsync(
    Bytes bytes, MemoryTicket ticket, sim::InlineFunction<void()> on_admit) {
  PW_CHECK_GE(bytes, 0);
  PW_CHECK_LE(bytes, capacity_) << "allocation can never fit in HBM";
  sim::SimPromise<sim::Unit> p(sim_);
  if (bytes == 0) {
    // An empty shard needs no capacity and can relieve none by waiting;
    // queueing it behind waiters only wedges drain paths.
    if (on_admit) on_admit();
    p.Set(sim::Unit{});
    return p.future();
  }
  if (waiters_.empty() && bytes <= available()) {
    Admit(bytes);
    if (on_admit) on_admit();
    p.Set(sim::Unit{});
    return p.future();
  }
  Waiter w{bytes, ticket, next_seq_++, p, std::move(on_admit)};
  const auto pos = std::upper_bound(
      waiters_.begin(), waiters_.end(), w,
      [](const Waiter& a, const Waiter& b) {
        if (a.ticket != b.ticket) return a.ticket < b.ticket;
        return a.seq < b.seq;
      });
  waiters_.insert(pos, std::move(w));
  // The new request may itself be the globally oldest outstanding one (it
  // sorts ahead of every queued waiter) — serve the queue front in that
  // case rather than parking the old behind the young.
  ServeWaiters();
  return p.future();
}

void HbmAllocator::Free(Bytes bytes) {
  PW_CHECK_GE(bytes, 0);
  PW_CHECK_LE(bytes, used_) << "freeing more than allocated";
  used_ -= bytes;
  ServeWaiters();
}

void HbmAllocator::Admit(Bytes bytes) {
  used_ += bytes;
  peak_ = std::max(peak_, used_);
}

void HbmAllocator::ServeWaiters() {
  // Strictly in queue order: granting a younger waiter past a stalled older
  // one is exactly the inversion that lets reservation cycles form.
  while (!waiters_.empty() && waiters_.front().bytes <= available()) {
    Waiter w = std::move(waiters_.front());
    waiters_.pop_front();
    Admit(w.bytes);
    if (w.on_admit) w.on_admit();
    w.promise.Set(sim::Unit{});
  }
  if (!waiters_.empty()) NotifyStall();
}

void HbmAllocator::NotifyStall() {
  if (stall_observer_) stall_observer_();
}

MemoryTicket HbmAllocator::front_waiter_ticket() const {
  PW_CHECK(!waiters_.empty());
  return waiters_.front().ticket;
}

Bytes HbmAllocator::front_waiter_bytes() const {
  PW_CHECK(!waiters_.empty());
  return waiters_.front().bytes;
}

}  // namespace pw::hw
