#include "sim/simulator.h"

#include <algorithm>

namespace pw::sim {

void Simulator::WheelPush(std::int64_t at_ns, EventNode* node) {
  const std::size_t idx = static_cast<std::size_t>(at_ns) & kWheelMask;
  wheel_[idx].items.push_back(node);
  wheel_bits_[idx >> 6] |= 1ULL << (idx & 63);
  ++wheel_count_;
}

std::int64_t Simulator::WheelNextTime(std::size_t* idx) const {
  // Cyclic scan of the occupancy bitmap starting at the bucket for `now`.
  // wheel_count_ > 0 guarantees a set bit; the k == kWheelWords lap
  // re-reads the first word unmasked, covering bits behind the start.
  const std::size_t start = static_cast<std::size_t>(now_.nanos()) & kWheelMask;
  const std::size_t w0 = start >> 6;
  std::size_t found;
  const std::uint64_t first = wheel_bits_[w0] & (~0ULL << (start & 63));
  if (first != 0) {
    found = (w0 << 6) | static_cast<std::size_t>(__builtin_ctzll(first));
  } else {
    for (std::size_t k = 1;; ++k) {
      const std::size_t w = (w0 + k) & (kWheelWords - 1);
      if (wheel_bits_[w] != 0) {
        found = (w << 6) | static_cast<std::size_t>(__builtin_ctzll(wheel_bits_[w]));
        break;
      }
    }
  }
  *idx = found;
  // Cyclic distance from the start bucket == delay until the event; every
  // pending wheel entry is within one span of now (see header).
  const std::int64_t d =
      static_cast<std::int64_t>((found - start) & kWheelMask);
  return now_.nanos() + d;
}

bool Simulator::RunWheelBucket(std::size_t idx, std::int64_t at_ns) {
  Bucket& b = wheel_[idx];
  EventNode* node = b.items[b.head];
  ++b.head;
  if (b.head == b.items.size()) {
    b.head = 0;
    b.items.clear();  // keeps capacity for the bucket's next epoch
    wheel_bits_[idx >> 6] &= ~(1ULL << (idx & 63));
  }
  --wheel_count_;
  if (node->state == NodeState::kCancelled) {
    RecycleNode(node);  // Cancel() already destroyed the callable
    return false;
  }
  now_ = TimePoint::FromNanos(at_ns);
  RunEvent(node);
  return true;
}

internal::EventNode* Simulator::AllocNode() {
  EventNode* node = free_head_;
  if (node != nullptr) {
    free_head_ = node->next_free;
    node->next_free = nullptr;
    return node;
  }
  if (chunk_used_ == kChunkSize) {
    chunks_.push_back(std::make_unique<Chunk>());
    chunk_used_ = 0;
  }
  return &chunks_.back()->nodes[chunk_used_++];
}

void Simulator::RecycleNode(EventNode* node) {
  node->state = NodeState::kFree;
  ++node->generation;  // stale-ify outstanding handles
  node->next_free = free_head_;
  free_head_ = node;
}

void Simulator::HeapPush(HeapEntry e) {
  if (heap_hole_) {
    // Steady-state fusion: the event being executed left a hole at the
    // root; this push fills it directly, replacing a pop-then-push
    // (sift-down of the old bottom entry + sift-up of the new one, plus
    // the vector size churn) with a single sift-down of the new entry.
    heap_hole_ = false;
    SiftDownFromRoot(e);
    return;
  }
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!Before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::SiftDownFromRoot(HeapEntry e) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t end = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::CloseHeapHole() {
  if (!heap_hole_) return;
  heap_hole_ = false;
  // Nothing was pushed while the root was consumed: excise it the classic
  // way, sifting the bottom entry down from the root.
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDownFromRoot(last);
}

void Simulator::FifoPush(FifoEntry e) {
  if (fifo_count_ == fifo_.size()) FifoGrow();
  fifo_[(fifo_head_ + fifo_count_) & (fifo_.size() - 1)] = e;
  ++fifo_count_;
}

void Simulator::FifoGrow() {
  const std::size_t old_cap = fifo_.size();
  const std::size_t new_cap = old_cap == 0 ? 64 : old_cap * 2;
  std::vector<FifoEntry> grown(new_cap);
  for (std::size_t i = 0; i < fifo_count_; ++i) {
    grown[i] = fifo_[(fifo_head_ + i) & (old_cap - 1)];
  }
  fifo_ = std::move(grown);
  fifo_head_ = 0;
}

bool Simulator::Cancel(EventHandle h) {
  if (!h.valid()) return false;
  EventNode* node = h.node_;
  if (node->generation != h.generation_ || node->state != NodeState::kArmed) {
    return false;
  }
  node->state = NodeState::kCancelled;
  --live_events_;
  // Destroy the callable eagerly: a cancelled watchdog's captures (often
  // shared_ptrs) must not stay alive until simulated time reaches the
  // original timestamp and the tombstone pops. The queue entry itself is
  // recycled lazily when popped. A running event is kRunning, not kArmed,
  // so it never reaches here while its own callable executes.
  node->cb = nullptr;
  return true;
}

bool Simulator::IsPending(EventHandle h) const {
  return h.valid() && h.node_->generation == h.generation_ &&
         h.node_->state == NodeState::kArmed;
}

void Simulator::ReserveEvents(std::size_t n) {
  heap_.reserve(n);
  while (fifo_.size() < n) FifoGrow();
  // Pre-build pool chunks and put their nodes straight onto the free list.
  // The partially used tail of the current chunk (at most kChunkSize-1
  // nodes) is abandoned — AllocNode's fresh-allocation path only looks at
  // the last chunk, and correctness needs only that every free node is
  // reachable exactly once.
  chunks_.reserve(n / kChunkSize + 1);
  while (chunks_.size() * kChunkSize < n) {
    chunks_.push_back(std::make_unique<Chunk>());
    chunk_used_ = kChunkSize;
    for (EventNode& node : chunks_.back()->nodes) {
      node.next_free = free_head_;
      free_head_ = &node;
    }
  }
}

void Simulator::RunEvent(EventNode* node) {
  node->state = NodeState::kRunning;
  --live_events_;
  ++executed_;
  // A single indirect call runs and destroys the callable; it may schedule
  // more events (growing the pool — nodes never move, so `node` stays
  // valid), but cannot recycle this node, which is in kRunning state.
  node->cb.InvokeAndReset();
  RecycleNode(node);
}

bool Simulator::RunHeapTop() {
  // Consume the root but leave its slot as a hole: if the event's callback
  // pushes a new heap entry — the dominant steady-state pattern — HeapPush
  // fills the hole with one sift-down and the excision below becomes a
  // no-op. While the hole is open the root entry is stale; it is never read
  // (Cancel/IsPending key off node state, and StepOne only inspects the
  // heap between events).
  const HeapEntry top = heap_.front();
  heap_hole_ = true;
  EventNode* node = top.node;
  const bool live = node->state != NodeState::kCancelled;
  if (live) {
    now_ = TimePoint::FromNanos(top.at);
    RunEvent(node);
  } else {
    RecycleNode(node);  // Cancel() already destroyed the callable
  }
  CloseHeapHole();
  return live;
}

bool Simulator::StepOne() {
  // Merge the now-ring, the wheel and the heap by (time, seq). Fifo
  // entries are always at now_ <= any wheel or heap entry, so those win
  // only when their earliest entry is also at now_ with an older seq.
  const std::int64_t now_ns = now_.nanos();
  if (fifo_count_ != 0) {
    const FifoEntry front = fifo_[fifo_head_ & (fifo_.size() - 1)];
    const std::size_t b = static_cast<std::size_t>(now_ns) & kWheelMask;
    if ((wheel_bits_[b >> 6] >> (b & 63)) & 1) {
      // A non-empty bucket for now's slot holds events at exactly now
      // (single-timestamp-per-bucket invariant), necessarily scheduled
      // before the clock got here, i.e. with older seqs.
      const Bucket& bk = wheel_[b];
      if (bk.items[bk.head]->seq < front->seq) {
        return RunWheelBucket(b, now_ns);
      }
    }
    if (!heap_.empty() && heap_.front().at == now_ns &&
        heap_.front().node->seq < front->seq) {
      return RunHeapTop();
    }
    (void)FifoPop();
    EventNode* node = front;
    if (node->state == NodeState::kCancelled) {
      RecycleNode(node);  // Cancel() already destroyed the callable
      return false;
    }
    RunEvent(node);
    return true;
  }
  if (wheel_count_ != 0) {
    std::size_t idx;
    const std::int64_t w_at = WheelNextTime(&idx);
    if (!heap_.empty()) {
      const HeapEntry& top = heap_.front();
      if (top.at < w_at ||
          (top.at == w_at &&
           top.node->seq < wheel_[idx].items[wheel_[idx].head]->seq)) {
        return RunHeapTop();
      }
    }
    return RunWheelBucket(idx, w_at);
  }
  return RunHeapTop();
}

std::int64_t Simulator::Run() {
  std::int64_t n = 0;
  while (!QueuesEmpty()) {
    if (StepOne()) ++n;
  }
  return n;
}

std::int64_t Simulator::RunUntil(TimePoint t) {
  PW_CHECK_GE(t.nanos(), now_.nanos());
  std::int64_t n = 0;
  while (!QueuesEmpty() && NextEventTime() <= t.nanos()) {
    if (StepOne()) ++n;
  }
  now_ = t;
  return n;
}

bool Simulator::RunUntilPredicate(const std::function<bool()>& pred) {
  if (pred()) return true;
  while (!QueuesEmpty()) {
    if (StepOne() && pred()) return true;
  }
  return false;
}

std::vector<std::string> Simulator::BlockedEntities() const {
  std::vector<std::string> out;
  for (const auto& probe : probes_) {
    std::string desc = probe();
    if (!desc.empty()) out.push_back(std::move(desc));
  }
  return out;
}

}  // namespace pw::sim
