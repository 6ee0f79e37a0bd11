// Deterministic single-threaded discrete-event simulator.
//
// All Pathways components (clients, resource manager, schedulers, executors,
// devices, networks) interact only through events scheduled here, so a run
// is bit-reproducible: events at equal timestamps execute in scheduling
// order (FIFO tie-break via sequence numbers).
//
// Engine internals (the repo's hottest path):
//   * Every event is a one-shot EventCallback (an InlineFunction) living in
//     a pool node allocated from stable chunks and recycled through a free
//     list; a callable of up to EventCallback::kInlineBytes is constructed
//     in place in its node and run-and-destroyed by one indirect call, so
//     the steady-state schedule/fire cycle performs no heap allocation.
//   * The priority queue is a 4-ary heap of 16-byte plain-data entries
//     {time, node*}; sifting copies trivial entries only, never the
//     callbacks, and nodes never move once constructed. Popping leaves a
//     hole at the root that a push from inside the event's own callback —
//     the steady-state churn pattern — fills with a single sift-down,
//     fusing the pop/push pair into one heap operation.
//   * Zero-delay events — the dominant pattern: every future Then(),
//     WhenAll() completion and device wakeup fires "now" — skip the heap
//     entirely and go through an O(1) FIFO ring holding events whose
//     timestamp equals the current clock. The ring and the heap merge by
//     (time, seq), so the global FIFO-at-equal-timestamp order is exactly
//     that of a single queue.
//   * Near-horizon events (0 < at - now < kWheelSpanNs) bypass the heap
//     through a timing wheel of 1ns buckets — O(1) push/pop instead of an
//     O(log n) sift. In the simulated system few events are that close:
//     counting queue pushes on the four pwbench workloads puts 2-10% in
//     the wheel, 19-30% in the heap and the rest (66-76%) in the now-ring.
//     What the wheel serves is the `simcore` scenario's steady-state
//     churn workloads: with the wheel removed, `churn` read 1.07-1.22x
//     against its >= 1 gate (2.9-3.1x with it), and `empty`/`capture40`
//     fell from ~6-7x/~11-13x to ~1.7x/~2x (4-core host, Release). All
//     pending wheel events live inside one span-wide window, so a bucket
//     holds exactly one timestamp and its append order IS seq order; the
//     wheel, ring and heap merge by (time, seq) like a single queue.
//
// The simulator deliberately knows nothing about the entities it drives.
// Higher layers register "blocked entity" probes so that quiescence with
// blocked entities can be reported as a deadlock (the situation the paper's
// gang scheduler exists to prevent).
//
// Typical use:
//
//   sim::Simulator sim;
//   sim.Schedule(Duration::Micros(10), [&] { /* fires at t=10us */ });
//   sim.Run();                       // drain the event queue to quiescence
//   TimePoint end = sim.now();       // simulated time, not wall clock
//   if (sim.Deadlocked()) { ... }    // quiescent but entities still blocked
//
// Cancellable events:
//
//   sim::EventHandle h = sim.Schedule(Duration::Millis(5), [&] { ... });
//   sim.Cancel(h);                   // true: the event will not fire
//
// Handles are generation-checked: once an event fires or is cancelled, its
// handle goes stale and Cancel()/IsPending() return false even after the
// pool recycles the node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "sim/inline_function.h"

namespace pw::sim {

// The callable every event holds. Its 48-byte inline slot holds a whole
// InlineFunction continuation — what a future's Set() hands to each
// zero-delay event — so firing a continuation allocates nothing.
using EventCallback = InlineFunction<void(), 48>;

namespace internal {

enum class NodeState : std::uint8_t {
  kFree,       // on the free list
  kArmed,      // queued, will fire
  kCancelled,  // queued, will be skipped and recycled
  kRunning,    // currently executing (no longer cancellable)
};

// Pool node: stable address for the callback; queues refer to nodes by
// pointer only.
struct EventNode {
  EventCallback cb;
  // FIFO tie-break among equal timestamps. Kept in the node (not the queue
  // entries) so heap entries stay 16 bytes; a node has at most one queue
  // entry at a time, so the value is unambiguous.
  std::uint64_t seq = 0;
  EventNode* next_free = nullptr;
  std::uint32_t generation = 0;
  NodeState state = NodeState::kFree;
};

}  // namespace internal

// Identifies a scheduled event. Handles are cheap value types; a
// default-constructed handle is invalid. A handle for a fired/cancelled
// event is stale: Cancel() and IsPending() return false for it.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return node_ != nullptr; }

 private:
  friend class Simulator;
  EventHandle(internal::EventNode* node, std::uint32_t gen)
      : node_(node), generation_(gen) {}

  internal::EventNode* node_ = nullptr;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  // Destroying the pool destroys every node's callable, queued or not, so
  // the captures of events still pending are released exactly once.
  ~Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  // Schedules fn to run at now() + delay. delay must be >= 0.
  template <typename Fn>
  EventHandle Schedule(Duration delay, Fn&& fn) {
    return ScheduleAt(now_ + delay, std::forward<Fn>(fn));
  }

  // Schedules fn at an absolute time >= now().
  template <typename Fn>
  EventHandle ScheduleAt(TimePoint at, Fn&& fn) {
    PW_CHECK_GE(at.nanos(), now_.nanos()) << "cannot schedule in the past";
    return ArmEvent(at.nanos(), std::forward<Fn>(fn));
  }

  // Cancels a pending event and destroys its callable. Returns true if the
  // event was pending and is now guaranteed not to fire; false if the
  // handle is invalid, stale, or the event already fired.
  bool Cancel(EventHandle h);

  // True while the event identified by `h` is still scheduled to fire.
  bool IsPending(EventHandle h) const;

  // Runs events until the queue is empty. Returns the number of events run.
  std::int64_t Run();

  // Runs events with timestamp <= t; leaves later events queued and advances
  // the clock to exactly t. Returns the number of events run.
  std::int64_t RunUntil(TimePoint t);

  // Convenience: RunUntil(now() + d).
  std::int64_t RunFor(Duration d) { return RunUntil(now_ + d); }

  // Runs until `pred()` becomes true (checked after every event) or the
  // queue empties. Returns true if the predicate was satisfied.
  bool RunUntilPredicate(const std::function<bool()>& pred);

  bool empty() const { return live_events_ == 0; }
  std::size_t pending_events() const { return live_events_; }
  std::int64_t events_executed() const { return executed_; }

  // Pre-sizes internal storage for at least `n` simultaneously pending
  // events (benchmarks use this to take pool growth off the timed path).
  void ReserveEvents(std::size_t n);

  // --- Blocked-entity probes (deadlock detection support) ---
  //
  // A probe returns a human-readable description of an entity that is
  // currently blocked waiting for an external stimulus (e.g. a device parked
  // at a collective rendezvous), or an empty string if not blocked. After
  // Run() returns with blocked entities, the system has deadlocked.
  using BlockedProbe = std::function<std::string()>;
  void RegisterBlockedProbe(BlockedProbe probe) {
    probes_.push_back(std::move(probe));
  }

  // Descriptions of all currently blocked entities (empty => none).
  std::vector<std::string> BlockedEntities() const;

  // True if the event queue is empty but some entity is still blocked.
  bool Deadlocked() const { return empty() && !BlockedEntities().empty(); }

 private:
  using EventNode = internal::EventNode;
  using NodeState = internal::NodeState;

  // 16-byte trivially copyable heap element; (at, node->seq) is the
  // priority. Timestamps are compared first and are almost never equal, so
  // the node deref for the FIFO tie-break stays off the sift fast path.
  struct HeapEntry {
    std::int64_t at;
    EventNode* node;
  };
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.at < b.at || (a.at == b.at && a.node->seq < b.node->seq);
  }

  // Ring element for events at exactly now(): `at` is implicit, seq lives
  // in the node.
  using FifoEntry = EventNode*;

  static constexpr std::uint32_t kChunkSize = 256;  // nodes per chunk
  struct Chunk {
    EventNode nodes[kChunkSize];
  };

  template <typename Fn>
  EventHandle ArmEvent(std::int64_t at_ns, Fn&& fn) {
    EventNode* node = AllocNode();
    node->cb.Emplace(std::forward<Fn>(fn));
    node->state = NodeState::kArmed;
    node->seq = next_seq_++;
    const std::int64_t delta = at_ns - now_.nanos();
    if (delta == 0) {
      FifoPush(node);  // zero-delay fast path: no heap sift
    } else if (delta < kWheelSpanNs) {
      WheelPush(at_ns, node);  // near-horizon fast path: O(1) bucket append
    } else {
      HeapPush(HeapEntry{at_ns, node});  // far events: general-purpose heap
    }
    ++live_events_;
    return EventHandle(node, node->generation);
  }

  EventNode* AllocNode();
  void RecycleNode(EventNode* node);

  // Heap pop/push are fused for the steady-state schedule-from-callback
  // pattern: RunHeapTop consumes the root and leaves a hole (heap_hole_);
  // the next HeapPush fills it with a single sift-down, and CloseHeapHole
  // excises it if nothing was pushed by the time the event finished.
  void HeapPush(HeapEntry e);
  void SiftDownFromRoot(HeapEntry e);
  void CloseHeapHole();

  // --- Timing wheel (near-horizon events) ---
  //
  // One bucket per nanosecond over a kWheelSpanNs window. Every pending
  // wheel event satisfies now <= at < sched_now + span <= now + span, so
  // two events in the same bucket would have to differ by a multiple of
  // the span yet both lie inside one span-wide window: impossible. Hence a
  // non-empty bucket holds exactly one timestamp, and because seq numbers
  // are handed out in execution order, bucket append order is seq order —
  // draining front-to-back preserves the global FIFO tie-break.
  static constexpr std::int64_t kWheelSpanNs = 1024;
  static constexpr std::size_t kWheelMask = kWheelSpanNs - 1;
  static constexpr std::size_t kWheelWords = kWheelSpanNs / 64;
  struct Bucket {
    std::vector<EventNode*> items;
    std::size_t head = 0;  // drain cursor; capacity is kept across reuse
  };
  void WheelPush(std::int64_t at_ns, EventNode* node);
  // Timestamp and bucket index of the earliest wheel event.
  // Precondition: wheel_count_ > 0.
  std::int64_t WheelNextTime(std::size_t* idx) const;
  // Pops the front of bucket `idx` (whose timestamp is at_ns) and runs it
  // unless it is a cancelled tombstone. Returns true iff an event ran.
  bool RunWheelBucket(std::size_t idx, std::int64_t at_ns);

  void FifoPush(FifoEntry e);
  void FifoGrow();
  FifoEntry FifoPop() {
    FifoEntry e = fifo_[fifo_head_ & (fifo_.size() - 1)];
    ++fifo_head_;
    --fifo_count_;
    return e;
  }

  // Pops the globally next queued entry (fifo merged with heap by
  // (time, seq)) and, if it is a live event, advances the clock and runs
  // it. Returns true iff an event ran (false for cancelled tombstones).
  // Precondition: !QueuesEmpty().
  bool StepOne();
  // Pops the heap top and runs it unless it is a cancelled tombstone.
  // Returns true iff an event ran.
  bool RunHeapTop();

  bool QueuesEmpty() const {
    return fifo_count_ == 0 && wheel_count_ == 0 && heap_.empty();
  }
  // Earliest queued timestamp; precondition: !QueuesEmpty(). Fifo entries
  // are always at now_, which is <= any wheel or heap entry.
  std::int64_t NextEventTime() const {
    if (fifo_count_ != 0) return now_.nanos();
    std::int64_t t = heap_.empty() ? std::numeric_limits<std::int64_t>::max()
                                   : heap_.front().at;
    if (wheel_count_ != 0) {
      std::size_t idx;
      const std::int64_t w = WheelNextTime(&idx);
      if (w < t) t = w;
    }
    return t;
  }

  // Runs a live event: its callable is invoked and destroyed, the node
  // recycled.
  void RunEvent(EventNode* node);

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::int64_t executed_ = 0;
  std::size_t live_events_ = 0;

  std::vector<HeapEntry> heap_;
  // True while the root entry has been consumed by RunHeapTop but not yet
  // replaced (see HeapPush) or excised (see CloseHeapHole). Always false
  // between events.
  bool heap_hole_ = false;

  std::vector<Bucket> wheel_{static_cast<std::size_t>(kWheelSpanNs)};
  std::uint64_t wheel_bits_[kWheelWords] = {};  // bucket-occupancy bitmap
  std::size_t wheel_count_ = 0;  // pending wheel entries incl. tombstones
  // Power-of-two ring of events at exactly now().
  std::vector<FifoEntry> fifo_;
  std::size_t fifo_head_ = 0;
  std::size_t fifo_count_ = 0;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t chunk_used_ = kChunkSize;  // slots used in the last chunk
  EventNode* free_head_ = nullptr;

  std::vector<BlockedProbe> probes_;
};

}  // namespace pw::sim
