// Centralized per-island gang scheduler (paper §4.4).
//
// Consistently orders all computations on its island: programs submit their
// subgraphs in a single message; the scheduler picks the next gang (= one
// sharded computation node) by policy — FIFO, or weighted stride for
// proportional share across clients (Fig. 9) — and emits one dispatch
// message per device executor. Emission is serialized on the scheduler's
// own CPU thread at `coordinator_msg_cost` per message: that serialization
// is the single-controller overhead Figures 5/6 measure. A gang's messages
// are always fully emitted before the next gang's, which (with FIFO links)
// guarantees every device observes the same relative order of gangs — the
// property that makes non-preemptible collectives deadlock-free.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "hw/cluster.h"
#include "pathways/execution.h"
#include "pathways/ids.h"
#include "pathways/options.h"
#include "sim/serial_resource.h"

namespace pw::pathways {

class PathwaysRuntime;

class GangScheduler {
 public:
  GangScheduler(PathwaysRuntime* runtime, hw::Island* island, hw::Host* home);

  GangScheduler(const GangScheduler&) = delete;
  GangScheduler& operator=(const GangScheduler&) = delete;

  hw::IslandId island_id() const;
  hw::Host* home() const { return home_; }

  // Called when a program's subgraph RPC arrives: `nodes` are the program's
  // node ids placed on this island, in program (topological) order.
  void SubmitSubgraph(std::shared_ptr<ProgramExecution> exec,
                      std::shared_ptr<const std::vector<int>> nodes);

  // Rebases every queue's pass by the minimum pass among backlogged queues,
  // clamping at zero. Pass values only matter relative to each other, so
  // this is a semantic no-op — but `pass += stride` grows without bound,
  // and once pass/stride exceeds 2^52 the increment is absorbed by double
  // rounding (pass + stride == pass): the affected queue's virtual time
  // freezes and it monopolizes the island while every other client starves.
  // PickQueue calls this automatically (every kRebaseInterval picks, or
  // immediately once any pass crosses kRebaseThreshold); it is public so
  // long-lived embedders can also anchor passes at a quiescent point.
  void RebasePasses();

  // Stats.
  std::int64_t gangs_dispatched() const { return gangs_dispatched_; }
  std::int64_t gangs_aborted() const { return gangs_aborted_; }
  std::int64_t dispatch_messages() const { return dispatch_messages_; }
  std::int64_t pass_rebases() const { return pass_rebases_; }
  Duration scheduler_busy() const { return sched_cpu_.total_busy(); }

  // Per-client dispatch/wait accounting, keyed by client id under either
  // policy (a FIFO pick still belongs to the popped entry's client).
  // queue_wait sums, per *dispatched* gang, the time from the entry
  // entering a queue to the scheduler picking it (parked entries accrue
  // one episode per requeue; gangs aborted before dispatch contribute
  // nothing), so queue_wait / gangs_dispatched reads as per-gang
  // scheduling delay — the split of end-to-end latency that belongs to
  // the scheduler rather than execution.
  struct ClientSchedStats {
    std::int64_t gangs_dispatched = 0;
    Duration queue_wait;
  };
  const std::map<std::int64_t, ClientSchedStats>& client_stats() const {
    return client_stats_;
  }

  // Test-only: ages the scheduler by advancing every queue's pass by
  // `offset`, as if the island had already served a very long run. Relative
  // order is preserved, so this is behavior-neutral — except that it puts
  // pass values where `pass += stride` starts losing precision, which is
  // exactly what the long-run regression test needs to reproduce quickly.
  void AgePassesForTesting(double offset);

 private:
  struct Entry {
    std::shared_ptr<ProgramExecution> exec;
    std::shared_ptr<const std::vector<int>> nodes;
    std::size_t next_node = 0;
    // Set every time the entry (re)enters a queue. Pump accrues the
    // elapsed time into picked_wait, which is committed to the owning
    // client's queue_wait when the gang actually dispatches (entries
    // aborted between pick and dispatch carry their wait to the grave).
    TimePoint enqueued_at;
    Duration picked_wait;
  };

  void Pump();
  // Picks the client queue to serve next (stride scheduling); returns
  // nullptr if all queues are empty.
  std::deque<Entry>* PickQueue();
  void DispatchGang(Entry entry);
  // Stamps the entry and pushes it onto `key`'s queue (front or back).
  void Enqueue(std::int64_t key, Entry entry, bool front);
  // Minimum pass among queues with waiting entries (the current virtual
  // time); +infinity when nothing is backlogged. Anchor for both the
  // re-entry catch-up rule and RebasePasses.
  double BackloggedMinPass() const;

  PathwaysRuntime* runtime_;
  hw::Island* island_;
  hw::Host* home_;
  sim::SerialResource sched_cpu_;

  // Per-client FIFO queues + stride scheduler state.
  struct ClientQueue {
    std::deque<Entry> entries;
    double pass = 0;
    double stride = 1.0;
  };
  std::map<std::int64_t, ClientQueue> queues_;
  std::map<std::int64_t, ClientSchedStats> client_stats_;
  // Pass-drift control: rebase every kRebaseInterval picks so passes stay
  // small in steady state, and immediately once a pass crosses
  // kRebaseThreshold (an aged or adversarial state — e.g. one tiny-weight
  // client — can outrun the periodic schedule). The threshold leaves
  // 2^52 / 2^24 = 2^28 of stride headroom before increments round away.
  static constexpr int kRebaseInterval = 1024;
  static constexpr double kRebaseThreshold = 16777216.0;  // 2^24
  int picks_since_rebase_ = 0;
  std::int64_t pass_rebases_ = 0;
  bool pumping_ = false;
  int inflight_gangs_ = 0;
  std::int64_t gangs_dispatched_ = 0;
  std::int64_t gangs_aborted_ = 0;
  std::int64_t dispatch_messages_ = 0;
};

}  // namespace pw::pathways
