#include "pathways/gang_scheduler.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "pathways/runtime.h"

namespace pw::pathways {

GangScheduler::GangScheduler(PathwaysRuntime* runtime, hw::Island* island,
                             hw::Host* home)
    : runtime_(runtime),
      island_(island),
      home_(home),
      sched_cpu_(&runtime->simulator(),
                 "sched" + std::to_string(island->id().value())) {}

hw::IslandId GangScheduler::island_id() const { return island_->id(); }

void GangScheduler::SubmitSubgraph(std::shared_ptr<ProgramExecution> exec,
                                   std::shared_ptr<const std::vector<int>> nodes) {
  PW_CHECK(nodes != nullptr && !nodes->empty());
  // FIFO policy uses one shared queue; stride keeps one queue per client.
  const std::int64_t key =
      runtime_->options().policy == SchedulerPolicy::kFifo
          ? 0
          : exec->client().value();
  ClientQueue& q = queues_[key];
  if (q.entries.empty()) {
    // A newly busy client starts at the current virtual time so it cannot
    // claim a catch-up burst (standard stride-scheduler re-entry rule).
    // Virtual time is the backlogged minimum pass; when no queue happens
    // to be backlogged at this instant (e.g. the only active client's sole
    // entry is in flight), fall back to the maximum pass over all queues —
    // without it, a rebase-clamped idle queue re-entering at such an
    // instant would sit at pass 0 and win a bounded monopoly burst.
    double anchor = BackloggedMinPass();
    if (anchor == std::numeric_limits<double>::infinity()) {
      anchor = 0;
      for (const auto& [k, other] : queues_) {
        anchor = std::max(anchor, other.pass);
      }
    }
    q.pass = std::max(q.pass, anchor);
  }
  q.stride = 1.0 / std::max(exec->client_weight(), 1e-9);
  Enqueue(key,
          Entry{std::move(exec), std::move(nodes), 0, TimePoint(), Duration()},
          /*front=*/false);
  Pump();
}

double GangScheduler::BackloggedMinPass() const {
  double min_pass = std::numeric_limits<double>::infinity();
  for (const auto& [key, q] : queues_) {
    if (!q.entries.empty()) min_pass = std::min(min_pass, q.pass);
  }
  return min_pass;
}

void GangScheduler::Enqueue(std::int64_t key, Entry entry, bool front) {
  entry.enqueued_at = runtime_->simulator().now();
  std::deque<Entry>& q = queues_[key].entries;
  if (front) {
    q.push_front(std::move(entry));
  } else {
    q.push_back(std::move(entry));
  }
}

std::deque<GangScheduler::Entry>* GangScheduler::PickQueue() {
  ClientQueue* best = nullptr;
  for (auto& [key, q] : queues_) {
    if (q.entries.empty()) continue;
    if (best == nullptr || q.pass < best->pass) best = &q;
  }
  if (best == nullptr) return nullptr;
  best->pass += best->stride;
  if (++picks_since_rebase_ >= kRebaseInterval ||
      best->pass > kRebaseThreshold) {
    RebasePasses();
  }
  return &best->entries;
}

void GangScheduler::RebasePasses() {
  picks_since_rebase_ = 0;
  // Anchor at the minimum pass among backlogged queues: they are the ones
  // whose relative spacing decides upcoming picks. Idle queues clamp at
  // zero — on re-entry the catch-up rule in SubmitSubgraph lifts them back
  // to the current virtual time, so no burst can result.
  const double min_pass = BackloggedMinPass();
  if (min_pass == std::numeric_limits<double>::infinity() || min_pass <= 0) {
    return;
  }
  for (auto& [key, q] : queues_) {
    q.pass = std::max(0.0, q.pass - min_pass);
  }
  ++pass_rebases_;
}

void GangScheduler::AgePassesForTesting(double offset) {
  for (auto& [key, q] : queues_) q.pass += offset;
}

void GangScheduler::Pump() {
  if (pumping_ || inflight_gangs_ >= runtime_->options().max_inflight_gangs) {
    return;
  }
  std::deque<Entry>* q = PickQueue();
  if (q == nullptr) return;
  Entry entry = std::move(q->front());
  q->pop_front();
  // Gangs of an aborted execution (device failure) are dropped, not
  // dispatched: the client's retry resubmits the whole program against the
  // remapped placement. Free scheduling decision — re-pick immediately.
  if (entry.exec->aborted()) {
    ++gangs_aborted_;
    Pump();
    return;
  }
  // Accrue this queueing episode's wait on the entry; it is committed to
  // client_stats_ only when the gang actually dispatches (an abort while
  // the scheduling decision is in flight drops the entry, and its wait,
  // so queue_wait / gangs_dispatched stays a per-dispatched-gang delay).
  entry.picked_wait += runtime_->simulator().now() - entry.enqueued_at;
  pumping_ = true;
  // Scheduling decision cost, then emit the gang's dispatch messages.
  sched_cpu_.Submit(runtime_->params().scheduler_decision_cost,
                    [this, entry = std::move(entry)]() mutable {
                      DispatchGang(std::move(entry));
                    });
}

void GangScheduler::DispatchGang(Entry entry) {
  // The execution may have been aborted while the scheduling decision was
  // in flight on the scheduler CPU.
  if (entry.exec->aborted()) {
    ++gangs_aborted_;
    pumping_ = false;
    Pump();
    return;
  }
  const int node = (*entry.nodes)[entry.next_node];
  auto exec = entry.exec;
  const ComputationNode& cn = exec->program().node(node);
  const int num_shards = cn.fn.num_shards;
  const hw::SystemParams& params = runtime_->params();

  // Two reasons to park an entry instead of dispatching:
  //  * the client has not yet streamed this gang's launch descriptors
  //    (Client::Run streams them at ~17 us/shard on its own thread);
  //  * data-dependent control flow (paper §4.5): an irregular node's
  //    resource requirements are unknown until its predecessors complete,
  //    so its host-side work cannot be pre-run — the traditional
  //    (sequential) model applies to that node only.
  {
    const auto released = exec->ClientReleased(node);
    // Calls fn(pred) on every predecessor still pending.
    auto for_each_pending = [&](auto fn) {
      if (!released.ready()) fn(released);
      if (!cn.irregular) return;
      for (const ValueRef& in : cn.inputs) {
        if (in.kind != ValueRef::Kind::kNodeOutput) continue;
        const auto done = exec->NodeComplete(in.index);
        if (!done.ready()) fn(done);
      }
    };
    int pending = 0;
    for_each_pending([&](const sim::SimFuture<sim::Unit>&) { ++pending; });
    if (pending > 0) {
      auto arrive = sim::JoinOf(
          &runtime_->simulator(), pending,
          [this, parked = std::move(entry)]() mutable {
            const std::int64_t key =
                runtime_->options().policy == SchedulerPolicy::kFifo
                    ? 0
                    : parked.exec->client().value();
            Enqueue(key, std::move(parked), /*front=*/true);
            Pump();
          });
      for_each_pending(
          [&](const sim::SimFuture<sim::Unit>& pred) { pred.Then(arrive); });
      pumping_ = false;
      Pump();  // serve other tenants while this entry waits
      return;
    }
  }

  // Commit point: the gang will be emitted. Draw its global reservation
  // ticket *here* — the scheduler is the single emission point, so ticket
  // order matches per-device gang arrival order by construction, and every
  // other reservation source (client staging, retries) is globally ordered
  // against the gang pipeline (paper §4.6 "scheduler ensures allocation
  // order"; docs/MEMORY.md).
  exec->AssignGangTicket(node);

  // Admission control: hold a slot until the gang's last shard completes
  // (completion notice rides back over the DCN).
  ++inflight_gangs_;
  exec->NodeComplete(node).Then([this](const sim::Unit&) {
    runtime_->simulator().Schedule(runtime_->params().dcn.latency, [this] {
      --inflight_gangs_;
      Pump();
    });
  });

  // One dispatch message per device executor. The scheduler only *orders*
  // and forwards (cheap, ~1us per message, so many tenants share it without
  // it becoming a bottleneck); the expensive per-shard fan-out work —
  // lowering, launch descriptors, handle registration — was already charged
  // on the submitting client's thread (Client::Run), which is what Figure 6
  // measures. Messages for one gang are fully emitted before the next gang
  // is considered, and per-host DCN links are FIFO, so every device sees
  // gangs in the same order.
  for (int shard = 0; shard < num_shards; ++shard) {
    const hw::DeviceId dev = exec->DeviceFor(node, shard);
    hw::Host& target = runtime_->cluster().host_of(dev);
    sched_cpu_.Submit(Duration::Micros(1),
                      [this, exec, node, shard, &target] {
                        ++dispatch_messages_;
                        home_->dcn().Send(
                            home_->id(), target.id(), /*bytes=*/96,
                            [this, exec, node, shard] {
                              runtime_->executor(exec->DeviceFor(node, shard))
                                  .Dispatch(exec, node, shard);
                            });
                      });
  }
  (void)params;

  // After the last message is emitted, advance this entry and keep pumping.
  sched_cpu_.Submit(Duration::Zero(), [this, entry = std::move(entry),
                                       node]() mutable {
    ++gangs_dispatched_;
    ClientSchedStats& stats = client_stats_[entry.exec->client().value()];
    ++stats.gangs_dispatched;
    stats.queue_wait += entry.picked_wait;
    entry.picked_wait = Duration::Zero();
    ++entry.next_node;
    auto exec2 = entry.exec;
    const bool more = entry.next_node < entry.nodes->size();
    auto continue_pumping = [this, entry = std::move(entry), more]() mutable {
      if (more) {
        const std::int64_t key =
            runtime_->options().policy == SchedulerPolicy::kFifo
                ? 0
                : entry.exec->client().value();
        Enqueue(key, std::move(entry), /*front=*/false);
      }
      pumping_ = false;
      Pump();
    };
    if (runtime_->options().dispatch == DispatchMode::kSequential) {
      // Traditional dispatch (paper Fig. 4a): wait until every shard of this
      // node has actually been enqueued (ack ride back over the DCN) before
      // any host-side work for the next node starts.
      const Duration ack_delay = runtime_->params().dcn.latency;
      exec2->NodeEnqueued(node).Then(
          [this, ack_delay,
           continue_pumping = std::move(continue_pumping)](const sim::Unit&) mutable {
            runtime_->simulator().Schedule(
                ack_delay, [this, continue_pumping = std::move(continue_pumping)]() mutable {
                  sched_cpu_.Submit(runtime_->params().coordinator_msg_cost,
                                    std::move(continue_pumping));
                });
          });
    } else {
      continue_pumping();
    }
  });
}

}  // namespace pw::pathways
