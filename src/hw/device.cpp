#include "hw/device.h"

#include <sstream>

namespace pw::hw {

Device::Device(sim::Simulator* sim, DeviceId id, IslandId island,
               Bytes hbm_capacity, Duration launch_overhead)
    : sim_(sim),
      id_(id),
      island_(island),
      hbm_(sim, hbm_capacity),
      launch_overhead_(launch_overhead) {
  sim_->RegisterBlockedProbe([this] { return BlockedReason(); });
}

sim::SimFuture<sim::Unit> Device::Enqueue(KernelDesc desc) {
  if (failed()) {
    // Fail-stop: the kernel vanishes without running. Completion fires so
    // host-side bookkeeping (scratch frees, in-order stream accounting)
    // unwinds; the owning execution was aborted when the device went down,
    // so the completion carries no semantic weight.
    ++dropped_;
    return sim::ReadyFuture(sim_, sim::Unit{});
  }
  queue_.push_back(QueuedKernel{std::move(desc), sim::SimPromise<sim::Unit>(sim_)});
  auto fut = queue_.back().done.future();
  // Start attempt runs as an event so Enqueue is safe to call from anywhere.
  const std::uint64_t ep = epoch_;
  sim_->Schedule(Duration::Zero(), [this, ep] {
    if (ep != epoch_) return;
    MaybeStart();
  });
  return fut;
}

void Device::Fail() {
  if (failed()) return;
  health_ = DeviceHealth::kFailed;
  ++failures_;
  ++epoch_;  // kill every timing event scheduled for the old stream
  executing_ = false;
  waiting_inputs_ = false;
  at_rendezvous_ = false;
  // Discard the stream. Completion futures fire (as zero-delay events) so
  // executor continuations run their cleanup; the executions owning these
  // kernels are aborted by the layers above.
  std::deque<QueuedKernel> doomed = std::move(queue_);
  queue_.clear();
  for (QueuedKernel& k : doomed) {
    ++dropped_;
    k.done.Set(sim::Unit{});
  }
}

void Device::Recover() {
  if (!failed()) return;
  health_ = DeviceHealth::kHealthy;
  // The stream is empty after Fail(); nothing to restart. MaybeStart() keeps
  // the invariant obvious if that ever changes.
  MaybeStart();
}

void Device::set_compute_multiplier(double m) {
  PW_CHECK_GT(m, 0.0) << "compute multiplier must be positive";
  compute_multiplier_ = m;
}

void Device::MaybeStart() {
  if (executing_ || waiting_inputs_ || failed() || queue_.empty()) return;
  QueuedKernel& head = queue_.front();
  // Gate on inputs (DMA completions). Futures are one-shot, so re-checking
  // after the join fires is cheap and exact.
  int pending = 0;
  for (const auto& f : head.desc.inputs) pending += f.ready() ? 0 : 1;
  if (pending > 0) {
    waiting_inputs_ = true;
    const std::uint64_t ep = epoch_;
    auto arrive = sim::JoinOf(sim_, pending, [this, ep] {
      if (ep != epoch_) return;
      waiting_inputs_ = false;
      MaybeStart();
    });
    for (const auto& f : head.desc.inputs) {
      if (!f.ready()) f.Then(arrive);
    }
    return;
  }
  RunHead();
}

void Device::RunHead() {
  executing_ = true;
  const TimePoint started = sim_->now();
  const std::uint64_t ep = epoch_;
  QueuedKernel& head = queue_.front();
  const Duration pre = launch_overhead_ + ScaleCompute(head.desc.pre_time);
  if (head.desc.collective != nullptr) {
    auto group = head.desc.collective;
    const Bytes bytes = head.desc.collective_bytes;
    sim_->Schedule(pre, [this, ep, group, bytes, started] {
      if (ep != epoch_) return;
      at_rendezvous_ = true;
      group->Arrive(bytes).Then([this, ep, started](const sim::Unit&) {
        if (ep != epoch_) return;
        at_rendezvous_ = false;
        const Duration post = ScaleCompute(queue_.front().desc.post_time);
        sim_->Schedule(post, [this, ep, started] {
          if (ep != epoch_) return;
          FinishHead(started);
        });
      });
    });
  } else {
    sim_->Schedule(pre + ScaleCompute(head.desc.post_time),
                   [this, ep, started] {
                     if (ep != epoch_) return;
                     FinishHead(started);
                   });
  }
}

void Device::FinishHead(TimePoint started) {
  QueuedKernel head = std::move(queue_.front());
  queue_.pop_front();
  executing_ = false;
  ++completed_;
  busy_accum_ += sim_->now() - started;
  if (trace_ != nullptr) {
    trace_->Record("dev" + std::to_string(id_.value()), head.desc.client,
                   head.desc.label, started, sim_->now());
  }
  head.done.Set(sim::Unit{});
  MaybeStart();
}

std::string Device::BlockedReason() const {
  std::ostringstream out;
  if (at_rendezvous_) {
    const auto& head = queue_.front();
    out << "dev" << id_ << " parked at collective '"
        << head.desc.collective->label() << "' (" << head.desc.collective->arrived()
        << "/" << head.desc.collective->expected() << " arrived)";
    return out.str();
  }
  if (waiting_inputs_) {
    out << "dev" << id_ << " waiting for inputs of '" << queue_.front().desc.label
        << "'";
    return out.str();
  }
  return "";
}

}  // namespace pw::hw
