// A point-to-point link with latency and bandwidth.
//
// Transfers serialize on the link in FIFO order (store-and-forward at the
// sender): a transfer of B bytes occupies the link for B/bandwidth starting
// when the link frees up, and is delivered `latency` after its serialization
// finishes. This is the standard alpha-beta model used for PCIe, per-device
// ICI egress, and DCN NIC egress.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/units.h"
#include "sim/future.h"
#include "sim/simulator.h"

namespace pw::net {

class Link {
 public:
  Link(sim::Simulator* sim, std::string name, Duration latency,
       double bandwidth_bytes_per_sec)
      : sim_(sim),
        name_(std::move(name)),
        latency_(latency),
        bandwidth_(bandwidth_bytes_per_sec) {
    PW_CHECK_GT(bandwidth_, 0.0);
  }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Time the wire is occupied by `bytes`.
  Duration SerializationTime(Bytes bytes) const {
    PW_CHECK_GE(bytes, 0);
    return Duration::Seconds(static_cast<double>(bytes) / EffectiveBandwidth());
  }

  // Fault-injection knob: scales the effective bandwidth (0 < scale <= 1 for
  // degradation, > 1 for headroom experiments). Transfers already in flight
  // keep their original delivery times; only new transfers see the new rate.
  // At exactly 1.0 the arithmetic is bypassed, so unfaulted runs are
  // bit-identical to builds without the knob.
  void set_bandwidth_scale(double scale) {
    PW_CHECK_GT(scale, 0.0);
    bandwidth_scale_ = scale;
  }
  double bandwidth_scale() const { return bandwidth_scale_; }
  double EffectiveBandwidth() const {
    return bandwidth_scale_ == 1.0 ? bandwidth_ : bandwidth_ * bandwidth_scale_;
  }

  // Starts a transfer now; `on_delivered` runs when the last byte arrives at
  // the receiver. Returns the delivery time.
  TimePoint Transfer(Bytes bytes, sim::InlineFunction<void()> on_delivered) {
    const TimePoint start = std::max(sim_->now(), busy_until_);
    const TimePoint tx_done = start + SerializationTime(bytes);
    busy_until_ = tx_done;
    const TimePoint delivered = tx_done + latency_;
    bytes_sent_ += bytes;
    ++transfers_;
    sim_->ScheduleAt(delivered, std::move(on_delivered));
    return delivered;
  }

  sim::SimFuture<sim::Unit> TransferAsync(Bytes bytes) {
    sim::SimPromise<sim::Unit> p(sim_);
    Transfer(bytes, [p]() mutable { p.Set(sim::Unit{}); });
    return p.future();
  }

  Duration latency() const { return latency_; }
  double bandwidth() const { return bandwidth_; }
  Bytes bytes_sent() const { return bytes_sent_; }
  std::int64_t transfers() const { return transfers_; }
  const std::string& name() const { return name_; }
  TimePoint busy_until() const { return busy_until_; }

 private:
  sim::Simulator* sim_;
  std::string name_;
  Duration latency_;
  double bandwidth_;
  double bandwidth_scale_ = 1.0;
  TimePoint busy_until_;
  Bytes bytes_sent_ = 0;
  std::int64_t transfers_ = 0;
};

}  // namespace pw::net
