#include "net/dcn.h"

#include <algorithm>
#include <string>

namespace pw::net {

DcnFabric::DcnFabric(sim::Simulator* sim, DcnParams params)
    : sim_(sim), params_(params) {
  if (params_.clos.enabled) {
    topo_ = std::make_unique<Topology>();
    clos_ = std::make_unique<ClosTopology>(
        topo_.get(), ClosTopology::Params{
                         .hosts_per_leaf = params_.clos.hosts_per_leaf,
                         .num_spines = params_.clos.num_spines,
                         .host_bandwidth = params_.nic_bandwidth,
                         .spine_bandwidth = 0,
                         .oversubscription = params_.clos.oversubscription,
                     });
    flow_ = std::make_unique<FlowNetwork>(sim_, topo_.get());
  }
}

DcnFabric::~DcnFabric() = default;

void DcnFabric::AddHost(HostId host) {
  PW_CHECK(!nics_.contains(host)) << "host " << host << " already registered";
  nics_[host] = std::make_unique<Link>(
      sim_, "nic" + std::to_string(host.value()), params_.latency,
      params_.nic_bandwidth);
  if (flow_) clos_index_[host] = clos_->AddHost();
}

void DcnFabric::Send(HostId src, HostId dst, Bytes bytes,
                     sim::InlineFunction<void()> on_delivered) {
  PW_CHECK(nics_.contains(src)) << "unknown src host " << src;
  PW_CHECK(nics_.contains(dst)) << "unknown dst host " << dst;
  // Counted at submission, held or not: throughput telemetry sampled during
  // a fault window must see the traffic *offered* in that window, not a
  // heal-time replay burst misattributed to the recovery period.
  ++messages_;
  bytes_ += bytes;
  Route(src, dst, bytes, std::move(on_delivered), kFreshSend);
}

void DcnFabric::Hold(std::vector<HeldMessage>* queue, HeldMessage m) {
  // Stamp order == submission order. Fresh sends carry the highest stamp
  // yet issued, so lower_bound lands at end() and this is a push_back; only
  // heal-time re-holds (an old stamp meeting younger traffic parked on the
  // peer) pay the mid-queue insert.
  auto pos = std::lower_bound(
      queue->begin(), queue->end(), m.seq,
      [](const HeldMessage& held, std::uint64_t seq) { return held.seq < seq; });
  queue->insert(pos, std::move(m));
}

void DcnFabric::Route(HostId src, HostId dst, Bytes bytes,
                      sim::InlineFunction<void()> on_delivered,
                      std::uint64_t replay_seq) {
  if (src == dst) {
    // Loopback: no NIC serialization, small fixed cost. Never held by a
    // partition — a partition cuts the fabric, and loopback traffic does
    // not touch the fabric.
    sim_->ScheduleAt(sim_->now() + Duration::Micros(1),
                     std::move(on_delivered));
    return;
  }
  if (!partitioned_.empty()) {
    auto hold = partitioned_.find(src);
    if (hold == partitioned_.end()) hold = partitioned_.find(dst);
    if (hold != partitioned_.end()) {
      const std::uint64_t seq =
          replay_seq == kFreshSend ? next_hold_seq_++ : replay_seq;
      Hold(&hold->second,
           HeldMessage{src, dst, bytes, std::move(on_delivered), seq});
      return;
    }
  }
  const Bytes wire_bytes = bytes + params_.per_message_header;
  if (flow_) {
    // Flow-level Clos: the message contends on its real host→leaf→spine→
    // leaf→host path.
    flow_->StartFlow(clos_->Path(clos_index_.at(src), clos_index_.at(dst)),
                     wire_bytes, params_.latency, std::move(on_delivered));
  } else {
    nics_[src]->Transfer(wire_bytes, std::move(on_delivered));
  }
}

void DcnFabric::SetNicBandwidthScale(HostId host, double scale) {
  PW_CHECK(nics_.contains(host)) << "unknown host " << host;
  nics_[host]->set_bandwidth_scale(scale);
  if (flow_) {
    // Degrade the host's access edges in the link graph: exactly the flows
    // crossing this NIC slow down, in both directions.
    const int h = clos_index_.at(host);
    topo_->SetLinkScale(clos_->host_up(h), scale);
    topo_->SetLinkScale(clos_->host_down(h), scale);
    flow_->OnCapacityChanged();
  }
}

double DcnFabric::nic_bandwidth_scale(HostId host) const {
  auto it = nics_.find(host);
  PW_CHECK(it != nics_.end()) << "unknown host " << host;
  return it->second->bandwidth_scale();
}

void DcnFabric::SetPartitioned(HostId host, bool partitioned) {
  PW_CHECK(nics_.contains(host)) << "unknown host " << host;
  if (partitioned) {
    partitioned_.try_emplace(host);  // keeps an existing hold queue
    return;
  }
  auto it = partitioned_.find(host);
  if (it == partitioned_.end()) return;
  // Heal: replay held messages in submission-stamp order, without
  // re-counting them (each was counted when first offered). Route()
  // re-checks the other endpoint, so a message whose peer is still
  // partitioned moves to that peer's hold queue — keeping its stamp, so it
  // sorts ahead of traffic submitted after it (the dual-partition FIFO
  // regression in net_test.cpp).
  std::vector<HeldMessage> held = std::move(it->second);
  partitioned_.erase(it);
  for (HeldMessage& m : held) {
    Route(m.src, m.dst, m.bytes, std::move(m.on_delivered), m.seq);
  }
}

std::size_t DcnFabric::messages_held() const {
  std::size_t n = 0;
  for (const auto& [host, queue] : partitioned_) n += queue.size();
  return n;
}

Bytes DcnFabric::held_bytes() const {
  Bytes n = 0;
  for (const auto& [host, queue] : partitioned_) {
    for (const HeldMessage& m : queue) n += m.bytes;
  }
  return n;
}

}  // namespace pw::net
