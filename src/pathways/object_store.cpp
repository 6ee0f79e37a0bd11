#include "pathways/object_store.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "memory/wait_graph.h"

namespace pw::pathways {

namespace {

// Wait-for-graph node id for a buffer entry: executions key by their id
// value; ownerless staged buffers get a disjoint negative range.
std::int64_t EntityOf(ExecutionId producer, LogicalBufferId id) {
  if (producer.valid()) return producer.value();
  return -(id.value() + 1);
}

}  // namespace

void ObjectStore::RegisterTicket(hw::MemoryTicket ticket, std::int64_t entity,
                                 TicketKind kind, std::int64_t id, int shard) {
  tickets_[ticket] = TicketInfo{entity, kind, shard, id};
}

std::string ObjectStore::LabelOf(const TicketInfo& info) {
  switch (info.kind) {
    case TicketKind::kExec:
      return "exec " + std::to_string(info.id);
    case TicketKind::kStagedBuffer:
      return "staged buffer " + std::to_string(info.id);
    case TicketKind::kGrow:
      return "grow buffer " + std::to_string(info.id) + "/" +
             std::to_string(info.shard);
  }
  return "";
}

void ObjectStore::FinishTicket(hw::MemoryTicket ticket) {
  if (ticket == hw::kUnticketed) return;
  tickets_.erase(ticket);
}

void ObjectStore::SetBufferTicket(LogicalBufferId id, hw::MemoryTicket ticket) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;  // released before its gang dispatched
  it->second.ticket = ticket;
}

std::string ObjectStore::TicketName(hw::MemoryTicket ticket) const {
  auto it = tickets_.find(ticket);
  if (it != tickets_.end()) return LabelOf(it->second);
  std::ostringstream os;
  if (ticket == hw::kUnticketed) {
    os << "unticketed";
  } else {
    os << "ticket " << ticket;
  }
  return os.str();
}

void ObjectStore::Touch(ShardState& state) {
  state.last_use_ns = cluster_->simulator().now().nanos();
}

void ObjectStore::FreeLater(hw::DeviceId device, Bytes bytes) {
  // Admission runs inside the allocator's serve loop, which must not
  // re-enter itself, so the grant goes back in its own zero-delay event.
  cluster_->simulator().Schedule(Duration::Zero(), [this, device, bytes] {
    cluster_->device(device).hbm().Free(bytes);
  });
}

void ObjectStore::AddLogical(hw::DeviceId device, Bytes bytes) {
  const int d = static_cast<int>(device.value());
  logical_live_[d] += bytes;
  logical_peak_[d] = std::max(logical_peak_[d], logical_live_[d]);
}

void ObjectStore::MarkGranted(ShardState& state, hw::DeviceId device,
                              Bytes bytes) {
  state.granted = true;
  state.residency = ShardResidency::kHbm;
  Touch(state);
  AddLogical(device, bytes);
}

ShardedBuffer ObjectStore::CreateBuffer(
    ClientId owner, ExecutionId producer,
    const std::vector<hw::DeviceId>& devices, Bytes bytes_per_shard,
    std::vector<sim::SimFuture<sim::Unit>>* per_shard_reservations) {
  PW_CHECK(!devices.empty());
  PW_CHECK_GE(bytes_per_shard, 0);
  Entry entry;
  entry.owner = owner;
  entry.producer = producer;
  entry.ticket = NextTicket();
  for (const hw::DeviceId dev : devices) {
    entry.shards.push_back(
        ShardBuffer{shard_ids_.Next(), dev, bytes_per_shard});
  }
  entry.states.assign(devices.size(), ShardState{});
  const LogicalBufferId id = logical_ids_.Next();
  RegisterTicket(entry.ticket, EntityOf(producer, id),
                 TicketKind::kStagedBuffer, id.value());
  ShardedBuffer handle;
  handle.id = id;
  handle.shards = entry.shards;
  const hw::MemoryTicket ticket = entry.ticket;
  entries_[id] = std::move(entry);
  // Issue every shard reservation atomically (one simulator event), all
  // under one ticket — an eager buffer's requests cannot interleave
  // inconsistently with anything across devices.
  std::vector<sim::SimFuture<sim::Unit>> reservations;
  reservations.reserve(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const hw::DeviceId dev = devices[i];
    const int shard = static_cast<int>(i);
    reservations.push_back(cluster_->device(dev).hbm().AllocateAsync(
        bytes_per_shard, ticket, [this, id, shard, dev, bytes_per_shard] {
          auto it = entries_.find(id);
          if (it == entries_.end()) {
            // Released while the reservation queued: hand the memory back.
            FreeLater(dev, bytes_per_shard);
            return;
          }
          ShardState& state = it->second.states[static_cast<std::size_t>(shard)];
          state.requested = true;
          MarkGranted(state, dev, bytes_per_shard);
        }));
  }
  handle.ready = sim::WhenAll(&cluster_->simulator(), reservations);
  if (per_shard_reservations != nullptr) {
    *per_shard_reservations = reservations;
  }
  return handle;
}

ShardedBuffer ObjectStore::CreateBufferDeferred(
    ClientId owner, ExecutionId producer,
    const std::vector<hw::DeviceId>& devices, Bytes bytes_per_shard) {
  PW_CHECK(!devices.empty());
  PW_CHECK_GE(bytes_per_shard, 0);
  Entry entry;
  entry.owner = owner;
  entry.producer = producer;
  for (const hw::DeviceId dev : devices) {
    entry.shards.push_back(
        ShardBuffer{shard_ids_.Next(), dev, bytes_per_shard});
  }
  entry.states.assign(devices.size(), ShardState{});
  ShardedBuffer handle;
  handle.id = logical_ids_.Next();
  handle.shards = entry.shards;
  handle.ready = sim::ReadyFuture(&cluster_->simulator(), sim::Unit{});
  entries_[handle.id] = std::move(entry);
  return handle;
}

sim::SimFuture<sim::Unit> ObjectStore::ReserveShard(LogicalBufferId id,
                                                    int shard) {
  auto it = entries_.find(id);
  PW_CHECK(it != entries_.end()) << "ReserveShard on unknown buffer " << id;
  Entry& entry = it->second;
  const ShardBuffer& sb = entry.shards.at(static_cast<std::size_t>(shard));
  ShardState& state = entry.states.at(static_cast<std::size_t>(shard));
  PW_CHECK(!state.requested)
      << "shard " << shard << " of buffer " << id << " reserved twice";
  state.requested = true;
  sim::SimPromise<sim::Unit> granted(&cluster_->simulator());
  auto fut = granted.future();
  cluster_->device(sb.device)
      .hbm()
      .AllocateAsync(
          sb.bytes, entry.ticket,
          [this, id, shard, device = sb.device, bytes = sb.bytes] {
            auto it2 = entries_.find(id);
            if (it2 == entries_.end()) {
              // Buffer released (failed-client GC, aborted execution) while
              // the reservation queued: hand the memory straight back — the
              // future below still fires its vacuous grant.
              FreeLater(device, bytes);
              return;
            }
            MarkGranted(it2->second.states[static_cast<std::size_t>(shard)],
                        device, bytes);
          })
      .Then([granted](const sim::Unit&) mutable {
        // Waiters gate work on this future (the executor's in-order enqueue
        // stream, most critically); a silently dropped promise would wedge
        // them forever, while a vacuous grant lets them unwind through
        // their own aborted-state checks.
        granted.Set(sim::Unit{});
      });
  return fut;
}

sim::SimFuture<sim::Unit> ObjectStore::GrowShard(LogicalBufferId id, int shard,
                                                 Bytes delta) {
  auto it = entries_.find(id);
  PW_CHECK(it != entries_.end()) << "GrowShard on unknown buffer " << id;
  PW_CHECK_GT(delta, 0);
  Entry& entry = it->second;
  ShardBuffer& sb = entry.shards.at(static_cast<std::size_t>(shard));
  ShardState& state = entry.states.at(static_cast<std::size_t>(shard));
  PW_CHECK(state.granted)
      << "GrowShard before shard " << shard << " of buffer " << id
      << " holds memory";
  const hw::DeviceId dev = sb.device;

  if (state.residency == ShardResidency::kHostDram &&
      cluster_->host_of(dev).dram().TryAllocate(delta)) {
    // Paged-out sequence keeps growing in DRAM, no HBM traffic at all.
    sb.bytes += delta;
    AddLogical(dev, delta);
    ++grows_completed_;
    grown_bytes_total_ += delta;
    Touch(state);
    return sim::ReadyFuture(&cluster_->simulator(), sim::Unit{});
  }

  // Either resident (kHbm / kSpillingOut — the grow pin below makes an
  // in-flight page-out abandon) or paged out with DRAM exhausted, in which
  // case the shard re-enters HBM at its grown size and frees its DRAM copy
  // at grant (a forced restore).
  const bool forced_restore = state.residency == ShardResidency::kHostDram;
  const Bytes request = forced_restore ? sb.bytes + delta : delta;
  ++state.pins;  // spill-protect the shard while the delta is queued
  Touch(state);
  const hw::MemoryTicket ticket = NextTicket();
  const std::int64_t entity = EntityOf(entry.producer, id);
  sim::SimPromise<sim::Unit> granted(&cluster_->simulator());
  auto fut = granted.future();
  auto grant = cluster_->device(dev).hbm().AllocateAsync(
      request, ticket,
      [this, id, shard, dev, delta, request, ticket, forced_restore] {
        FinishTicket(ticket);
        auto it2 = entries_.find(id);
        if (it2 == entries_.end()) {
          // Buffer released while the grow queued (fault unwinding):
          // hand the grant straight back.
          FreeLater(dev, request);
          return;
        }
        Entry& e = it2->second;
        ShardBuffer& sb2 = e.shards[static_cast<std::size_t>(shard)];
        ShardState& st = e.states[static_cast<std::size_t>(shard)];
        if (forced_restore) {
          if (st.residency == ShardResidency::kHostDram) {
            // The expected case: flip residency to the fresh HBM copy
            // and return the DRAM side.
            cluster_->host_of(dev).dram().Free(sb2.bytes);
            st.residency = ShardResidency::kHbm;
            ++fills_completed_;
            for (const hw::Device* hd : cluster_->host_of(dev).devices()) {
              MaybeKickSpiller(hd->id());
            }
          } else {
            // A same-device read restored the shard while our grown-size
            // reservation queued; only the delta is still needed, so the
            // redundant old-size portion goes back.
            FreeLater(dev, request - delta);
          }
        }
        sb2.bytes += delta;
        AddLogical(dev, delta);
        ++grows_completed_;
        grown_bytes_total_ += delta;
        Touch(st);
      });
  // Only a queued grow can be a stalled front waiter, the one thing the
  // ticket registry is read for; a grow granted on the spot (the common
  // case) was retired by its own admission and is never registered.
  if (!grant.ready()) {
    RegisterTicket(ticket, entity, TicketKind::kGrow, id.value(), shard);
  }
  grant.Then([this, id, shard, granted](const sim::Unit&) mutable {
    // Drop the grow pin through UnpinShard so a stalled spiller is
    // re-kicked, then complete the caller's future. A vacuous grant on
    // a released buffer still fires — callers unwind through their own
    // aborted-state checks, exactly like ReserveShard.
    UnpinShard(id, shard);
    granted.Set(sim::Unit{});
  });
  return fut;
}

sim::SimFuture<sim::Unit> ObjectStore::AllocateScratch(hw::DeviceId device,
                                                       Bytes bytes,
                                                       hw::MemoryTicket ticket) {
  return cluster_->device(device).hbm().AllocateAsync(bytes, ticket);
}

void ObjectStore::FreeScratch(hw::DeviceId device, Bytes bytes) {
  cluster_->device(device).hbm().Free(bytes);
}

void ObjectStore::MarkShardContentReady(LogicalBufferId id, int shard) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  ShardState& state = entry.states.at(static_cast<std::size_t>(shard));
  state.content_ready = true;
  Touch(state);
  // Newly spillable: retry a stalled device whose candidates were all
  // still content-pending (staged bytes landing produce no HBM free that
  // would otherwise re-fire the stall observer).
  MaybeKickSpiller(entry.shards[static_cast<std::size_t>(shard)].device);
}

void ObjectStore::PinShard(LogicalBufferId id, int shard) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  ShardState& state = it->second.states.at(static_cast<std::size_t>(shard));
  ++state.pins;
  Touch(state);
}

void ObjectStore::UnpinShard(LogicalBufferId id, int shard) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  ShardState& state = entry.states.at(static_cast<std::size_t>(shard));
  PW_CHECK_GT(state.pins, 0) << "unpin of unpinned shard " << shard
                             << " of buffer " << id;
  --state.pins;
  if (state.pins == 0) {
    // The shard just became a spill candidate; a stalled device whose only
    // candidates were pinned would otherwise never be retried (nothing
    // else frees HBM there to re-fire the stall observer).
    MaybeKickSpiller(entry.shards[static_cast<std::size_t>(shard)].device);
  }
}

void ObjectStore::MaybeKickSpiller(hw::DeviceId device) {
  if (spiller_ != nullptr &&
      cluster_->device(device).hbm().HasStalledWaiter()) {
    spiller_->OnStall(static_cast<int>(device.value()));
  }
}

bool ObjectStore::ShardInDram(LogicalBufferId id, int shard) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  return it->second.states.at(static_cast<std::size_t>(shard)).residency ==
         ShardResidency::kHostDram;
}

void ObjectStore::TryRestoreShard(LogicalBufferId id, int shard) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  const ShardBuffer& sb = entry.shards.at(static_cast<std::size_t>(shard));
  ShardState& state = entry.states.at(static_cast<std::size_t>(shard));
  if (state.residency != ShardResidency::kHostDram) return;
  // Allocate() refuses while waiters queue, so a restore never jumps the
  // reservation order — it only soaks up genuinely idle capacity.
  if (!cluster_->device(sb.device).hbm().Allocate(sb.bytes).ok()) return;
  state.residency = ShardResidency::kHbm;
  cluster_->host_of(sb.device).dram().Free(sb.bytes);
  ++fills_completed_;
  Touch(state);
  // DRAM headroom returned: devices of this host whose spills were blocked
  // on an exhausted DRAM pool can try again.
  for (const hw::Device* dev : cluster_->host_of(sb.device).devices()) {
    MaybeKickSpiller(dev->id());
  }
}

namespace {

// One ReadShard's two continuations, carried through its hops in a single
// heap block: every hop closure then captures a pointer and a few scalars,
// small enough for InlineFunction's inline storage.
struct ShardRead {
  sim::InlineFunction<void()> on_read;
  sim::InlineFunction<void()> on_landed;
};

}  // namespace

void ObjectStore::ReadShard(LogicalBufferId id, int shard, hw::DeviceId src,
                            hw::DeviceId dst, Bytes bytes,
                            sim::InlineFunction<void()> on_read,
                            sim::InlineFunction<void()> on_landed) {
  const bool in_dram = ShardInDram(id, shard);
  if (!in_dram && src == dst) {
    // The resident shard is directly addressable by its own device and the
    // consumer's input staging already covers it: handed off in place.
    on_read();
    on_landed();
    return;
  }
  auto read = std::make_unique<ShardRead>(
      ShardRead{std::move(on_read), std::move(on_landed)});
  hw::Host& src_host = cluster_->host_of(src);
  hw::Host& dst_host = cluster_->host_of(dst);
  if (in_dram) {
    // Read through from host DRAM: consumption never re-acquires HBM, which
    // is what keeps spilling deadlock-free against the non-preemptible
    // in-order device streams (docs/MEMORY.md).
    ++dram_reads_;
    dram_read_bytes_ += bytes;
    if (src_host.id() == dst_host.id()) {
      // Paging the bytes back to their own device doubles as a restore when
      // idle HBM is free.
      if (src == dst) TryRestoreShard(id, shard);
      dst_host.pcie(dst).Transfer(bytes, [read = std::move(read)] {
        read->on_read();
        read->on_landed();
      });
      return;
    }
    src_host.SendDcn(dst_host.id(), bytes,
                     [read = std::move(read), &dst_host, dst, bytes] {
                       read->on_read();
                       dst_host.pcie(dst).Transfer(
                           bytes, std::move(read->on_landed));
                     });
    return;
  }
  if (cluster_->device(src).island() == cluster_->device(dst).island()) {
    // Device to device over the island's private interconnect.
    cluster_->island_of(src).Transfer(src, dst, bytes).Then(
        [read = std::move(read)](const sim::Unit&) {
          read->on_read();
          read->on_landed();
        });
    return;
  }
  // Across islands: src PCIe, DCN host to host, dst PCIe. The read is done
  // once the bytes have left the source device.
  src_host.pcie(src).Transfer(
      bytes,
      [read = std::move(read), &src_host, &dst_host, dst, bytes]() mutable {
        read->on_read();
        src_host.SendDcn(dst_host.id(), bytes,
                         [read = std::move(read), &dst_host, dst, bytes] {
                           dst_host.pcie(dst).Transfer(
                               bytes, std::move(read->on_landed));
                         });
      });
}

ShardResidency ObjectStore::shard_residency(LogicalBufferId id,
                                            int shard) const {
  auto it = entries_.find(id);
  PW_CHECK(it != entries_.end());
  return it->second.states.at(static_cast<std::size_t>(shard)).residency;
}

bool ObjectStore::HasStalledReservation(int device) const {
  return cluster_->device(device).hbm().HasStalledWaiter();
}

bool ObjectStore::StartSpill(int device) {
  // LRU scan over granted, content-ready, unpinned, HBM-resident shards
  // homed on `device`. std::map iteration makes ties deterministic.
  LogicalBufferId victim_id;
  int victim_shard = -1;
  std::int64_t victim_last_use = 0;
  Bytes victim_bytes = 0;
  for (auto& [id, entry] : entries_) {
    for (std::size_t i = 0; i < entry.shards.size(); ++i) {
      const ShardBuffer& sb = entry.shards[i];
      const ShardState& st = entry.states[i];
      if (static_cast<int>(sb.device.value()) != device) continue;
      if (!st.granted || !st.content_ready || st.pins > 0 ||
          st.residency != ShardResidency::kHbm || sb.bytes <= 0) {
        continue;
      }
      if (victim_shard < 0 || st.last_use_ns < victim_last_use) {
        victim_id = id;
        victim_shard = static_cast<int>(i);
        victim_last_use = st.last_use_ns;
        victim_bytes = sb.bytes;
      }
    }
  }
  if (victim_shard < 0) return false;
  const hw::DeviceId dev(device);
  hw::Host& host = cluster_->host_of(dev);
  if (!host.dram().TryAllocate(victim_bytes)) return false;  // DRAM exhausted
  Entry& entry = entries_.at(victim_id);
  entry.states[static_cast<std::size_t>(victim_shard)].residency =
      ShardResidency::kSpillingOut;
  // Device→host page-out over the device's PCIe link; HBM frees when the
  // last byte lands in DRAM. Readers arriving mid-flight still source from
  // the (intact) HBM copy.
  host.pcie(dev).Transfer(
      victim_bytes, [this, id = victim_id, shard = victim_shard, dev,
                     bytes = victim_bytes, device] {
        auto it = entries_.find(id);
        if (it == entries_.end()) {
          // Buffer died mid-spill: Drop already returned the HBM side;
          // the DRAM destination is ours to give back.
          cluster_->host_of(dev).dram().Free(bytes);
        } else {
          Entry& e = it->second;
          ShardState& st = e.states[static_cast<std::size_t>(shard)];
          PW_CHECK(st.residency == ShardResidency::kSpillingOut);
          if (st.pins > 0 || e.shards[static_cast<std::size_t>(shard)].bytes != bytes) {
            // Two reasons to abandon rather than complete: a reader pinned
            // the shard mid-migration and is sourcing from the (intact) HBM
            // copy, or the shard *grew* under the migration (KV append) so
            // the DRAM copy no longer covers it. Either way the HBM copy is
            // authoritative; free the DRAM destination and let a surviving
            // stall re-kick the spiller, which then picks elsewhere (or
            // re-picks this shard at its new size).
            st.residency = ShardResidency::kHbm;
            cluster_->host_of(dev).dram().Free(bytes);
          } else {
            st.residency = ShardResidency::kHostDram;
            ++spills_completed_;
            spilled_bytes_total_ += bytes;
            cluster_->device(dev).hbm().Free(bytes);  // serves waiters
          }
        }
        if (spiller_ != nullptr) spiller_->OnSpillComplete(device);
      });
  return true;
}

std::string ObjectStore::DescribeReservationCycle() const {
  // Build the wait-for graph across every device: a stalled front waiter's
  // entity waits on every entity holding granted memory on that device.
  memory::WaitForGraph graph;
  std::map<std::int64_t, std::string> names;
  for (int d = 0; d < cluster_->num_devices(); ++d) {
    const hw::HbmAllocator& hbm = cluster_->device(d).hbm();
    if (!hbm.HasStalledWaiter()) continue;
    const hw::MemoryTicket waiting = hbm.front_waiter_ticket();
    auto tick_it = tickets_.find(waiting);
    if (tick_it == tickets_.end()) continue;  // unattributable waiter
    const std::int64_t waiter_entity = tick_it->second.entity;
    names[waiter_entity] = LabelOf(tick_it->second);
    std::ostringstream label;
    label << "dev" << d << " HBM";
    for (const auto& [id, entry] : entries_) {
      bool holds = false;
      for (std::size_t i = 0; i < entry.shards.size(); ++i) {
        if (static_cast<int>(entry.shards[i].device.value()) == d &&
            entry.states[i].granted &&
            entry.states[i].residency != ShardResidency::kHostDram) {
          holds = true;
          break;
        }
      }
      if (!holds) continue;
      const std::int64_t holder = EntityOf(entry.producer, id);
      if (holder == waiter_entity) continue;
      std::ostringstream holder_name;
      if (entry.producer.valid()) {
        holder_name << "exec " << entry.producer.value();
      } else {
        holder_name << "buffer " << id;
      }
      names[holder] = holder_name.str();
      graph.AddEdge(waiter_entity, holder, label.str());
    }
  }
  return graph.DescribeCycle(names);
}

void ObjectStore::CheckNoReservationWedge() const {
  bool stalled = false;
  std::ostringstream reasons;
  for (int d = 0; d < cluster_->num_devices(); ++d) {
    const std::string reason = BlockedReservationReason(hw::DeviceId(d));
    if (reason.empty()) continue;
    if (stalled) reasons << "; ";
    stalled = true;
    reasons << reason;
  }
  if (!stalled) return;
  const std::string cycle = DescribeReservationCycle();
  PW_CHECK(false) << "HBM reservation wedge at quiescence: "
                  << (cycle.empty() ? reasons.str()
                                    : "cycle " + cycle + " (" + reasons.str() +
                                          ")");
}

std::string ObjectStore::BlockedReservationReason(hw::DeviceId device) const {
  const hw::HbmAllocator& hbm = cluster_->device(device).hbm();
  if (!hbm.HasStalledWaiter()) return "";
  std::ostringstream os;
  os << "dev" << device.value() << " HBM: " << hbm.waiters()
     << " stalled reservation(s); front " << TicketName(hbm.front_waiter_ticket())
     << " wants " << hbm.front_waiter_bytes() << " B (" << hbm.available()
     << " B free)";
  // Name the holders so the operator sees who to blame.
  bool first = true;
  for (const auto& [id, entry] : entries_) {
    for (std::size_t i = 0; i < entry.shards.size(); ++i) {
      if (entry.shards[i].device != device || !entry.states[i].granted ||
          entry.states[i].residency == ShardResidency::kHostDram) {
        continue;
      }
      os << (first ? "; holders: " : ", ");
      first = false;
      if (entry.producer.valid()) {
        os << "exec " << entry.producer.value();
      } else {
        os << "buffer " << id;
      }
      os << " (" << entry.shards[i].bytes << " B)";
      break;  // one line per buffer
    }
  }
  return os.str();
}

void ObjectStore::AddRef(LogicalBufferId id) {
  auto it = entries_.find(id);
  PW_CHECK(it != entries_.end()) << "AddRef on unknown buffer " << id;
  ++it->second.refcount;
}

void ObjectStore::Release(LogicalBufferId id) {
  auto it = entries_.find(id);
  PW_CHECK(it != entries_.end()) << "Release on unknown buffer " << id;
  if (--it->second.refcount > 0) return;
  Drop(it);
}

int ObjectStore::ReleaseAllForOwner(ClientId owner) {
  int collected = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.owner == owner) {
      it = Drop(it);
      ++collected;
    } else {
      ++it;
    }
  }
  return collected;
}

int ObjectStore::ReleaseAllForProducer(ExecutionId producer) {
  int collected = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.producer == producer) {
      it = Drop(it);
      ++collected;
    } else {
      ++it;
    }
  }
  return collected;
}

Bytes ObjectStore::shard_bytes(LogicalBufferId id, int shard) const {
  auto it = entries_.find(id);
  PW_CHECK(it != entries_.end());
  return it->second.shards.at(static_cast<std::size_t>(shard)).bytes;
}

int ObjectStore::refcount(LogicalBufferId id) const {
  auto it = entries_.find(id);
  PW_CHECK(it != entries_.end());
  return it->second.refcount;
}

Bytes ObjectStore::logical_live_bytes(hw::DeviceId device) const {
  auto it = logical_live_.find(static_cast<int>(device.value()));
  return it == logical_live_.end() ? 0 : it->second;
}

Bytes ObjectStore::logical_peak_bytes(hw::DeviceId device) const {
  auto it = logical_peak_.find(static_cast<int>(device.value()));
  return it == logical_peak_.end() ? 0 : it->second;
}

std::string ObjectStore::DumpShardStates() const {
  std::ostringstream os;
  for (const auto& [id, entry] : entries_) {
    for (std::size_t i = 0; i < entry.shards.size(); ++i) {
      const ShardBuffer& sb = entry.shards[i];
      const ShardState& st = entry.states[i];
      const char* res = "hbm";
      switch (st.residency) {
        case ShardResidency::kHbm: res = "hbm"; break;
        case ShardResidency::kSpillingOut: res = "spilling"; break;
        case ShardResidency::kHostDram: res = "dram"; break;
      }
      os << "buffer " << id << "/" << i << " producer=" << entry.producer
         << " ticket=" << entry.ticket << " dev" << sb.device.value() << " "
         << sb.bytes << "B requested=" << st.requested
         << " granted=" << st.granted << " ready=" << st.content_ready
         << " residency=" << res << " pins=" << st.pins
         << " last_use=" << st.last_use_ns << "ns\n";
    }
  }
  return os.str();
}

ObjectStore::EntryMap::iterator ObjectStore::Drop(EntryMap::iterator it) {
  const Entry entry = std::move(it->second);
  it = entries_.erase(it);
  // Retire the buffer's ticket from the diagnostics registry (for gang
  // tickets the owning execution also does this — FinishTicket is an
  // idempotent erase). Without it, every staged buffer of a long serving
  // run would leak one registry entry.
  FinishTicket(entry.ticket);
  for (std::size_t i = 0; i < entry.shards.size(); ++i) {
    const ShardBuffer& s = entry.shards[i];
    const ShardState& st = entry.states[i];
    if (!st.granted) continue;
    switch (st.residency) {
      case ShardResidency::kHbm:
        cluster_->device(s.device).hbm().Free(s.bytes);
        break;
      case ShardResidency::kSpillingOut:
        // We hold both sides mid-flight: the HBM source is ours to free,
        // the DRAM destination belongs to the in-flight migration (which
        // will find the entry gone).
        cluster_->device(s.device).hbm().Free(s.bytes);
        break;
      case ShardResidency::kHostDram:
        cluster_->host_of(s.device).dram().Free(s.bytes);
        // DRAM headroom returned; see TryRestoreShard.
        for (const hw::Device* dev : cluster_->host_of(s.device).devices()) {
          MaybeKickSpiller(dev->id());
        }
        break;
    }
    const int d = static_cast<int>(s.device.value());
    logical_live_[d] -= s.bytes;
  }
  return it;
}

}  // namespace pw::pathways
