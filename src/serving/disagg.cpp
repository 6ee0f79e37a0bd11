#include "serving/disagg.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "hw/cluster.h"
#include "pathways/runtime.h"

namespace pw::serving {

struct DisaggRouter::Transfer {
  Request req;
  int prefill_index = 0;
  int decode_index = 0;
  Batcher* src = nullptr;
  Batcher* dst = nullptr;
  // Failure epochs (sum of Device::failures() over the handle's physical
  // shards) at handoff (src) / transfer start (dst); any crash on either
  // slice while the KV is in flight moves one of them.
  std::int64_t src_epoch = 0;
  std::int64_t dst_epoch = 0;
  Bytes inflight_charge = 0;   // prompt KV per dst shard (unready bytes)
  Bytes committed_charge = 0;  // projected full KV per dst shard
  int pieces_outstanding = 0;
};

DisaggRouter::DisaggRouter(std::vector<Batcher*> prefill,
                           std::vector<Batcher*> decode,
                           ServingMetrics* metrics, ServingTrace* trace)
    : prefill_(std::move(prefill)),
      decode_(std::move(decode)),
      metrics_(metrics),
      trace_(trace) {
  PW_CHECK(!prefill_.empty());
  PW_CHECK(!decode_.empty());
  PW_CHECK(metrics_ != nullptr);
  pathways::PathwaysRuntime& runtime = prefill_.front()->client()->runtime();
  sim_ = &runtime.simulator();
  cluster_ = &runtime.cluster();
  inflight_per_shard_.assign(decode_.size(), 0);
  committed_per_shard_.assign(decode_.size(), 0);
  for (std::size_t i = 0; i < prefill_.size(); ++i) {
    Batcher* b = prefill_[i];
    PW_CHECK(b->config().role == BatcherRole::kPrefill);
    b->set_handoff([this, i](Request req) {
      OnPrefillDone(static_cast<int>(i), std::move(req));
    });
  }
  for (Batcher* b : decode_) {
    PW_CHECK(b->config().role == BatcherRole::kDecode);
    b->set_abort_return([this](Request req) { OnDecodeAbort(std::move(req)); });
    b->set_on_capacity([this] { StartNextTransfers(); });
  }
}

void DisaggRouter::Trace(const char* kind, std::int64_t request,
                         std::int64_t detail) {
  if (trace_ == nullptr) return;
  trace_->Record(sim_->now().nanos(), kind, request, detail);
}

Bytes DisaggRouter::DecodeFloor(const Batcher& dst) const {
  return dst.hbm_floor() - dst.StagingPerShard();
}

std::int64_t DisaggRouter::FailureEpoch(const Batcher& batcher,
                                        std::int64_t seq) const {
  std::int64_t epoch = 0;
  for (const auto& shard : batcher.kv().handle(seq).shards) {
    epoch += cluster_->device(shard.device).failures();
  }
  return epoch;
}

bool DisaggRouter::AnyDeviceFailed(const Batcher& batcher,
                                   std::int64_t seq) const {
  for (const auto& shard : batcher.kv().handle(seq).shards) {
    if (cluster_->device(shard.device).failed()) return true;
  }
  return false;
}

bool DisaggRouter::CanEverDecode(const Batcher& dst, const Request& req) const {
  const Bytes budget = dst.config().kv_budget_per_device;
  return (budget == 0 ||
          dst.kv().BytesForTokens(req.max_kv_tokens()) <= budget) &&
         dst.kv().BytesForTokens(req.prefill_tokens) <= DecodeFloor(dst);
}

Batcher* DisaggRouter::ShortestPrefillQueue() const {
  // Ties go to the lowest index, keeping the choice deterministic.
  Batcher* best = prefill_.front();
  for (Batcher* b : prefill_) {
    if (b->queue_depth() < best->queue_depth()) best = b;
  }
  return best;
}

bool DisaggRouter::Offer(Request req) {
  // A request that could never satisfy the decode-side bounds on ANY decode
  // island would prefill and then wedge the handoff FIFO forever; shed it
  // before it costs prefill work.
  const bool decode_possible =
      std::any_of(decode_.begin(), decode_.end(),
                  [&](const Batcher* dst) { return CanEverDecode(*dst, req); });
  if (!decode_possible) {
    metrics_->OnArrival();
    metrics_->OnShed();
    ++shed_;
    Trace("arrive", req.id, req.prefill_tokens);
    Trace("shed", req.id, 2);
    return false;
  }
  return ShortestPrefillQueue()->Offer(std::move(req));
}

void DisaggRouter::OnPrefillDone(int prefill_index, Request req) {
  PendingHandoff pending;
  pending.prefill_index = prefill_index;
  pending.src_epoch = FailureEpoch(*prefill_[prefill_index], req.id);
  Trace("handoff", req.id, req.prefill_tokens);
  pending.req = std::move(req);
  pending_.push_back(std::move(pending));
  StartNextTransfers();
}

void DisaggRouter::OnDecodeAbort(Request req) {
  // The decode batcher already released the request's KV, bumped attempts,
  // and traced the requeue; it only needs a fresh prefill now.
  ReturnForPrefill(std::move(req));
  StartNextTransfers();
}

void DisaggRouter::ReturnForPrefill(Request req) {
  ++reprefills_;
  ShortestPrefillQueue()->Requeue(std::move(req));
}

void DisaggRouter::StartNextTransfers() {
  // FIFO over finished prefills: the head transfer starts as soon as the
  // best decode island can take its bytes; a blocked head blocks the line
  // (deterministic, and the retry points — transfer completion, decode
  // finish, decode abort — all re-enter here).
  while (!pending_.empty()) {
    const Request& req = pending_.front().req;
    int best = -1;
    Bytes best_committed = 0;
    for (std::size_t d = 0; d < decode_.size(); ++d) {
      const Batcher* dst = decode_[d];
      if (!CanEverDecode(*dst, req)) continue;
      const Bytes committed =
          committed_per_shard_[d] + dst->projected_per_shard();
      if (best < 0 || committed < best_committed) {
        best = static_cast<int>(d);
        best_committed = committed;
      }
    }
    PW_CHECK_GE(best, 0) << "offer-time shed should have caught req " << req.id;
    Batcher* dst = decode_[static_cast<std::size_t>(best)];
    const Bytes prompt = dst->kv().BytesForTokens(req.prefill_tokens);
    const Bytes projected = dst->kv().BytesForTokens(req.max_kv_tokens());
    const Bytes budget = dst->config().kv_budget_per_device;
    // Throttle 1: in-flight KV is not content-ready on the decode island,
    // hence unspillable — it must fit in physical HBM beside the decode
    // iteration's staging (the cross-island fresh-prompt floor).
    if (inflight_per_shard_[static_cast<std::size_t>(best)] > 0 &&
        inflight_per_shard_[static_cast<std::size_t>(best)] + prompt >
            DecodeFloor(*dst)) {
      return;
    }
    // Throttle 2: everything committed to the island — in flight, queued,
    // running, all at projected full length — stays within the KV budget,
    // so decode-side live KV can never exceed it.
    if (budget > 0 && best_committed > 0 && best_committed + projected > budget) {
      return;
    }
    PendingHandoff pending = std::move(pending_.front());
    pending_.pop_front();

    auto t = std::make_shared<Transfer>();
    t->req = std::move(pending.req);
    t->prefill_index = pending.prefill_index;
    t->decode_index = best;
    t->src = prefill_[static_cast<std::size_t>(pending.prefill_index)];
    t->dst = dst;
    t->src_epoch = pending.src_epoch;
    t->inflight_charge = prompt;
    t->committed_charge = projected;
    inflight_per_shard_[static_cast<std::size_t>(best)] += prompt;
    committed_per_shard_[static_cast<std::size_t>(best)] += projected;
    peak_inflight_per_shard_ =
        std::max(peak_inflight_per_shard_,
                 inflight_per_shard_[static_cast<std::size_t>(best)]);
    ++inflight_;
    ++transfers_started_;

    // Reserve the decode-side buffer through the store's ticket-ordered
    // eager path; cold resident KV spills to make room if needed. Streaming
    // starts only once every dst shard's reservation is granted.
    sim::SimFuture<sim::Unit> ready = dst->kv().CreateSequence(
        t->req.id, dst->slice(), t->req.prefill_tokens);
    t->dst_epoch = FailureEpoch(*dst, t->req.id);
    Trace("kv_send", t->req.id,
          prompt * static_cast<Bytes>(
                       dst->kv().handle(t->req.id).num_shards()));
    ready.Then([this, t](const sim::Unit&) { StreamPieces(t); });
  }
}

void DisaggRouter::StreamPieces(const std::shared_ptr<Transfer>& t) {
  // Reshard P prefill-island shards into D decode-island shards: every
  // (src, dst) pair carries its piece of the prompt's KV, each piece riding
  // src PCIe (or the DRAM read-through if the shard was spilled) → DCN →
  // dst PCIe. Byte totals are defined by the destination layout so the
  // bytes landing per dst shard equal the created buffer exactly.
  const auto& src_h = t->src->kv().handle(t->req.id);
  const auto& dst_h = t->dst->kv().handle(t->req.id);
  const int num_src = src_h.num_shards();
  const int num_dst = dst_h.num_shards();
  const Bytes total = t->inflight_charge * static_cast<Bytes>(num_dst);
  const int pieces = num_src * num_dst;
  t->pieces_outstanding = pieces;
  const Bytes base = total / pieces;
  const Bytes remainder = total % pieces;
  for (int k = 0; k < pieces; ++k) {
    const Bytes piece = base + (k < remainder ? 1 : 0);
    SendPiece(t, k / num_dst, k % num_dst, piece);
  }
}

void DisaggRouter::SendPiece(const std::shared_ptr<Transfer>& t, int src_shard,
                             int dst_shard, Bytes bytes) {
  pathways::ObjectStore& store =
      t->src->client()->runtime().object_store();
  const auto& src_h = t->src->kv().handle(t->req.id);
  const auto& dst_h = t->dst->kv().handle(t->req.id);
  const pathways::LogicalBufferId src_buf = src_h.id;
  // Pin the source shard while it is being read; the store picks the route
  // (DRAM read-through if spilled, else PCIe → DCN → PCIe). UnpinShard is
  // refcounted and a no-op on released buffers, so failure cleanup cannot
  // race the unpins.
  store.PinShard(src_buf, src_shard);
  store.ReadShard(
      src_buf, src_shard,
      src_h.shards[static_cast<std::size_t>(src_shard)].device,
      dst_h.shards[static_cast<std::size_t>(dst_shard)].device, bytes,
      [store = &store, src_buf, src_shard] {
        store->UnpinShard(src_buf, src_shard);
      },
      [this, t, bytes] {
        bytes_transferred_ += bytes;
        if (--t->pieces_outstanding == 0) FinishTransfer(t);
      });
}

void DisaggRouter::FinishTransfer(const std::shared_ptr<Transfer>& t) {
  const std::size_t d = static_cast<std::size_t>(t->decode_index);
  --inflight_;
  inflight_per_shard_[d] -= t->inflight_charge;
  // Crash detection across the whole handoff window: any failure on either
  // slice since the snapshots means some piece was computed from — or
  // landed on — a device that lost its HBM. The data cannot be trusted;
  // release both islands' copies (no orphaned shards) and re-prefill from
  // the request, exactly the PR-3 failover shape.
  const bool failed =
      FailureEpoch(*t->src, t->req.id) != t->src_epoch ||
      FailureEpoch(*t->dst, t->req.id) != t->dst_epoch ||
      AnyDeviceFailed(*t->src, t->req.id) || AnyDeviceFailed(*t->dst, t->req.id);
  if (!failed) {
    ++transfers_completed_;
    committed_per_shard_[d] -= t->committed_charge;
    t->dst->kv().MarkReady(t->req.id);
    Trace("kv_ready", t->req.id, t->req.prefill_tokens);
    t->src->ReleaseHandoff(t->req.id);
    t->req.state = RequestState::kQueued;
    // The committed charge re-appears inside the decode batcher's
    // projection the moment EnqueueResident charges it (same event).
    t->dst->EnqueueResident(std::move(t->req));
  } else {
    ++transfers_failed_;
    committed_per_shard_[d] -= t->committed_charge;
    Trace("kv_fail", t->req.id, t->req.attempts);
    if (t->dst->kv().Contains(t->req.id)) t->dst->kv().Release(t->req.id);
    t->src->ReleaseHandoff(t->req.id);
    t->req.tokens_decoded = 0;
    ++t->req.attempts;
    Trace("requeue", t->req.id, t->req.attempts);
    ReturnForPrefill(std::move(t->req));
  }
  StartNextTransfers();
}

bool DisaggRouter::idle() const {
  if (!pending_.empty() || inflight_ != 0) return false;
  for (const Batcher* b : prefill_) {
    if (!b->idle()) return false;
  }
  for (const Batcher* b : decode_) {
    if (!b->idle()) return false;
  }
  return true;
}

}  // namespace pw::serving
