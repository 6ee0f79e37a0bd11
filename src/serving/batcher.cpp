#include "serving/batcher.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "pathways/runtime.h"

namespace pw::serving {
namespace {

// Backoff between consecutive aborted iterations (waits out a crash window
// the resource manager could not remap around).
const pathways::RetryPolicy kAbortBackoff{};

}  // namespace

const char* ToString(BatchPolicy policy) {
  switch (policy) {
    case BatchPolicy::kContinuous: return "continuous";
    case BatchPolicy::kStatic: return "static";
  }
  return "unknown";
}

const char* ToString(BatcherRole role) {
  switch (role) {
    case BatcherRole::kColocated: return "colocated";
    case BatcherRole::kPrefill: return "prefill";
    case BatcherRole::kDecode: return "decode";
  }
  return "unknown";
}

const char* ToString(RequestState state) {
  switch (state) {
    case RequestState::kQueued: return "queued";
    case RequestState::kPrefill: return "prefill";
    case RequestState::kTransferKv: return "transfer_kv";
    case RequestState::kDecoding: return "decoding";
    case RequestState::kFinished: return "finished";
    case RequestState::kShed: return "shed";
  }
  return "unknown";
}

Batcher::Batcher(pathways::Client* client, pathways::VirtualSlice slice,
                 KvCacheConfig kv_config, BatcherConfig config,
                 ServingMetrics* metrics, ServingTrace* trace)
    : client_(client),
      slice_(std::move(slice)),
      config_(config),
      kv_(&client->runtime(), client->id(), kv_config),
      metrics_(metrics),
      trace_(trace),
      sim_(&client->runtime().simulator()) {
  PW_CHECK(metrics_ != nullptr);
  PW_CHECK_GT(config_.max_batch, 0);
  PW_CHECK_GT(config_.token_budget, 0);
  PW_CHECK_GE(config_.kv_budget_per_device, 0);
  // Disaggregated islands only make sense with iteration-boundary
  // admission; the static drain-then-refill baseline stays colocated.
  if (config_.role != BatcherRole::kColocated) {
    PW_CHECK(config_.policy == BatchPolicy::kContinuous)
        << "disaggregated batchers require kContinuous";
  }
  // Physical floor for the fresh-prompt admission bound (see header):
  // freshly admitted KV is not yet content-ready, hence not spillable, and
  // must fit in HBM beside the iteration's own staging.
  hbm_floor_ = -1;
  for (const pathways::VirtualDevice& vdev : slice_.devices) {
    const hw::DeviceId dev = client_->runtime().resource_manager().Lookup(vdev.id);
    const Bytes cap = client_->runtime().cluster().device(dev).hbm().capacity();
    if (hbm_floor_ < 0 || cap < hbm_floor_) hbm_floor_ = cap;
  }
  PW_CHECK_GT(hbm_floor_, StagingPerShard())
      << "HBM cannot even hold the iteration staging";
}

Bytes Batcher::StagingPerShard() const {
  return config_.activation_bytes_per_shard + config_.output_bytes_per_shard;
}

void Batcher::Trace(const char* kind, std::int64_t request,
                    std::int64_t detail) {
  if (trace_ == nullptr) return;
  trace_->Record(sim_->now().nanos(), kind, request, detail);
}

bool Batcher::Offer(Request req) {
  PW_CHECK(config_.role != BatcherRole::kDecode)
      << "decode islands admit via EnqueueResident only";
  metrics_->OnArrival();
  Trace("arrive", req.id, req.prefill_tokens);
  // A request whose projected full KV alone exceeds the budget — or whose
  // prompt KV cannot sit in HBM beside the iteration staging — could never
  // be admitted; shedding it now keeps the queue head live.
  const bool oversized =
      (config_.kv_budget_per_device > 0 &&
       ProjectedPerShard(req) > config_.kv_budget_per_device) ||
      kv_.BytesForTokens(req.prefill_tokens) + StagingPerShard() > hbm_floor_;
  if (oversized || queue_.size() >= config_.queue_capacity) {
    req.state = RequestState::kShed;
    ++shed_;
    metrics_->OnShed();
    Trace("shed", req.id, oversized ? 1 : 0);
    return false;
  }
  req.state = RequestState::kQueued;
  queue_.push_back(std::move(req));
  MaybeStartIteration();
  return true;
}

void Batcher::EnqueueResident(Request req) {
  PW_CHECK(config_.role == BatcherRole::kDecode);
  PW_CHECK(kv_.Contains(req.id)) << "KV must be resident before enqueue";
  // Charge the projected *full* KV from enqueue (not admission): queued
  // sequences are resident here and will grow to max_kv_tokens, so the
  // router's budget throttle sees every byte this island is committed to.
  batch_projected_per_shard_ += ProjectedPerShard(req);
  req.state = RequestState::kQueued;
  Trace("enqueue", req.id, req.attempts);
  queue_.push_back(std::move(req));
  MaybeStartIteration();
}

void Batcher::Requeue(Request req) {
  PW_CHECK(config_.role != BatcherRole::kDecode);
  req.state = RequestState::kQueued;
  req.tokens_decoded = 0;
  queue_.push_front(std::move(req));
  MaybeStartIteration();
}

void Batcher::ReleaseHandoff(std::int64_t seq) {
  PW_CHECK(config_.role == BatcherRole::kPrefill);
  if (!kv_.Contains(seq)) return;  // crash already released it (HandleAbort)
  batch_projected_per_shard_ -= kv_.BytesForTokens(kv_.tokens_of(seq));
  kv_.Release(seq);
  // The freed projection may unblock queued admissions the fresh-prompt
  // floor was holding back while this KV awaited its transfer.
  MaybeStartIteration();
}

void Batcher::MaybeStartIteration() {
  if (iteration_inflight_) return;
  if (running_.empty() && queue_.empty()) return;
  StartIteration();
}

void Batcher::AdmitFromQueue() {
  if (config_.role == BatcherRole::kDecode) {
    // Decode island: every queued request's KV is already resident and
    // content-ready here (router-gated), so admission costs one token per
    // sequence and the KV budget was enforced by the router before the
    // bytes ever crossed the DCN.
    int budget_used = static_cast<int>(running_.size());
    while (!queue_.empty() &&
           static_cast<int>(running_.size()) < config_.max_batch &&
           budget_used + 1 <= config_.token_budget) {
      Request req = std::move(queue_.front());
      queue_.pop_front();
      PW_CHECK(kv_.Contains(req.id));
      req.state = RequestState::kDecoding;  // projection charged at enqueue
      Trace("admit", req.id, req.prefill_tokens);
      const std::int64_t id = req.id;
      running_.emplace(id, std::move(req));
      ++budget_used;
    }
    return;
  }
  // Continuous batching admits at every iteration boundary; the static
  // baseline only refills once the previous batch fully drained.
  if (config_.policy == BatchPolicy::kStatic && !running_.empty()) return;
  int budget_used = 0;
  for (const auto& [id, r] : running_) {
    if (r.state == RequestState::kDecoding) ++budget_used;
  }
  int admitted = 0;
  Bytes fresh_kv = 0;  // prompt KV admitted at THIS boundary, per shard
  while (!queue_.empty() &&
         static_cast<int>(running_.size()) < config_.max_batch) {
    Request& head = queue_.front();
    const bool fits_tokens =
        budget_used + head.prefill_tokens <= config_.token_budget;
    // A prompt alone bigger than the whole budget would never fit; let it
    // through (once, first) rather than wedge the queue head forever.
    const bool never_fits = head.prefill_tokens > config_.token_budget;
    if (!fits_tokens && !(never_fits && admitted == 0)) break;
    if (config_.kv_budget_per_device > 0 &&
        batch_projected_per_shard_ + ProjectedPerShard(head) >
            config_.kv_budget_per_device) {
      break;  // blocks until running sequences finish and release KV
    }
    // Fresh prompt KV is written by the upcoming prefill pass, so it is
    // not content-ready and cannot spill: it must fit in physical HBM
    // beside the iteration's staging. Without this bound an all-prefill
    // batch can pack HBM with unspillable KV and wedge its own staging
    // reservation. Previously-admitted sequences are content-ready (hence
    // evictable) by the next boundary and don't count against the floor.
    const Bytes head_kv = kv_.BytesForTokens(head.prefill_tokens);
    if (fresh_kv + head_kv + StagingPerShard() > hbm_floor_) break;
    fresh_kv += head_kv;
    Request req = std::move(head);
    queue_.pop_front();
    req.state = RequestState::kPrefill;
    budget_used += req.prefill_tokens;
    batch_projected_per_shard_ += ProjectedPerShard(req);
    kv_.CreateSequence(req.id, slice_, req.prefill_tokens);
    Trace("admit", req.id, req.prefill_tokens);
    const std::int64_t id = req.id;
    running_.emplace(id, std::move(req));
    ++admitted;
  }
}

void Batcher::StartIteration() {
  iteration_inflight_ = true;
  AdmitFromQueue();
  if (running_.empty()) {
    // Everything waiting is blocked on the KV budget with nothing running —
    // impossible by construction (oversized requests shed at offer time),
    // but stay safe rather than dispatch an empty gang.
    iteration_inflight_ = false;
    return;
  }
  ++iterations_;

  int decoding = 0;
  std::int64_t prefill_toks = 0;
  for (const auto& [id, r] : running_) {
    if (r.state == RequestState::kDecoding) {
      ++decoding;
    } else {
      prefill_toks += r.prefill_tokens;
    }
  }

  xlasim::CompiledFunction fn;
  fn.name = "serve_iter";
  fn.num_shards = slice_.num_devices();
  fn.pre_collective_time = config_.iteration_base +
                           config_.prefill_per_token * prefill_toks +
                           config_.decode_per_token * decoding;
  fn.collective = net::CollectiveKind::kAllReduce;
  fn.collective_bytes_per_shard = config_.collective_bytes_per_shard;
  fn.input_bytes_per_shard = config_.activation_bytes_per_shard;
  fn.output_bytes_per_shard = config_.output_bytes_per_shard;

  // One gang node; every running sequence's KV buffer is an argument, so a
  // paged-out shard pays its host-DRAM read-through (and opportunistic
  // restore) on the wire like any other operand, while resident same-device
  // shards hand off in place for free. The execution pins each shard only
  // while it reads it — the batcher holds no pins of its own, keeping the
  // batch's cold KV spillable mid-iteration (see header).
  pathways::ProgramBuilder pb("serve_iter");
  std::vector<pathways::ValueRef> ins;
  std::vector<pathways::ShardedBuffer> args;
  ins.reserve(running_.size());
  args.reserve(running_.size());
  for (const auto& [id, r] : running_) {
    ins.push_back(pb.Argument());
    args.push_back(kv_.handle(id));
  }
  pb.Result(pb.Call(fn, slice_, ins));
  current_program_ =
      std::make_unique<pathways::PathwaysProgram>(std::move(pb).Build());
  client_->Run(current_program_.get(), std::move(args))
      .Then([this](const pathways::ExecutionResult& r) { OnIterationDone(r); });
}

void Batcher::OnIterationDone(const pathways::ExecutionResult& result) {
  for (const auto& out : result.outputs) {
    client_->runtime().object_store().Release(out.id);
  }
  if (result.failed) {
    HandleAbort();
    return;
  }
  consecutive_aborts_ = 0;
  const TimePoint now = sim_->now();
  int finished_this_iteration = 0;
  std::vector<Request> handed_off;
  grow_ids_.clear();
  for (auto it = running_.begin(); it != running_.end();) {
    Request& req = it->second;
    if (req.state == RequestState::kPrefill) {
      // The prefill pass wrote the prompt's KV. Colocated it also emitted
      // the first output token; on a prefill island it emits none — the
      // sequence leaves the batch for the router's cross-island transfer,
      // with its KV (and projection charge) staying on this island until
      // the router calls ReleaseHandoff.
      kv_.MarkReady(req.id);
      req.prefill_done_at = now;
      if (config_.role == BatcherRole::kPrefill) {
        req.state = RequestState::kTransferKv;
        metrics_->OnPrefillDone(now - req.arrival);
        Trace("prefill", req.id, req.prefill_tokens);
        ++handoffs_;
        handed_off.push_back(std::move(req));
        it = running_.erase(it);
        continue;
      }
      req.state = RequestState::kDecoding;
      req.tokens_decoded = 1;
      req.first_token_at = now;
      req.last_token_at = now;
      metrics_->OnFirstToken(now - req.arrival);
      Trace("prefill", req.id, req.prefill_tokens);
    } else if (config_.role == BatcherRole::kDecode &&
               req.tokens_decoded == 0) {
      // First decode step after the KV handoff: the prefill island emitted
      // no token, so THIS is the request's first output token — TTFT spans
      // arrival → here, with the DCN transfer and decode queueing included
      // (regression-tested against conflation with prefill completion).
      req.tokens_decoded = 1;
      req.first_token_at = now;
      req.last_token_at = now;
      metrics_->OnFirstToken(now - req.arrival);
      Trace("first_token", req.id, req.attempts);
    } else {
      ++req.tokens_decoded;
      metrics_->OnToken(now - req.last_token_at);
      req.last_token_at = now;
      Trace("token", req.id, req.tokens_decoded);
    }
    if (req.tokens_decoded >= req.decode_tokens) {
      req.state = RequestState::kFinished;
      req.finished_at = now;
      metrics_->OnFinish();
      Trace("finish", req.id, req.tokens_decoded);
      batch_projected_per_shard_ -= ProjectedPerShard(req);
      kv_.Release(req.id);
      ++finished_;
      ++finished_this_iteration;
      it = running_.erase(it);
    } else {
      grow_ids_.push_back(req.id);
      ++it;
    }
  }
  // Hand finished prefills to the router after the batch walk (the callback
  // may synchronously start decode-island work; it never re-enters this
  // batcher's running_ set).
  for (Request& req : handed_off) {
    PW_CHECK(handoff_ != nullptr) << "kPrefill batcher needs set_handoff";
    handoff_(std::move(req));
  }
  // Finished sequences released KV and projection charge: tell the router
  // so transfers throttled on this island's budget can proceed.
  if (finished_this_iteration > 0 && on_capacity_) on_capacity_();
  // One KV token appended per surviving sequence; the next iteration gates
  // on the grants. Appends are chained sequentially: GrowShard self-pins
  // its sequence while the reservation waits, so with one grow in flight
  // at a time every *other* sequence stays an eligible spill victim and
  // the boundary cannot wedge even with HBM packed full of KV.
  GrowNext(0);
}

void Batcher::GrowNext(std::size_t i) {
  if (i == grow_ids_.size()) {
    iteration_inflight_ = false;
    MaybeStartIteration();
    return;
  }
  kv_.Append(grow_ids_[i], 1).Then([this, i](const sim::Unit&) {
    GrowNext(i + 1);
  });
}

void Batcher::HandleAbort() {
  ++aborted_iterations_;
  ++consecutive_aborts_;
  metrics_->OnAbortedIteration();
  Trace("abort", -1, static_cast<std::int64_t>(running_.size()));
  if (config_.role == BatcherRole::kDecode) {
    // Decode-island crash: the KV of every sequence here — running AND
    // queued, all resident on this slice — is gone. Hand the requests back
    // to the router (ascending id order) for a fresh prefill on the
    // prefill island; nothing re-enters this queue directly.
    PW_CHECK(abort_return_ != nullptr) << "kDecode batcher needs set_abort_return";
    std::vector<Request> back;
    back.reserve(running_.size() + queue_.size());
    for (auto& [id, req] : running_) back.push_back(std::move(req));
    running_.clear();
    for (Request& req : queue_) back.push_back(std::move(req));
    queue_.clear();
    // Both running and queued requests were charged at enqueue.
    for (const Request& req : back) {
      batch_projected_per_shard_ -= ProjectedPerShard(req);
    }
    for (Request& req : back) {
      if (kv_.Contains(req.id)) kv_.Release(req.id);
      req.state = RequestState::kQueued;
      req.tokens_decoded = 0;
      ++req.attempts;
      Trace("requeue", req.id, req.attempts);
      abort_return_(std::move(req));
    }
    sim_->Schedule(kAbortBackoff.BackoffFor(consecutive_aborts_), [this] {
      iteration_inflight_ = false;
      MaybeStartIteration();
    });
    return;
  }
  // Every running sequence's KV spans the crashed device: release it all
  // and requeue at the head (reverse order preserves id order up front) for
  // a fresh prefill against the post-remap mapping. On a prefill island,
  // sequences already handed off stay charged — the router's completion
  // check detects the crash epoch and releases both islands' copies.
  for (auto it = running_.rbegin(); it != running_.rend(); ++it) {
    Request& req = it->second;
    batch_projected_per_shard_ -= ProjectedPerShard(req);
    if (kv_.Contains(req.id)) kv_.Release(req.id);
    req.state = RequestState::kQueued;
    req.tokens_decoded = 0;
    ++req.attempts;
    Trace("requeue", req.id, req.attempts);
    queue_.push_front(std::move(req));
  }
  running_.clear();
  // Hold the dispatch loop through a capped exponential backoff so repeated
  // aborts inside one crash window don't spin.
  sim_->Schedule(kAbortBackoff.BackoffFor(consecutive_aborts_), [this] {
    iteration_inflight_ = false;
    MaybeStartIteration();
  });
}

}  // namespace pw::serving
