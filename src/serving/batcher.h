// Iteration-level batching scheduler (docs/SERVING.md).
//
// The batcher turns a stream of requests into a sequence of *iteration
// programs*: each iteration is one gang-scheduled PathwaysProgram on the
// batcher's slice whose arguments are the running sequences' KV-cache
// buffers, so KV paging costs (spill, read-through, restore) ride the
// normal argument-transfer dataflow and compose with faults, admission and
// oversubscription. Two policies:
//
//   * kContinuous — new prefills are admitted into the running batch at
//     every iteration boundary, subject to a per-iteration token budget
//     (each decoding sequence costs one token, an admitted prompt costs
//     its prefill tokens) and a projected-KV budget per device. Finished
//     sequences leave the batch the moment they emit their last token.
//   * kStatic — the classic baseline kept for comparison: a batch is
//     filled only when the previous batch has *fully* drained, so long
//     generations straggle the whole batch.
//
// Deadlock freedom under KV pressure (kv_budget_per_device above free
// HBM, spilling active): the batcher never holds pins across an
// iteration. Argument reads pin each KV shard only for the duration of
// the transfer and read spilled shards straight from host DRAM without
// re-acquiring HBM (the PR-5 read-through path), so mid-iteration
// reservations — staging, outputs — always find the batch's cold KV
// spillable. The boundary appends are chained *sequentially*: each
// GrowShard self-pins only its own sequence while its reservation waits,
// leaving every other sequence a valid spill victim, so the boundary
// makes progress even with HBM packed wall-to-wall with KV. The one kind
// of KV that can NOT spill is a freshly admitted prompt's (its contents
// don't exist until the prefill pass writes them), so admission bounds
// the fresh KV per boundary to physical HBM minus the iteration staging.
// Admission additionally caps the *projected full* KV of the running
// batch (prompt + all future decode appends) at kv_budget_per_device to
// bound paging traffic; a request whose lone projected KV exceeds the
// budget — or whose prompt KV cannot fit beside the staging at all — can
// never run and is shed at offer time.
//
// After an execution abort (device crash mid-iteration) every running
// sequence's KV is released — its shards span the crashed device — and the
// requests re-enter the queue head for a fresh prefill; the next iteration
// re-lowers against the resource manager's post-remap mapping (PR-3 path).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "common/units.h"
#include "pathways/client.h"
#include "serving/kv_cache.h"
#include "serving/metrics.h"
#include "serving/request.h"

namespace pw::serving {

enum class BatchPolicy { kContinuous, kStatic };

const char* ToString(BatchPolicy policy);

// Which half of the serving pipeline this batcher runs (docs/SERVING.md).
//
//   * kColocated — PR-6 behavior: prefill and decode share the slice; the
//     prefill pass emits the first token.
//   * kPrefill — disaggregated prefill island: the prefill pass writes the
//     KV and emits NO token; the finished request is handed to the
//     DisaggRouter (set_handoff) for the cross-island KV transfer, and its
//     KV + projection accounting stay charged to this island until the
//     router calls ReleaseHandoff.
//   * kDecode — disaggregated decode island: requests enter via
//     EnqueueResident only after their KV landed (router-gated), so the
//     queue never holds a sequence whose KV is not resident here. The
//     first decode step emits the request's first output token — that is
//     where TTFT is stamped.
enum class BatcherRole { kColocated, kPrefill, kDecode };

const char* ToString(BatcherRole role);

struct BatcherConfig {
  BatchPolicy policy = BatchPolicy::kContinuous;
  BatcherRole role = BatcherRole::kColocated;
  int max_batch = 8;        // sequences running concurrently
  int token_budget = 512;   // per-iteration: decoders (1 each) + prompts
  // Cap on the running batch's projected full KV per device shard;
  // 0 = uncapped. Must leave HBM headroom for activations + outputs.
  Bytes kv_budget_per_device = 0;
  // Waiting requests; overflow sheds. An option although no scenario sets
  // it: the overflow shed reads it and the serving tests shrink it to reach
  // that path.
  std::size_t queue_capacity = 64;

  // Iteration kernel cost model.
  Duration iteration_base = Duration::Micros(40);
  Duration prefill_per_token = Duration::Nanos(300);
  Duration decode_per_token = Duration::Micros(1);  // per decoding sequence
  Bytes activation_bytes_per_shard = KiB(256);
  Bytes output_bytes_per_shard = KiB(32);
  // Per-iteration tensor-parallel AllReduce (exercises gang semantics).
  Bytes collective_bytes_per_shard = KiB(16);
};

class Batcher {
 public:
  Batcher(pathways::Client* client, pathways::VirtualSlice slice,
          KvCacheConfig kv_config, BatcherConfig config,
          ServingMetrics* metrics, ServingTrace* trace = nullptr);

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  // One request arriving now. Returns false iff it was shed on the spot
  // (queue overflow, or its projected KV alone exceeds the budget). Not
  // valid on a kDecode batcher — decode entry is EnqueueResident.
  bool Offer(Request req);

  // --- Disaggregation surface (used by DisaggRouter, serving/disagg.h) ---
  // kPrefill: receives each request the moment its prefill pass completed;
  // the request's KV stays live (and charged) here until ReleaseHandoff.
  void set_handoff(std::function<void(Request)> fn) { handoff_ = std::move(fn); }
  // kDecode: receives every running/queued request after an execution
  // abort — their KV on this island is gone; the router re-prefills them.
  void set_abort_return(std::function<void(Request)> fn) {
    abort_return_ = std::move(fn);
  }
  // kDecode: fires whenever finished sequences release KV budget, so the
  // router can unthrottle pending cross-island transfers.
  void set_on_capacity(std::function<void()> fn) {
    on_capacity_ = std::move(fn);
  }
  // kDecode: admit a request whose KV the router already created AND marked
  // content-ready in this batcher's kv(). Never sheds: the router bounds
  // what it transfers by this island's KV budget, and resident KV must not
  // be dropped silently.
  void EnqueueResident(Request req);
  // kColocated/kPrefill: put a router-returned request back at the queue
  // head for a fresh prefill (crash-mid-transfer / decode-island abort).
  void Requeue(Request req);
  // kPrefill: the router took ownership of the handed-off sequence's bytes
  // (KV landed on the decode island, or the transfer failed) — release the
  // prefill-island copy and its projection charge.
  void ReleaseHandoff(std::int64_t seq);

  // --- Introspection ---
  std::int64_t iterations() const { return iterations_; }
  std::int64_t finished() const { return finished_; }
  std::int64_t shed() const { return shed_; }
  std::int64_t handoffs() const { return handoffs_; }
  std::int64_t aborted_iterations() const { return aborted_iterations_; }
  int running() const { return static_cast<int>(running_.size()); }
  std::size_t queue_depth() const { return queue_.size(); }
  bool idle() const {
    return !iteration_inflight_ && running_.empty() && queue_.empty();
  }
  KvCache& kv() { return kv_; }
  const KvCache& kv() const { return kv_; }
  const BatcherConfig& config() const { return config_; }
  const pathways::VirtualSlice& slice() const { return slice_; }
  pathways::Client* client() const { return client_; }
  // Projected full KV per shard of everything charged to this island:
  // running batch (+ not-yet-released handoffs on kPrefill; + resident
  // queue on kDecode).
  Bytes projected_per_shard() const { return batch_projected_per_shard_; }
  // Smallest device HBM across the slice: the physical bound on KV that is
  // not yet content-ready (fresh prompts here; in-flight transfers on a
  // decode island — the router throttles against this).
  Bytes hbm_floor() const { return hbm_floor_; }
  // HBM the iteration itself reserves per device (activation staging +
  // output); unspillable KV must fit beside it.
  Bytes StagingPerShard() const;

 private:
  void MaybeStartIteration();
  void StartIteration();
  void AdmitFromQueue();
  void OnIterationDone(const pathways::ExecutionResult& result);
  // Appends one KV token to grow_ids_[i], then to the next id once its
  // grants land; past the last id, releases the iteration boundary.
  void GrowNext(std::size_t i);
  void HandleAbort();
  // Per-shard KV this request charges against kv_budget_per_device while it
  // is admitted: its projected *full* KV, except on a prefill island where
  // the KV never grows past the prompt.
  Bytes ProjectedPerShard(const Request& req) const {
    return kv_.BytesForTokens(config_.role == BatcherRole::kPrefill
                                  ? req.prefill_tokens
                                  : req.max_kv_tokens());
  }
  void Trace(const char* kind, std::int64_t request, std::int64_t detail = 0);

  pathways::Client* client_;
  pathways::VirtualSlice slice_;
  BatcherConfig config_;
  KvCache kv_;
  ServingMetrics* metrics_;
  ServingTrace* trace_;
  sim::Simulator* sim_;

  // Smallest HBM capacity across the slice's devices: the bound on fresh
  // (not-yet-content-ready, hence unspillable) prompt KV per boundary.
  Bytes hbm_floor_ = 0;

  std::deque<Request> queue_;
  // Running batch keyed by request id (deterministic iteration order);
  // admission order and id order coincide per tenant.
  std::map<std::int64_t, Request> running_;
  Bytes batch_projected_per_shard_ = 0;
  // Program of the in-flight iteration (must outlive its execution).
  std::unique_ptr<pathways::PathwaysProgram> current_program_;
  bool iteration_inflight_ = false;
  // Sequences growing at the current boundary. One boundary at a time:
  // iteration_inflight_ stays set until GrowNext walks past the last id.
  std::vector<std::int64_t> grow_ids_;
  int consecutive_aborts_ = 0;
  std::int64_t iterations_ = 0;
  std::int64_t finished_ = 0;
  std::int64_t shed_ = 0;
  std::int64_t handoffs_ = 0;
  std::int64_t aborted_iterations_ = 0;
  std::function<void(Request)> handoff_;
  std::function<void(Request)> abort_return_;
  std::function<void()> on_capacity_;
};

}  // namespace pw::serving
