// Disaggregated prefill/decode serving over the DCN (docs/SERVING.md).
//
// DistServe-style split: prefill gangs run on one island's slice, decode
// gangs on another's, and a finished prompt's KV cache streams between them
// over the existing sharded-buffer dataflow — host PCIe hops plus
// `DcnFabric` host-to-host messages — so PR-3 NIC degradation and
// partitions bite on real KV bytes, and PR-5 spilling applies on both ends.
// With the flow-level Clos DCN enabled (DcnClosParams::enabled,
// docs/NETWORK.md) the KV streams additionally contend on real paths:
// many prefill shards landing on one decode host incast on that host's
// downlink, and cross-leaf transfers share oversubscribed uplinks — the
// router needs no changes, since completion is callback-driven and the
// fabric keeps per-(src,dst) FIFO across partitions either way.
//
// The router owns the request lifecycle around the two Batcher roles:
//
//   Offer ──► prefill Batcher (kPrefill; fresh-prompt floor + KV budget)
//     │  prefill done: KV content-ready on the prefill island, NO token yet
//     ▼
//   handoff FIFO ──(throttled)──► KV transfer, P src shards × D dst shards:
//     per piece  Pin(src) → ObjectStore::ReadShard: [DRAM read-through |
//                PCIe] → DCN → PCIe → land
//     │  all pieces landed + no crash epoch moved on either slice
//     ▼
//   decode KvCache::MarkReady ──► decode Batcher::EnqueueResident (kDecode)
//     first decode iteration emits the request's FIRST token (TTFT stamps
//     here — arrival → first decode emission, transfer included)
//
// Failure composition (PR 3):
//   * crash on either slice mid-transfer — detected by comparing the
//     devices' failure epochs across the transfer; both islands' copies are
//     released (no orphaned shards) and the request re-enters the prefill
//     queue head for a fresh prefill against the post-remap mapping;
//   * decode-island crash after enqueue — the decode batcher hands every
//     resident request back (set_abort_return) and the router re-prefills;
//   * DCN partition mid-transfer — the fabric holds and replays the pieces
//     at heal, so the transfer completes late rather than wedging; the
//     router keeps no timer that could double-send.
//
// Deadlock freedom under memory pressure: in-flight KV on the decode island
// is not yet content-ready, hence unspillable — the cross-island analogue
// of the fresh-prompt floor. The router bounds (a) unready in-flight KV per
// decode shard to the decode island's HBM floor minus iteration staging,
// and (b) committed projected KV (queued + running + in flight, at full
// generation length) to the decode batcher's KV budget. Everything already
// enqueued is content-ready and therefore a valid spill victim, so decode
// staging/grow reservations always make progress (docs/MEMORY.md), and a
// request that could never satisfy (a) or (b) alone is shed at offer time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.h"
#include "serving/batcher.h"
#include "serving/request.h"

namespace pw::hw {
class Cluster;
}

namespace pw::serving {

// Routes requests across one-or-more prefill batchers (kPrefill) and decode
// batchers (kDecode), and owns every cross-island KV transfer in between.
// Single-threaded inside the simulation like everything else; all state
// transitions happen in event callbacks, keeping runs deterministic.
class DisaggRouter {
 public:
  DisaggRouter(std::vector<Batcher*> prefill, std::vector<Batcher*> decode,
               ServingMetrics* metrics, ServingTrace* trace = nullptr);

  DisaggRouter(const DisaggRouter&) = delete;
  DisaggRouter& operator=(const DisaggRouter&) = delete;

  // One request arriving now; false iff shed (decode-side impossibility
  // here, prefill-side floors/overflow inside the chosen batcher).
  bool Offer(Request req);

  // --- Introspection ---
  std::int64_t transfers_started() const { return transfers_started_; }
  std::int64_t transfers_completed() const { return transfers_completed_; }
  std::int64_t transfers_failed() const { return transfers_failed_; }
  std::int64_t reprefills() const { return reprefills_; }
  std::int64_t shed() const { return shed_; }
  Bytes bytes_transferred() const { return bytes_transferred_; }
  // Largest unready in-flight KV per decode shard ever observed (property
  // tests check it against the floor bound).
  Bytes peak_inflight_per_shard() const { return peak_inflight_per_shard_; }
  std::size_t pending_handoffs() const { return pending_.size(); }
  std::size_t inflight_transfers() const { return inflight_; }
  bool idle() const;

 private:
  struct Transfer;

  void OnPrefillDone(int prefill_index, Request req);
  void OnDecodeAbort(Request req);
  void StartNextTransfers();
  void StreamPieces(const std::shared_ptr<Transfer>& t);
  void SendPiece(const std::shared_ptr<Transfer>& t, int src_shard,
                 int dst_shard, Bytes bytes);
  void FinishTransfer(const std::shared_ptr<Transfer>& t);
  void ReturnForPrefill(Request req);
  // Sum of `failures()` epochs over a KV handle's (physical) shard devices;
  // any crash on either slice during the transfer moves it.
  std::int64_t FailureEpoch(const Batcher& batcher, std::int64_t seq) const;
  bool AnyDeviceFailed(const Batcher& batcher, std::int64_t seq) const;
  // Cap on unready (in-flight) KV bytes per decode shard: the decode
  // island's HBM floor minus iteration staging — the tightest bound that can
  // never wedge a staging reservation.
  Bytes DecodeFloor(const Batcher& dst) const;
  // True iff `req` fits `dst`'s decode-side bounds once it has the island to
  // itself: projected full KV within the KV budget, prompt KV within the
  // in-flight floor.
  bool CanEverDecode(const Batcher& dst, const Request& req) const;
  // The prefill batcher with the shortest queue.
  Batcher* ShortestPrefillQueue() const;
  void Trace(const char* kind, std::int64_t request, std::int64_t detail = 0);

  struct PendingHandoff {
    int prefill_index = 0;
    std::int64_t src_epoch = 0;  // prefill-slice failure epoch at handoff
    Request req;
  };

  std::vector<Batcher*> prefill_;
  std::vector<Batcher*> decode_;
  ServingMetrics* metrics_;
  ServingTrace* trace_;
  sim::Simulator* sim_;
  hw::Cluster* cluster_;

  std::deque<PendingHandoff> pending_;
  std::size_t inflight_ = 0;
  // Per decode batcher: unready in-flight KV per shard, and committed
  // projected KV per shard (in flight + enqueued + running, full length).
  std::vector<Bytes> inflight_per_shard_;
  std::vector<Bytes> committed_per_shard_;

  std::int64_t transfers_started_ = 0;
  std::int64_t transfers_completed_ = 0;
  std::int64_t transfers_failed_ = 0;
  std::int64_t reprefills_ = 0;
  std::int64_t shed_ = 0;
  Bytes bytes_transferred_ = 0;
  Bytes peak_inflight_per_shard_ = 0;
};

}  // namespace pw::serving
