// Per-sequence KV-cache registry: a first-class ObjectStore citizen.
//
// Each live sequence owns one logical buffer with one shard per slice
// device (the attention KV for that shard's heads). The cache is a thin
// deterministic ledger over the store:
//
//   * CreateSequence sizes the buffer for the prompt and reserves HBM
//     through the store's eager path — back-pressure and reservation
//     ordering apply exactly as for any staged buffer;
//   * Append grows every shard by whole tokens via ObjectStore::GrowShard,
//     one append per decode step; the next iteration gates on the grants;
//   * nothing holds pins across iterations: argument reads pin each shard
//     only for the duration of the transfer, and GrowShard self-pins during
//     a grow — so a paused or cold sequence is exactly the byte-set the
//     Spiller pages to host DRAM under pressure (read through / restored
//     by the next decode's argument transfer).
//
// The registry mirrors shard bytes into each sequence's ShardedBuffer
// handle at Append time; iterations only read the handle after the grows
// they gated on were granted, so the mirror never runs ahead of memory the
// store actually holds at the moment it is consumed.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/units.h"
#include "pathways/object_store.h"
#include "pathways/virtual_device.h"
#include "sim/future.h"

namespace pw::pathways {
class PathwaysRuntime;
}

namespace pw::serving {

struct KvCacheConfig {
  // KV bytes appended per token on each device shard.
  Bytes bytes_per_token_per_shard = KiB(16);
};

class KvCache {
 public:
  KvCache(pathways::PathwaysRuntime* runtime, pathways::ClientId owner,
          KvCacheConfig config);

  KvCache(const KvCache&) = delete;
  KvCache& operator=(const KvCache&) = delete;

  // Allocates the sequence's KV buffer for `prompt_tokens`, one shard per
  // slice device (resolved against the resource manager's *current*
  // virtual→physical mapping, so post-crash re-prefills land on remapped
  // devices). Completes when every shard's HBM reservation is granted.
  sim::SimFuture<sim::Unit> CreateSequence(std::int64_t seq,
                                           const pathways::VirtualSlice& slice,
                                           int prompt_tokens);
  // Prefill finished: shard contents exist (spillable when no read pins).
  void MarkReady(std::int64_t seq);
  // Appends `tokens` decode steps to every shard; completes when all grows
  // are granted. The handle mirror is advanced immediately (see above).
  sim::SimFuture<sim::Unit> Append(std::int64_t seq, int tokens = 1);
  void Release(std::int64_t seq);

  bool Contains(std::int64_t seq) const { return seqs_.contains(seq); }
  const pathways::ShardedBuffer& handle(std::int64_t seq) const;
  int tokens_of(std::int64_t seq) const;
  Bytes bytes_of(std::int64_t seq) const;  // all shards, mirror view
  bool AnyShardInDram(std::int64_t seq) const;

  Bytes BytesForTokens(int tokens) const {
    return static_cast<Bytes>(tokens) * config_.bytes_per_token_per_shard;
  }

  int live_sequences() const { return static_cast<int>(seqs_.size()); }
  // Mirror-view per-shard bytes over all live sequences (each sequence
  // holds this much on *every* slice device).
  Bytes live_bytes_per_shard() const { return live_bytes_per_shard_; }
  std::int64_t appends() const { return appends_; }

  const KvCacheConfig& config() const { return config_; }

 private:
  struct Seq {
    pathways::ShardedBuffer handle;
    int tokens = 0;
    bool ready = false;
  };

  pathways::PathwaysRuntime* runtime_;
  pathways::ClientId owner_;
  KvCacheConfig config_;
  std::map<std::int64_t, Seq> seqs_;
  Bytes live_bytes_per_shard_ = 0;
  std::int64_t appends_ = 0;
  // Append's grant futures, reused across calls so an append allocates no
  // vector.
  std::vector<sim::SimFuture<sim::Unit>> grants_;
};

}  // namespace pw::serving
