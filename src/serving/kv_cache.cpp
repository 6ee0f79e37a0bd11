#include "serving/kv_cache.h"

#include <utility>

#include "common/logging.h"
#include "pathways/runtime.h"

namespace pw::serving {

KvCache::KvCache(pathways::PathwaysRuntime* runtime, pathways::ClientId owner,
                 KvCacheConfig config)
    : runtime_(runtime), owner_(owner), config_(config) {
  PW_CHECK(runtime_ != nullptr);
  PW_CHECK_GT(config_.bytes_per_token_per_shard, 0);
}

sim::SimFuture<sim::Unit> KvCache::CreateSequence(
    std::int64_t seq, const pathways::VirtualSlice& slice, int prompt_tokens) {
  PW_CHECK(!seqs_.contains(seq)) << "KV sequence " << seq << " created twice";
  PW_CHECK_GT(prompt_tokens, 0);
  std::vector<hw::DeviceId> devices;
  devices.reserve(slice.devices.size());
  for (const pathways::VirtualDevice& vdev : slice.devices) {
    devices.push_back(runtime_->resource_manager().Lookup(vdev.id));
  }
  Seq s;
  s.tokens = prompt_tokens;
  s.handle = runtime_->object_store().CreateBuffer(
      owner_, pathways::ExecutionId(), devices, BytesForTokens(prompt_tokens));
  live_bytes_per_shard_ += BytesForTokens(prompt_tokens);
  auto ready = s.handle.ready;
  seqs_.emplace(seq, std::move(s));
  return ready;
}

void KvCache::MarkReady(std::int64_t seq) {
  auto it = seqs_.find(seq);
  PW_CHECK(it != seqs_.end());
  if (it->second.ready) return;
  it->second.ready = true;
  pathways::ObjectStore& store = runtime_->object_store();
  for (int i = 0; i < it->second.handle.num_shards(); ++i) {
    store.MarkShardContentReady(it->second.handle.id, i);
  }
}

sim::SimFuture<sim::Unit> KvCache::Append(std::int64_t seq, int tokens) {
  auto it = seqs_.find(seq);
  PW_CHECK(it != seqs_.end());
  PW_CHECK_GT(tokens, 0);
  Seq& s = it->second;
  const Bytes delta = BytesForTokens(tokens);
  pathways::ObjectStore& store = runtime_->object_store();
  for (std::size_t i = 0; i < s.handle.shards.size(); ++i) {
    grants_.push_back(store.GrowShard(s.handle.id, static_cast<int>(i), delta));
    s.handle.shards[i].bytes += delta;  // mirror; consumed only post-grant
  }
  s.tokens += tokens;
  live_bytes_per_shard_ += delta;
  ++appends_;
  // Join the grants only after every shard's grow is issued: a grant that is
  // already ready schedules its countdown on registration, and that event
  // must follow whatever the later grows schedule.
  auto granted = std::make_shared<sim::CountdownLatch>(
      &runtime_->simulator(), static_cast<int>(grants_.size()));
  for (const auto& grant : grants_) {
    grant.Then([granted](const sim::Unit&) { granted->CountDown(); });
  }
  grants_.clear();
  return granted->done();
}

void KvCache::Release(std::int64_t seq) {
  auto it = seqs_.find(seq);
  PW_CHECK(it != seqs_.end());
  live_bytes_per_shard_ -= BytesForTokens(it->second.tokens);
  runtime_->object_store().Release(it->second.handle.id);
  seqs_.erase(it);
}

const pathways::ShardedBuffer& KvCache::handle(std::int64_t seq) const {
  auto it = seqs_.find(seq);
  PW_CHECK(it != seqs_.end());
  return it->second.handle;
}

int KvCache::tokens_of(std::int64_t seq) const {
  auto it = seqs_.find(seq);
  PW_CHECK(it != seqs_.end());
  return it->second.tokens;
}

Bytes KvCache::bytes_of(std::int64_t seq) const {
  auto it = seqs_.find(seq);
  PW_CHECK(it != seqs_.end());
  return it->second.handle.total_bytes();
}

bool KvCache::AnyShardInDram(std::int64_t seq) const {
  auto it = seqs_.find(seq);
  PW_CHECK(it != seqs_.end());
  const pathways::ObjectStore& store = runtime_->object_store();
  for (int i = 0; i < it->second.handle.num_shards(); ++i) {
    if (store.ShardInDram(it->second.handle.id, i)) return true;
  }
  return false;
}

}  // namespace pw::serving
