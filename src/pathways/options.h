// Runtime-wide options: dispatch mode and scheduling policy.
#pragma once

#include "common/units.h"

namespace pw::pathways {

// Paper §4.5. Parallel asynchronous dispatch runs host-side work for all
// nodes of a statically known subgraph concurrently; sequential dispatch
// (the traditional model, Fig. 4a) starts a node's host-side work only
// after its predecessor has been enqueued.
enum class DispatchMode { kParallel, kSequential };

// Paper §4.4/§5.2. FIFO across programs, or weighted proportional share
// across clients (stride scheduling).
enum class SchedulerPolicy { kFifo, kWeightedStride };

struct PathwaysOptions {
  DispatchMode dispatch = DispatchMode::kParallel;
  SchedulerPolicy policy = SchedulerPolicy::kFifo;
  // If true, client-side bookkeeping is charged per *logical* buffer
  // (the sharded-buffer abstraction, §4.2); if false, per shard. Kept as an
  // option because `false` is the reference arm of the §4.2 ablation
  // showing why the abstraction matters at 2048 shards (ShardedBufferTest
  // in tests/pathways_test.cpp).
  bool sharded_buffer_bookkeeping = true;
  // Admission control: maximum gangs dispatched-but-not-completed per
  // island scheduler. Deep enough for pipelines to fill (Table 2 uses up to
  // S=16 stages x in-flight micro-batches); fairness-sensitive multi-tenant
  // settings use small values so the proportional-share policy has a
  // backlog to arbitrate (Fig. 9).
  int max_inflight_gangs = 64;
};

}  // namespace pw::pathways
