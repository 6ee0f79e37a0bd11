// ProgramExecution: one run of a lowered PathwaysProgram.
//
// Owns the per-(node, shard) dataflow state: prep/enqueue/output futures,
// the collective rendezvous groups of each gang, and the transfer subgraph
// (paper §4.2: "operations to transfer outputs from a source computation
// shard to the locations of its destination shards, including scatter and
// gather operations"). Executions are shared-ptr-owned by the callbacks in
// flight; when the last completion message reaches the client the object
// drains naturally.
//
// The transfer subgraph lives in two flat vectors sized once at lowering:
// one input latch per (node, operand, shard), counting down the pieces that
// shard receives for that operand, and one Piece per (source shard,
// destination shard) transfer. A piece starts once its producer shard is
// ready and its consumer shard is prepped; the continuations that count
// those two arrivals, and the read's own callbacks, capture only the
// execution and an index, so wiring an edge allocates nothing per shard.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.h"
#include "hw/cluster.h"
#include "hw/collective_group.h"
#include "pathways/ids.h"
#include "pathways/object_store.h"
#include "pathways/program.h"
#include "sim/future.h"

namespace pw::pathways {

class PathwaysRuntime;

struct ExecutionResult {
  std::vector<ShardedBuffer> outputs;  // one per program result
  // True if the execution was aborted (device failure mid-run); outputs is
  // then empty and the caller should re-lower and resubmit (see
  // Client::RunWithRetry).
  bool failed = false;
  // Attempts consumed when the result came through Client::RunWithRetry
  // (1 = first try succeeded); plain Run() leaves it at 1.
  int attempts = 1;
};

class ProgramExecution
    : public std::enable_shared_from_this<ProgramExecution> {
 public:
  // Created by Client::Run. `args` must be device-resident buffers.
  // `client_cpu` is the client host thread on which completion bookkeeping
  // is charged (per logical buffer or per shard, per PathwaysOptions).
  static std::shared_ptr<ProgramExecution> Create(
      PathwaysRuntime* runtime, ClientId client, double client_weight,
      net::HostId client_host, sim::SerialResource* client_cpu,
      const PathwaysProgram* program, std::vector<ShardedBuffer> args,
      ExecutionId id);

  ExecutionId id() const { return id_; }
  ClientId client() const { return client_; }
  double client_weight() const { return client_weight_; }
  net::HostId client_host() const { return client_host_; }
  const PathwaysProgram& program() const { return *program_; }

  // --- Reservation ordering (docs/MEMORY.md) ---
  // Called by the island scheduler at the instant it commits to dispatching
  // `node`'s gang: draws one global reservation ticket for the whole gang,
  // so all of its shard reservations (scratch + output, every device) enter
  // the per-device queues in one scheduler-consistent global order.
  void AssignGangTicket(int node);
  hw::MemoryTicket gang_ticket(int node) const {
    return nodes_.at(static_cast<std::size_t>(node)).ticket;
  }

  // --- Lowered placement (physical devices, resolved at creation) ---
  hw::DeviceId DeviceFor(int node, int shard) const;

  // --- Executor-facing state transitions ---
  // Reserves HBM for one output shard (called from executor prep; lazy so
  // queued programs hold no memory).
  sim::SimFuture<sim::Unit> ReserveOutputShard(int node, int shard);
  void MarkPrepDone(int node, int shard);
  sim::SimFuture<sim::Unit> PrepDone(int node, int shard) const;
  void MarkEnqueued(int node, int shard);
  // Completes when all shards of `node` have been enqueued on their devices
  // (sequential dispatch gates the next node on this).
  sim::SimFuture<sim::Unit> NodeEnqueued(int node) const;
  void MarkShardComplete(int node, int shard);
  sim::SimFuture<sim::Unit> OutputReady(int node, int shard) const;
  // Completes when every shard of `node` has finished executing (the
  // scheduler's in-flight admission control subscribes to this).
  sim::SimFuture<sim::Unit> NodeComplete(int node) const;

  // Input-data futures the device kernel gates on (one per operand).
  std::vector<sim::SimFuture<sim::Unit>> InputFutures(int node, int shard) const;

  // Collective rendezvous group for a node's gang (lazily created; all the
  // node's shards share it).
  std::shared_ptr<hw::CollectiveGroup> GroupFor(int node);

  // --- Client-side descriptor streaming ---
  // The client thread produces each gang's launch descriptors (~17 us per
  // shard, serialized per client); the scheduler may not dispatch a gang
  // before its descriptors exist. For single-node programs this puts the
  // fan-out on the critical path (Figs. 5/6); for multi-node programs the
  // stream runs ahead of execution and costs nothing at steady state.
  void MarkClientReleased(int node);
  sim::SimFuture<sim::Unit> ClientReleased(int node) const;

  // --- Completion ---
  sim::SimFuture<ExecutionResult> done() const { return done_promise_.future(); }
  // Called on the client host when a result-shard completion message lands.
  void OnResultShardMessage();
  bool finished() const { return finished_; }

  // --- Failure handling (see docs/FAULTS.md) ---
  // True if this execution's lowered placement includes `dev` (any node,
  // any shard). Used to find the executions doomed by a device crash.
  bool UsesDevice(hw::DeviceId dev) const;
  // Aborts the execution: every pending promise/latch is force-fired so the
  // dataflow machinery unwinds without deadlock, collective rendezvous
  // groups are aborted (parked peer devices are released), the execution's
  // buffers are garbage-collected, and done() resolves with failed=true.
  // All subsequent state-transition calls (Mark*, transfers) are no-ops.
  // Idempotent; a finished execution cannot be aborted.
  void Abort();
  bool aborted() const { return aborted_; }

 private:
  // Piece `p`'s read of its source shard finished (the data was handed off
  // / left the source device): drops the spill-protection pin. No-op after
  // Abort(), which drains the outstanding list itself.
  void FinishRead(int p);

 private:
  ProgramExecution(PathwaysRuntime* runtime, ClientId client,
                   double client_weight, net::HostId client_host,
                   sim::SerialResource* client_cpu,
                   const PathwaysProgram* program,
                   std::vector<ShardedBuffer> args, ExecutionId id);

  void Lower();
  void WireTransfers();
  void WireEdge(const std::shared_ptr<ProgramExecution>& owner,
                int consumer_node, int operand_index);
  // Reads piece `p` through ObjectStore::ReadShard; counts down its input
  // latch when the data lands in the consumer's input buffer. The source
  // stays pinned while it is being read.
  void StartTransfer(int p);
  void WireRelease();
  // Shards of the value an operand reads (a node output or an argument).
  int SourceShards(const ValueRef& src) const;
  // Index into input_latches_ of one (node, operand, shard) input.
  int InputLatch(int node, int operand, int shard) const;

  // One (source shard, destination shard) transfer of an input edge.
  struct Piece {
    LogicalBufferId src_buffer;
    int src_shard = 0;
    hw::DeviceId src_dev;
    hw::DeviceId dst_dev;
    Bytes bytes = 0;
    int latch = 0;     // index into input_latches_
    int arrivals = 2;  // producer shard ready, consumer shard prepped
  };
  struct ShardState {
    sim::SimPromise<sim::Unit> prep_done;
    sim::SimPromise<sim::Unit> output_ready;
  };
  struct NodeState {
    NodeState(sim::Simulator* sim, int num_shards)
        : client_release(sim),
          enqueue_latch(sim, num_shards),
          completion_latch(sim, num_shards) {}

    std::vector<ShardState> shards;
    std::vector<hw::DeviceId> devices;  // lowered placement per shard
    ShardedBuffer output;               // deferred: shards reserved at prep
    // Gang-wide reservation ticket, drawn at scheduler dispatch.
    hw::MemoryTicket ticket = hw::kUnticketed;
    sim::SimPromise<sim::Unit> client_release;
    sim::CountdownLatch enqueue_latch;
    sim::CountdownLatch completion_latch;
    std::shared_ptr<hw::CollectiveGroup> group;
    int consumers_remaining = 0;
    // This node's `operands` x shards.size() input latches start at
    // input_latches_[inputs_begin], operand-major (see InputLatch).
    int inputs_begin = 0;
    int operands = 0;
  };

  PathwaysRuntime* runtime_;
  ClientId client_;
  double client_weight_;
  net::HostId client_host_;
  sim::SerialResource* client_cpu_;
  const PathwaysProgram* program_;
  std::vector<ShardedBuffer> args_;
  ExecutionId id_;

  std::vector<NodeState> nodes_;
  std::vector<sim::CountdownLatch> input_latches_;
  std::vector<Piece> pieces_;
  // Source shards pinned for the duration of an active read (multiset:
  // scatter/gather edges read one shard several times). The pin only spans
  // the read itself — spilled shards are consumed by reading through from
  // host DRAM, so idle data stays evictable right up to the moment it is
  // actually being moved.
  std::vector<std::pair<LogicalBufferId, int>> outstanding_reads_;
  sim::SimPromise<ExecutionResult> done_promise_;
  int result_shard_messages_received_ = 0;
  bool finished_ = false;
  bool aborted_ = false;
};

}  // namespace pw::pathways
