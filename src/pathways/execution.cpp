#include "pathways/execution.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "pathways/runtime.h"

namespace pw::pathways {

std::shared_ptr<ProgramExecution> ProgramExecution::Create(
    PathwaysRuntime* runtime, ClientId client, double client_weight,
    net::HostId client_host, sim::SerialResource* client_cpu,
    const PathwaysProgram* program, std::vector<ShardedBuffer> args,
    ExecutionId id) {
  auto exec = std::shared_ptr<ProgramExecution>(new ProgramExecution(
      runtime, client, client_weight, client_host, client_cpu, program,
      std::move(args), id));
  exec->Lower();
  exec->WireTransfers();
  exec->WireRelease();
  runtime->RegisterExecution(exec);
  return exec;
}

ProgramExecution::ProgramExecution(PathwaysRuntime* runtime, ClientId client,
                                   double client_weight, net::HostId client_host,
                                   sim::SerialResource* client_cpu,
                                   const PathwaysProgram* program,
                                   std::vector<ShardedBuffer> args,
                                   ExecutionId id)
    : runtime_(runtime),
      client_(client),
      client_weight_(client_weight),
      client_host_(client_host),
      client_cpu_(client_cpu),
      program_(program),
      args_(std::move(args)),
      id_(id),
      done_promise_(&runtime->simulator()) {
  PW_CHECK_EQ(static_cast<int>(args_.size()), program_->num_arguments())
      << program_->name() << ": argument count mismatch";
}

void ProgramExecution::Lower() {
  // Resolve virtual devices to physical (per execution, so resource-manager
  // remaps take effect here), create output buffers, and initialize
  // per-shard dataflow state. Everything that depends only on the program
  // was computed when it was traced.
  sim::Simulator* sim = &runtime_->simulator();
  // Reserved up front: the per-node promises and latches live in place,
  // and nothing resizes nodes_ or input_latches_ after this function.
  nodes_.reserve(static_cast<std::size_t>(program_->num_nodes()));
  std::size_t num_latches = 0;
  for (const ComputationNode& n : program_->nodes()) {
    num_latches += n.inputs.size() * static_cast<std::size_t>(n.fn.num_shards);
  }
  input_latches_.reserve(num_latches);
  std::size_t num_pieces = 0;
  for (const ComputationNode& n : program_->nodes()) {
    PW_CHECK_EQ(static_cast<std::size_t>(n.id), nodes_.size());
    NodeState& state = nodes_.emplace_back(sim, n.fn.num_shards);
    state.devices.reserve(n.slice.devices.size());
    for (const VirtualDevice& v : n.slice.devices) {
      state.devices.push_back(runtime_->resource_manager().Lookup(v.id));
    }
    state.output = runtime_->object_store().CreateBufferDeferred(
        client_, id_, state.devices, n.fn.output_bytes_per_shard);
    state.consumers_remaining = program_->num_consumers(n.id);
    state.shards.reserve(static_cast<std::size_t>(n.fn.num_shards));
    for (int i = 0; i < n.fn.num_shards; ++i) {
      state.shards.push_back(ShardState{sim::SimPromise<sim::Unit>(sim),
                                        sim::SimPromise<sim::Unit>(sim)});
    }
    // One latch per (operand, shard), counting the pieces that shard
    // receives: one on a 1:1 edge, one per source shard otherwise.
    state.inputs_begin = static_cast<int>(input_latches_.size());
    state.operands = static_cast<int>(n.inputs.size());
    for (const ValueRef& src : n.inputs) {
      const int n_src = SourceShards(src);
      const int pieces = n_src == n.fn.num_shards ? 1 : n_src;
      for (int i = 0; i < n.fn.num_shards; ++i) {
        input_latches_.emplace_back(sim, pieces);
      }
      num_pieces += static_cast<std::size_t>(pieces) *
                    static_cast<std::size_t>(n.fn.num_shards);
    }
  }
  pieces_.reserve(num_pieces);
}

int ProgramExecution::SourceShards(const ValueRef& src) const {
  if (src.kind == ValueRef::Kind::kNodeOutput) {
    return program_->node(src.index).fn.num_shards;
  }
  return args_.at(static_cast<std::size_t>(src.index)).num_shards();
}

int ProgramExecution::InputLatch(int node, int operand, int shard) const {
  const NodeState& state = nodes_[static_cast<std::size_t>(node)];
  return state.inputs_begin +
         operand * static_cast<int>(state.shards.size()) + shard;
}

void ProgramExecution::WireTransfers() {
  const auto owner = shared_from_this();
  for (const ComputationNode& n : program_->nodes()) {
    for (std::size_t op = 0; op < n.inputs.size(); ++op) {
      WireEdge(owner, n.id, static_cast<int>(op));
    }
  }
}

void ProgramExecution::WireEdge(const std::shared_ptr<ProgramExecution>& owner,
                                int consumer_node, int operand_index) {
  const ComputationNode& consumer = program_->node(consumer_node);
  const ValueRef src = consumer.inputs[static_cast<std::size_t>(operand_index)];
  NodeState& cstate = nodes_[static_cast<std::size_t>(consumer_node)];
  const int n_dst = consumer.fn.num_shards;

  // Producer-side geometry.
  const int n_src = SourceShards(src);
  Bytes src_shard_bytes = 0;
  if (src.kind == ValueRef::Kind::kNodeOutput) {
    src_shard_bytes = program_->node(src.index).fn.output_bytes_per_shard;
  } else {
    const ShardedBuffer& arg = args_[static_cast<std::size_t>(src.index)];
    src_shard_bytes = arg.shards.empty() ? 0 : arg.shards[0].bytes;
  }

  // Shard mapping: 1:1 when counts match, full scatter/gather exchange
  // otherwise (each destination shard receives a slice from every source
  // shard).
  const bool one_to_one = (n_src == n_dst);
  const Bytes piece_bytes = one_to_one
                                ? src_shard_bytes
                                : std::max<Bytes>(src_shard_bytes / n_dst, 1);

  for (int j = 0; j < n_dst; ++j) {
    const int latch = InputLatch(consumer_node, operand_index, j);
    const hw::DeviceId dst_dev = cstate.devices[static_cast<std::size_t>(j)];
    const sim::SimFuture<sim::Unit> consumer_prepped =
        cstate.shards[static_cast<std::size_t>(j)].prep_done.future();
    for (int i = one_to_one ? j : 0; i < (one_to_one ? j + 1 : n_src); ++i) {
      // Trigger: producer shard i ready AND consumer shard j prepped.
      Piece& piece = pieces_.emplace_back();
      piece.src_shard = i;
      piece.dst_dev = dst_dev;
      piece.bytes = piece_bytes;
      piece.latch = latch;
      sim::SimFuture<sim::Unit> producer_ready;
      if (src.kind == ValueRef::Kind::kNodeOutput) {
        NodeState& pstate = nodes_[static_cast<std::size_t>(src.index)];
        producer_ready =
            pstate.shards[static_cast<std::size_t>(i)].output_ready.future();
        piece.src_dev = pstate.devices[static_cast<std::size_t>(i)];
        piece.src_buffer = pstate.output.id;
      } else {
        const ShardedBuffer& arg = args_[static_cast<std::size_t>(src.index)];
        producer_ready = arg.ready;
        piece.src_dev = arg.shards[static_cast<std::size_t>(i)].device;
        piece.src_buffer = arg.id;
      }
      // The same events as WhenBoth(producer_ready, consumer_prepped, ...):
      // each arrival is its own continuation event, producer first, and the
      // second schedules the transfer as one more zero-delay event.
      auto arrive = [self = owner, p = static_cast<int>(pieces_.size()) - 1](
                        const sim::Unit&) mutable {
        if (--self->pieces_[static_cast<std::size_t>(p)].arrivals > 0) return;
        sim::Simulator& sim = self->runtime_->simulator();
        sim.Schedule(Duration::Zero(),
                     [self = std::move(self), p] { self->StartTransfer(p); });
      };
      static_assert(sizeof(arrive) <=
                        sim::InlineFunction<void(const sim::Unit&)>::kInlineBytes,
                    "a piece arrival must fit a continuation's inline slot");
      producer_ready.Then(arrive);
      consumer_prepped.Then(std::move(arrive));
    }
  }
}

void ProgramExecution::StartTransfer(int p) {
  if (aborted_) return;  // input latches were force-completed by Abort()
  const Piece& piece = pieces_[static_cast<std::size_t>(p)];
  ObjectStore& store = runtime_->object_store();
  // Pin the source shard for the duration of the read (spill victims must
  // not be mid-read); the store picks the route (docs/MEMORY.md).
  store.PinShard(piece.src_buffer, piece.src_shard);
  outstanding_reads_.emplace_back(piece.src_buffer, piece.src_shard);
  auto self = shared_from_this();
  store.ReadShard(
      piece.src_buffer, piece.src_shard, piece.src_dev, piece.dst_dev,
      piece.bytes, [self, p] { self->FinishRead(p); },
      [self, latch = piece.latch] {
        self->input_latches_[static_cast<std::size_t>(latch)].CountDown();
      });
}

void ProgramExecution::FinishRead(int p) {
  if (aborted_) return;
  const Piece& piece = pieces_[static_cast<std::size_t>(p)];
  auto it = std::find(outstanding_reads_.begin(), outstanding_reads_.end(),
                      std::make_pair(piece.src_buffer, piece.src_shard));
  PW_CHECK(it != outstanding_reads_.end());
  outstanding_reads_.erase(it);
  runtime_->object_store().UnpinShard(piece.src_buffer, piece.src_shard);
}

void ProgramExecution::WireRelease() {
  // Intermediate outputs are garbage once every consumer node completed.
  auto self = shared_from_this();
  for (const ComputationNode& n : program_->nodes()) {
    NodeState& state = nodes_[static_cast<std::size_t>(n.id)];
    const int node_id = n.id;
    state.completion_latch.done().Then([self, node_id](const sim::Unit&) {
      // An aborted execution's buffers are collected wholesale by Abort();
      // the per-consumer refcount dance below would double-free them.
      if (self->aborted_) return;
      // This node is done: credit each distinct producer it consumed.
      const PathwaysProgram& program = *self->program_;
      for (const int p : program.producers(node_id)) {
        NodeState& pstate = self->nodes_[static_cast<std::size_t>(p)];
        if (--pstate.consumers_remaining == 0 && !program.is_result(p)) {
          self->runtime_->object_store().Release(pstate.output.id);
        }
      }
      // A sink node that is not a result frees its own output immediately.
      NodeState& own = self->nodes_[static_cast<std::size_t>(node_id)];
      if (own.consumers_remaining == 0 && !program.is_result(node_id)) {
        self->runtime_->object_store().Release(own.output.id);
      }
    });
  }
}

hw::DeviceId ProgramExecution::DeviceFor(int node, int shard) const {
  return nodes_.at(static_cast<std::size_t>(node))
      .devices.at(static_cast<std::size_t>(shard));
}

void ProgramExecution::AssignGangTicket(int node) {
  NodeState& state = nodes_.at(static_cast<std::size_t>(node));
  PW_CHECK(state.ticket == hw::kUnticketed)
      << "gang ticket for node " << node << " assigned twice";
  ObjectStore& store = runtime_->object_store();
  state.ticket = store.NextTicket();
  store.RegisterTicket(state.ticket, id_.value(),
                       ObjectStore::TicketKind::kExec, id_.value());
  store.SetBufferTicket(state.output.id, state.ticket);
}

sim::SimFuture<sim::Unit> ProgramExecution::ReserveOutputShard(int node,
                                                               int shard) {
  if (aborted_) {
    // Output buffers are already collected; grant immediately so in-flight
    // executor preps unwind instead of parking on a dead reservation.
    return sim::ReadyFuture(&runtime_->simulator(), sim::Unit{});
  }
  return runtime_->object_store().ReserveShard(
      nodes_.at(static_cast<std::size_t>(node)).output.id, shard);
}

void ProgramExecution::MarkPrepDone(int node, int shard) {
  if (aborted_) return;
  nodes_.at(static_cast<std::size_t>(node))
      .shards.at(static_cast<std::size_t>(shard))
      .prep_done.Set(sim::Unit{});
}

sim::SimFuture<sim::Unit> ProgramExecution::PrepDone(int node, int shard) const {
  return nodes_.at(static_cast<std::size_t>(node))
      .shards.at(static_cast<std::size_t>(shard))
      .prep_done.future();
}

void ProgramExecution::MarkEnqueued(int node, int shard) {
  if (aborted_) return;
  (void)shard;
  nodes_.at(static_cast<std::size_t>(node)).enqueue_latch.CountDown();
}

sim::SimFuture<sim::Unit> ProgramExecution::NodeEnqueued(int node) const {
  return nodes_.at(static_cast<std::size_t>(node)).enqueue_latch.done();
}

void ProgramExecution::MarkShardComplete(int node, int shard) {
  if (aborted_) return;
  NodeState& state = nodes_.at(static_cast<std::size_t>(node));
  ShardState& ss = state.shards.at(static_cast<std::size_t>(shard));
  // The output exists from here on, which is what makes the output shard a
  // spill candidate while it waits (refcount-held, idle) for consumers.
  runtime_->object_store().MarkShardContentReady(state.output.id, shard);
  ss.output_ready.Set(sim::Unit{});
  state.completion_latch.CountDown();
}

sim::SimFuture<sim::Unit> ProgramExecution::OutputReady(int node, int shard) const {
  return nodes_.at(static_cast<std::size_t>(node))
      .shards.at(static_cast<std::size_t>(shard))
      .output_ready.future();
}

sim::SimFuture<sim::Unit> ProgramExecution::NodeComplete(int node) const {
  return nodes_.at(static_cast<std::size_t>(node)).completion_latch.done();
}

void ProgramExecution::MarkClientReleased(int node) {
  if (aborted_) return;
  nodes_.at(static_cast<std::size_t>(node)).client_release.Set(sim::Unit{});
}

sim::SimFuture<sim::Unit> ProgramExecution::ClientReleased(int node) const {
  return nodes_.at(static_cast<std::size_t>(node)).client_release.future();
}

std::vector<sim::SimFuture<sim::Unit>> ProgramExecution::InputFutures(
    int node, int shard) const {
  const NodeState& state = nodes_.at(static_cast<std::size_t>(node));
  PW_CHECK_LT(static_cast<std::size_t>(shard), state.shards.size());
  std::vector<sim::SimFuture<sim::Unit>> out;
  out.reserve(static_cast<std::size_t>(state.operands));
  for (int op = 0; op < state.operands; ++op) {
    out.push_back(
        input_latches_[static_cast<std::size_t>(InputLatch(node, op, shard))]
            .done());
  }
  return out;
}

std::shared_ptr<hw::CollectiveGroup> ProgramExecution::GroupFor(int node) {
  // Aborted first — and before touching program_: any straggler kernels
  // still reaching the device run as plain compute (their peers will never
  // rendezvous), and the program object may already be destroyed.
  if (aborted_) return nullptr;
  NodeState& state = nodes_.at(static_cast<std::size_t>(node));
  const ComputationNode& n = program_->node(node);
  if (!n.fn.collective.has_value() || n.fn.num_shards <= 1) return nullptr;
  if (state.group == nullptr) {
    hw::Island& island = runtime_->cluster().island_of(state.devices[0]);
    state.group = std::make_shared<hw::CollectiveGroup>(
        &runtime_->simulator(), &island.collectives(), *n.fn.collective,
        n.fn.num_shards, n.name);
  }
  return state.group;
}

void ProgramExecution::OnResultShardMessage() {
  if (aborted_) return;
  // Bookkeeping cost on the client thread: with the sharded-buffer
  // abstraction, per-shard processing is a cheap network-stack touch and the
  // logical-buffer update is charged once at the end; without it, each shard
  // pays the full handle-tracking cost (the §4.2 scalability argument).
  const bool sharded = runtime_->options().sharded_buffer_bookkeeping;
  const Duration per_message =
      sharded ? Duration::Nanos(200) : Duration::Micros(2);
  auto self = shared_from_this();
  client_cpu_->Submit(per_message, [self] {
    if (self->aborted_) return;
    ++self->result_shard_messages_received_;
    if (self->result_shard_messages_received_ <
        self->program_->result_shard_messages()) {
      return;
    }
    const Duration logical_cost =
        self->runtime_->options().sharded_buffer_bookkeeping
            ? Duration::Micros(2) *
                  static_cast<std::int64_t>(self->program_->results().size())
            : Duration::Zero();
    self->client_cpu_->Submit(logical_cost, [self] {
      if (self->aborted_) return;
      ExecutionResult result;
      for (const ValueRef& r : self->program_->results()) {
        if (r.kind == ValueRef::Kind::kNodeOutput) {
          result.outputs.push_back(
              self->nodes_[static_cast<std::size_t>(r.index)].output);
        } else {
          result.outputs.push_back(
              self->args_[static_cast<std::size_t>(r.index)]);
        }
      }
      self->finished_ = true;
      // Retiring the gang tickets keeps the ordering diagnostics registry
      // from growing over a long run.
      for (const NodeState& node : self->nodes_) {
        self->runtime_->object_store().FinishTicket(node.ticket);
      }
      self->done_promise_.Set(std::move(result));
      self->runtime_->OnExecutionFinished(self->id_, /*success=*/true);
    });
  });
}

bool ProgramExecution::UsesDevice(hw::DeviceId dev) const {
  for (const NodeState& node : nodes_) {
    for (const hw::DeviceId d : node.devices) {
      if (d == dev) return true;
    }
  }
  return false;
}

void ProgramExecution::Abort() {
  if (aborted_ || finished_) return;
  aborted_ = true;
  // Unwind order matters only in that aborted_ is set first: every
  // continuation the force-fires below schedule will observe it and no-op.
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    NodeState& node = nodes_[n];
    // Release devices parked at (or later arriving at) this gang's
    // rendezvous — their peer on the failed device is never coming.
    if (node.group != nullptr) node.group->Abort();
    if (!node.client_release.fulfilled()) node.client_release.Set(sim::Unit{});
    node.enqueue_latch.ForceComplete();
    // NodeComplete() observers (gang-scheduler admission slots) fire here.
    node.completion_latch.ForceComplete();
    for (std::size_t s = 0; s < node.shards.size(); ++s) {
      ShardState& shard = node.shards[s];
      if (!shard.prep_done.fulfilled()) shard.prep_done.Set(sim::Unit{});
      if (!shard.output_ready.fulfilled()) shard.output_ready.Set(sim::Unit{});
      for (int op = 0; op < node.operands; ++op) {
        const int latch =
            InputLatch(static_cast<int>(n), op, static_cast<int>(s));
        input_latches_[static_cast<std::size_t>(latch)].ForceComplete();
      }
    }
  }
  // Unpin every read that will now never happen — argument buffers outlive
  // this execution and must not stay spill-protected by a dead reader.
  // (aborted_ is already set, so late read-completion callbacks no-op.)
  for (const auto& [buf, shard] : outstanding_reads_) {
    runtime_->object_store().UnpinShard(buf, shard);
  }
  outstanding_reads_.clear();
  // Collect everything this execution produced (output buffers, reserved or
  // deferred). Scratch is freed by the executor continuations as the dropped
  // kernels' completion futures fire.
  runtime_->object_store().ReleaseAllForProducer(id_);
  for (const NodeState& node : nodes_) {
    runtime_->object_store().FinishTicket(node.ticket);
  }
  done_promise_.Set(ExecutionResult{.outputs = {}, .failed = true});
  runtime_->OnExecutionFinished(id_, /*success=*/false);
}

}  // namespace pw::pathways
