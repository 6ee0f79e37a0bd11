// Pathways program IR and tracer (paper §3, §4.2).
//
// A PathwaysProgram is a device-location-agnostic DAG: each node is one
// *sharded* compiled function placed on a virtual slice, each edge is a
// logical (sharded) buffer flowing between nodes — the compact
// representation requirement again: node/edge counts are independent of
// shard counts. The ProgramBuilder is the "program tracer" of Fig. 2: user
// code calls compiled functions on traced values and gets a single
// multi-node program instead of one RPC per function.
//
// Everything that depends only on the program is fixed at trace time: the
// tracer fills each node's consumer count, distinct producers and result
// flag, the per-island subgraphs and the expected result-shard message count
// as nodes and results are appended, so running a program never rescans
// its edges. Only placement is resolved per execution: ProgramExecution
// looks each virtual device up in the resource manager when it is created,
// so a program run again after a remap lands on the new devices.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "pathways/ids.h"
#include "pathways/virtual_device.h"
#include "xlasim/compiled_function.h"

namespace pw::pathways {

// A value traced by the ProgramBuilder: either a program argument or the
// output of a computation node.
struct ValueRef {
  enum class Kind { kArgument, kNodeOutput };
  Kind kind = Kind::kArgument;
  int index = -1;  // argument index or node id

  static ValueRef Arg(int i) { return ValueRef{Kind::kArgument, i}; }
  static ValueRef Node(int i) { return ValueRef{Kind::kNodeOutput, i}; }
};

struct ComputationNode {
  int id = -1;
  xlasim::CompiledFunction fn;
  VirtualSlice slice;             // slice.num_devices() == fn.num_shards
  std::vector<ValueRef> inputs;   // operand order
  std::string name;
  // Data-dependent control flow: this node's resource requirements are not
  // known until its predecessors complete, so parallel asynchronous
  // dispatch cannot pre-run its host-side work — the scheduler falls back
  // to the traditional model for it (paper §4.5).
  bool irregular = false;
};

// The program's nodes placed on one island, in program (topological) order:
// the subgraph one RPC carries to that island's gang scheduler (§4.5).
struct IslandSubgraph {
  hw::IslandId island;
  std::vector<int> nodes;
};

class PathwaysProgram {
 public:
  explicit PathwaysProgram(std::string name)
      : name_(std::move(name)),
        subgraphs_(std::make_shared<std::vector<IslandSubgraph>>()) {}

  const std::string& name() const { return name_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_arguments() const { return num_arguments_; }
  const ComputationNode& node(int id) const {
    return nodes_.at(static_cast<std::size_t>(id));
  }
  const std::vector<ComputationNode>& nodes() const { return nodes_; }
  const std::vector<ValueRef>& results() const { return results_; }

  // Number of distinct nodes that read this node's output.
  int num_consumers(int node_id) const { return Info(node_id).num_consumers; }
  // Distinct nodes whose outputs this node reads, ascending.
  std::span<const int> producers(int node_id) const {
    const int begin = node_id == 0 ? 0 : Info(node_id - 1).producers_end;
    return std::span<const int>(producers_).subspan(
        static_cast<std::size_t>(begin),
        static_cast<std::size_t>(Info(node_id).producers_end - begin));
  }
  // True if this node's output is returned as a program result.
  bool is_result(int node_id) const { return Info(node_id).is_result; }
  // Completion messages the client collects per run: one per shard of each
  // distinct result node.
  int result_shard_messages() const { return result_shard_messages_; }
  // Nodes grouped by island, ascending island id. Shared so subgraph RPCs
  // still in flight can outlive a single-use program.
  std::shared_ptr<const std::vector<IslandSubgraph>> subgraphs() const {
    return subgraphs_;
  }

 private:
  friend class ProgramBuilder;

  // Per-node facts, appended with the node. Producers are stored CSR-style:
  // node i's are producers_[info_[i - 1].producers_end, info_[i].producers_end).
  struct NodeInfo {
    int producers_end = 0;
    int num_consumers = 0;
    bool is_result = false;
  };
  const NodeInfo& Info(int node_id) const {
    return info_.at(static_cast<std::size_t>(node_id));
  }

  std::string name_;
  int num_arguments_ = 0;
  std::vector<ComputationNode> nodes_;
  std::vector<ValueRef> results_;
  std::vector<NodeInfo> info_;
  std::vector<int> producers_;
  int result_shard_messages_ = 0;
  std::shared_ptr<std::vector<IslandSubgraph>> subgraphs_;
};

class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name) : program_(std::move(name)) {}

  // Declares a program argument (a ShardedBuffer supplied at run time).
  ValueRef Argument() { return ValueRef::Arg(program_.num_arguments_++); }

  // Traces a call of `fn` on `inputs`, placed on `slice`.
  ValueRef Call(xlasim::CompiledFunction fn, const VirtualSlice& slice,
                std::vector<ValueRef> inputs, std::string name = "");

  // Traces a call whose shapes depend on its input *values* (data-dependent
  // control flow, e.g. MoE routing): dispatched with the sequential
  // fallback.
  ValueRef CallIrregular(xlasim::CompiledFunction fn,
                         const VirtualSlice& slice,
                         std::vector<ValueRef> inputs, std::string name = "");

  // Marks a value as a program result.
  void Result(ValueRef v);

  PathwaysProgram Build() &&;

 private:
  PathwaysProgram program_;
};

}  // namespace pw::pathways
