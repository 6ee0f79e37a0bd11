#include "pathways/program.h"

#include <algorithm>

namespace pw::pathways {

ValueRef ProgramBuilder::Call(xlasim::CompiledFunction fn,
                              const VirtualSlice& slice,
                              std::vector<ValueRef> inputs, std::string name) {
  PW_CHECK_EQ(fn.num_shards, slice.num_devices())
      << "function " << fn.name << " has " << fn.num_shards
      << " shards but slice has " << slice.num_devices() << " devices";
  // The new node's distinct producers go straight onto the end of the CSR
  // array, kept sorted and deduplicated by insertion: operands mostly arrive
  // in ascending order, which makes that one comparison each.
  std::vector<int>& producers = program_.producers_;
  const auto first = static_cast<std::ptrdiff_t>(producers.size());
  for (const ValueRef& in : inputs) {
    if (in.kind == ValueRef::Kind::kNodeOutput) {
      PW_CHECK_GE(in.index, 0);
      PW_CHECK_LT(in.index, program_.num_nodes()) << "input from unknown node";
      auto pos = producers.end();
      while (pos - producers.begin() > first && *(pos - 1) > in.index) --pos;
      if (pos - producers.begin() == first || *(pos - 1) != in.index) {
        producers.insert(pos, in.index);
      }
    } else {
      PW_CHECK_GE(in.index, 0);
      PW_CHECK_LT(in.index, program_.num_arguments());
    }
  }
  for (auto p = producers.begin() + first; p != producers.end(); ++p) {
    ++program_.info_[static_cast<std::size_t>(*p)].num_consumers;
  }
  program_.info_.push_back(
      {.producers_end = static_cast<int>(producers.size())});

  const int id = program_.num_nodes();
  std::vector<IslandSubgraph>& subgraphs = *program_.subgraphs_;
  auto sub = std::find_if(subgraphs.begin(), subgraphs.end(),
                          [&](const IslandSubgraph& s) {
                            return s.island >= slice.island;
                          });
  if (sub == subgraphs.end() || sub->island != slice.island) {
    sub = subgraphs.insert(sub, IslandSubgraph{slice.island, {}});
  }
  sub->nodes.push_back(id);

  ComputationNode& node = program_.nodes_.emplace_back();
  node.id = id;
  node.name = name.empty() ? fn.name : std::move(name);
  node.fn = std::move(fn);
  node.slice = slice;
  node.inputs = std::move(inputs);
  return ValueRef::Node(id);
}

ValueRef ProgramBuilder::CallIrregular(xlasim::CompiledFunction fn,
                                       const VirtualSlice& slice,
                                       std::vector<ValueRef> inputs,
                                       std::string name) {
  const ValueRef ref =
      Call(std::move(fn), slice, std::move(inputs), std::move(name));
  program_.nodes_.back().irregular = true;
  return ref;
}

void ProgramBuilder::Result(ValueRef v) {
  program_.results_.push_back(v);
  if (v.kind != ValueRef::Kind::kNodeOutput) return;
  PW_CHECK_GE(v.index, 0);
  PW_CHECK_LT(v.index, program_.num_nodes()) << "result from unknown node";
  PathwaysProgram::NodeInfo& info =
      program_.info_[static_cast<std::size_t>(v.index)];
  if (info.is_result) return;
  info.is_result = true;
  program_.result_shard_messages_ += program_.node(v.index).fn.num_shards;
}

PathwaysProgram ProgramBuilder::Build() && {
  PW_CHECK_GT(program_.num_nodes(), 0) << "empty program";
  if (program_.results_.empty()) {
    // Default: the last node's output is the result.
    Result(ValueRef::Node(program_.num_nodes() - 1));
  }
  PW_CHECK(std::any_of(program_.results_.begin(), program_.results_.end(),
                       [](const ValueRef& r) {
                         return r.kind == ValueRef::Kind::kNodeOutput;
                       }))
      << program_.name() << ": no computed results";
  return std::move(program_);
}

}  // namespace pw::pathways
