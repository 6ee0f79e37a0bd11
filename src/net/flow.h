// Flow-level network engine over an explicit Topology (docs/NETWORK.md).
//
// Active transfers are modeled as fluid flows that share every link on
// their path max-min fairly. The allocation is recomputed at each flow
// start, flow finish, and link-capacity change — the standard fluid
// approximation used by flow-level simulators — so a transfer's rate rises
// and falls as competitors come and go, and effects the scalar fabric
// cannot express (incast at a destination NIC, Clos oversubscription,
// one degraded edge slowing exactly the paths that cross it) fall out of
// the link graph.
//
// A recomputation re-solves only the flows connected, through shared
// links, to a link whose flow set changed (the new flow's links, the
// delivered flows' links); every other flow keeps its rate. Flows that
// share no link chain with those are a separate max-min problem, and the
// water-filling picks each one's bottlenecks in the same order and makes
// the same subtractions whether it runs alone or inside a solve over all
// flows, so the rates equal the global solve's bit for bit. A link
// capacity change (the topology generation moved) re-solves every flow.
//
// Determinism: every recomputation runs inside a simulator event, ordered
// by (time, seq) like everything else; flows are iterated in start order;
// the water-filling bottleneck tie-break is the lowest link index; and
// predicted completion times are ceilinged to integer nanoseconds. Two runs
// of the same scenario schedule byte-identical event sequences.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "net/collective_model.h"
#include "net/topology.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace pw::net {

// Max-min fair (water-filling) rates, in bytes/sec, for `paths` over the
// effective link bandwidths of `topo`. Repeatedly finds the bottleneck link
// — the one whose remaining capacity divided by its unfixed-flow count is
// smallest, ties to the lowest link index — and fixes every flow crossing
// it at that fair share, subtracting the share from each link on the fixed
// flow's path (flows in index order). A solve costs O(total path length +
// iterations · links still loaded): per-link state lives in dense arrays
// indexed by LinkIndex, and a link→flow incidence list means fixing a
// bottleneck visits only the flows that cross it. The order of operations
// is fixed, so results are bit-stable.
//
// The solver object owns its buffers and reuses them across Solve calls,
// so a warm solver does not allocate.
class MaxMinFairSolver {
 public:
  // Writes one rate per path into *rates (resized to paths.size()). Every
  // path must be non-empty; a path may cross a link more than once.
  void Solve(const Topology& topo,
             const std::vector<const std::vector<LinkIndex>*>& paths,
             std::vector<double>* rates);

 private:
  // By LinkIndex, sized to the topology at solve time. count_ is all zeros
  // between solves (every crossing it counts is undone when its flow is
  // fixed), so a link's first crossing in a solve is the one that finds
  // count_ == 0; the other arrays are written before they are read.
  std::vector<double> remaining_;  // capacity not yet handed out
  std::vector<int> count_;         // crossings by unfixed flows
  std::vector<int> first_;         // its range in incidence_: [first_, last_)
  std::vector<int> last_;
  // Links crossed by an unfixed flow, ascending; the bottleneck scan drops
  // the ones whose count reached zero.
  std::vector<LinkIndex> loaded_;
  std::vector<int> incidence_;  // flow indices per link, ascending
  std::vector<char> fixed_;     // by flow index
};

// One-shot MaxMinFairSolver::Solve.
std::vector<double> MaxMinFairRates(
    const Topology& topo, const std::vector<const std::vector<LinkIndex>*>& paths);

class FlowNetwork {
 public:
  FlowNetwork(sim::Simulator* sim, Topology* topo) : sim_(sim), topo_(topo) {
    PW_CHECK(sim_ != nullptr);
    PW_CHECK(topo_ != nullptr);
  }
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  // Starts a flow of `bytes` over `path` (non-empty). When the last byte
  // drains, `on_delivered` is scheduled `delivery_latency` later
  // (serialization finish + propagation, the flow-level analogue of
  // Link::Transfer's store-and-forward accounting).
  void StartFlow(std::vector<LinkIndex> path, Bytes bytes,
                 Duration delivery_latency,
                 sim::InlineFunction<void()> on_delivered);

  // Call after Topology::SetLinkScale so active flows re-share the new
  // capacities from now() onward (bytes already moved stay moved). Without
  // the call they re-share at the next start or finish: any recomputation
  // that sees a new topology generation re-solves every flow.
  void OnCapacityChanged();

  int active_flows() const { return static_cast<int>(order_.size()); }
  std::int64_t flows_started() const { return flows_started_; }
  std::int64_t flows_completed() const { return flows_completed_; }

 private:
  struct Flow {
    std::vector<LinkIndex> path;
    double remaining = 0;  // bytes left to drain
    double rate = 0;       // current fair share, bytes/sec
    Duration latency;
    sim::InlineFunction<void()> on_delivered;
    bool reached = false;  // by the component search; false between recomputes
  };

  // Advances progress to now(), delivers ripe flows, re-solves the fair
  // shares of the survivors connected to a dirty link, and re-arms the
  // next-completion timer.
  void Recompute();
  // Adds `l` to dirty_ unless it is already there.
  void MarkDirty(LinkIndex l);

  sim::Simulator* sim_;
  Topology* topo_;
  // Flows live in stable slots; a delivered flow's slot is reused.
  std::vector<Flow> slots_;
  std::vector<int> free_slots_;
  std::vector<int> order_;  // active flows' slots, in start order
  // By LinkIndex: the active slots crossing the link (once per crossing).
  std::vector<std::vector<int>> link_flows_;
  // Links whose flow set changed since the last solve; the component
  // search appends every link it reaches.
  std::vector<LinkIndex> dirty_;
  std::vector<char> is_dirty_;  // by LinkIndex; all zero between recomputes
  // Topology generation of the last solve; a recompute that sees another
  // re-solves every flow.
  std::uint64_t solved_generation_ = 0;
  TimePoint last_update_;
  sim::EventHandle next_completion_;
  std::int64_t flows_started_ = 0;
  std::int64_t flows_completed_ = 0;
  // Recompute's solver and its input/output, kept warm across calls.
  MaxMinFairSolver solver_;
  std::vector<int> affected_;  // slots to re-solve, in start order
  std::vector<const std::vector<LinkIndex>*> paths_;
  std::vector<double> rates_;
};

// CollectiveModel backed by the flow solver over a torus: phases are
// decomposed into per-link flows and charged their max-min rates, instead
// of the single-bottleneck analytic formula.
//
//   ring: over the snake ring of the first n nodes; all-reduce is 2(n-1)
//         steps of B/n-byte chunk exchanges (reduce-scatter + all-gather),
//         each step paying its worst path latency plus chunk/min-rate.
//   tree: ceil(log2 n) rounds of pairwise halving/doubling over the same
//         node set, full-B payloads, per-round max-min rates.
//
// All-reduce takes min(ring, tree) — the size-based algorithm choice: the
// tree wins for small payloads (fewer latency hops), the ring for large
// (bandwidth-optimal). Per-(n) schedules are cached and invalidated by the
// topology generation, so a degraded ICI link reprices collectives.
class FlowCollectiveModel : public CollectiveModel {
 public:
  FlowCollectiveModel(CollectiveParams params, const Topology* topo,
                      const TorusTopology* torus)
      : CollectiveModel(params), topo_(topo), torus_(torus) {
    PW_CHECK(topo_ != nullptr);
    PW_CHECK(torus_ != nullptr);
  }

  Duration Time(CollectiveKind kind, Bytes bytes, int n) const override;

  // Exposed for tests and the ring-vs-tree crossover analysis.
  Duration RingTime(CollectiveKind kind, Bytes bytes, int n) const;
  Duration TreeTime(CollectiveKind kind, Bytes bytes, int n) const;

 private:
  struct StepCost {
    double min_rate = 0;  // slowest flow's max-min rate in the step/round
    int max_hops = 1;     // longest path in the step/round
  };

  const StepCost& RingStep(int n) const;
  const std::vector<StepCost>& TreeRounds(int n) const;
  void MaybeInvalidate() const;

  const Topology* topo_;
  const TorusTopology* torus_;
  mutable std::uint64_t cache_generation_ = ~std::uint64_t{0};
  mutable std::map<int, StepCost> ring_cache_;
  mutable std::map<int, std::vector<StepCost>> tree_cache_;
};

}  // namespace pw::net
