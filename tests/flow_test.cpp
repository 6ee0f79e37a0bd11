// Tests for the flow-level network model (net/topology.h, net/flow.h):
// explicit torus/Clos topologies, the max-min fair (water-filling) solver,
// the event-driven FlowNetwork, and the FlowCollectiveModel — including the
// uncontended-agreement checks against the analytic CollectiveModel and the
// contention effects (incast, oversubscription) the scalar fabric cannot
// express.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hw/cluster.h"
#include "net/collective_model.h"
#include "net/dcn.h"
#include "net/flow.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace pw::net {
namespace {

// ------------------------------------------------------------- Topology --

TEST(TorusTopologyTest, BalancedDims) {
  EXPECT_EQ(TorusTopology::BalancedDims(16, 2), (std::vector<int>{4, 4}));
  EXPECT_EQ(TorusTopology::BalancedDims(12, 2), (std::vector<int>{3, 4}));
  EXPECT_EQ(TorusTopology::BalancedDims(7, 2), (std::vector<int>{1, 7}));
  EXPECT_EQ(TorusTopology::BalancedDims(64, 3), (std::vector<int>{4, 4, 4}));
  EXPECT_EQ(TorusTopology::BalancedDims(24, 3), (std::vector<int>{2, 3, 4}));
}

TEST(TorusTopologyTest, DimensionOrderedMinimalRoutes) {
  Topology topo;
  TorusTopology torus(&topo, {4, 4}, 100e9);
  EXPECT_EQ(torus.num_nodes(), 16);
  EXPECT_EQ(topo.num_links(), 16u * 4);  // 2 dims x 2 dirs per node
  // Neighbors are one hop.
  EXPECT_EQ(torus.Distance(0, 1), 1);
  EXPECT_EQ(torus.Distance(0, 4), 1);
  // Wraparound: node 0 -> node 3 is one negative hop, not three positive.
  EXPECT_EQ(torus.Distance(0, 3), 1);
  // Opposite corner of a 4x4 torus: 2 + 2 wrap hops.
  EXPECT_EQ(torus.Distance(0, 10), 4);
  // Routes are loop-free link lists.
  const std::vector<LinkIndex> path = torus.Path(0, 10);
  EXPECT_EQ(path.size(), 4u);
  EXPECT_EQ(std::set<LinkIndex>(path.begin(), path.end()).size(), 4u);
  EXPECT_TRUE(torus.Path(5, 5).empty());
}

TEST(TorusTopologyTest, SnakeRingVisitsAllNodesViaNeighbors) {
  for (const std::vector<int>& dims :
       {std::vector<int>{4, 4}, {3, 5}, {1, 7}, {2, 3, 4}}) {
    Topology topo;
    TorusTopology torus(&topo, dims, 100e9);
    const std::vector<int>& order = torus.ring_order();
    ASSERT_EQ(static_cast<int>(order.size()), torus.num_nodes());
    std::set<int> seen(order.begin(), order.end());
    EXPECT_EQ(static_cast<int>(seen.size()), torus.num_nodes());
    // Consecutive snake entries are torus neighbors (single-hop routes), so
    // ring collectives embed on mostly disjoint links.
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      EXPECT_EQ(torus.Distance(order[i], order[i + 1]), 1)
          << "entries " << i << " and " << i + 1;
    }
  }
}

TEST(ClosTopologyTest, PathsAndOversubscription) {
  Topology topo;
  ClosTopology clos(&topo, {.hosts_per_leaf = 4,
                            .num_spines = 2,
                            .host_bandwidth = 10e9,
                            .spine_bandwidth = 0,
                            .oversubscription = 2.0});
  for (int h = 0; h < 8; ++h) clos.AddHost();
  EXPECT_EQ(clos.num_leaves(), 2);
  EXPECT_DOUBLE_EQ(clos.oversubscription(), 2.0);
  // R = hosts_per_leaf*nic / (spines*uplink) => uplink = 4*10/(2*2) = 10 GB/s.
  EXPECT_DOUBLE_EQ(clos.spine_bandwidth(), 10e9);
  // Same-leaf route: up + down only.
  EXPECT_EQ(clos.Path(0, 1).size(), 2u);
  // Cross-leaf route: up, leaf->spine, spine->leaf, down.
  const auto path = clos.Path(0, 5);
  EXPECT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), clos.host_up(0));
  EXPECT_EQ(path.back(), clos.host_down(5));
  // ECMP is deterministic: same pair, same path.
  EXPECT_EQ(clos.Path(0, 5), clos.Path(0, 5));
}

// ------------------------------------------------------- MaxMinFairRates --

TEST(MaxMinFairTest, SingleFlowGetsFullLink) {
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 8e9);
  const std::vector<LinkIndex> path{l};
  const auto rates = MaxMinFairRates(topo, {&path});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 8e9);
}

TEST(MaxMinFairTest, EqualSharesOnSharedBottleneck) {
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 9e9);
  const std::vector<LinkIndex> path{l};
  const auto rates = MaxMinFairRates(topo, {&path, &path, &path});
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 3e9);
}

TEST(MaxMinFairTest, WaterFillingRedistributesSlack) {
  // Classic three-flow example: A crosses l1 (10) only, B crosses l1+l2,
  // C crosses l2 (5) only. Bottleneck l2 first: B and C fixed at 2.5; A
  // then takes the rest of l1: 7.5.
  Topology topo;
  const LinkIndex l1 = topo.AddLink("l1", 10.0);
  const LinkIndex l2 = topo.AddLink("l2", 5.0);
  const std::vector<LinkIndex> pa{l1}, pb{l1, l2}, pc{l2};
  const auto rates = MaxMinFairRates(topo, {&pa, &pb, &pc});
  EXPECT_DOUBLE_EQ(rates[0], 7.5);
  EXPECT_DOUBLE_EQ(rates[1], 2.5);
  EXPECT_DOUBLE_EQ(rates[2], 2.5);
}

TEST(MaxMinFairTest, DegradedLinkScalesShares) {
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 10e9);
  topo.SetLinkScale(l, 0.5);
  const std::vector<LinkIndex> path{l};
  const auto rates = MaxMinFairRates(topo, {&path, &path});
  EXPECT_DOUBLE_EQ(rates[0], 2.5e9);
  EXPECT_DOUBLE_EQ(rates[1], 2.5e9);
}

// The straightforward water-filling the production solver must reproduce
// bit for bit: per-solve maps over the touched links, and a scan of every
// unfixed flow's path for the bottleneck on each iteration.
std::vector<double> ReferenceMaxMinFairRates(
    const Topology& topo,
    const std::vector<const std::vector<LinkIndex>*>& paths) {
  const std::size_t n = paths.size();
  std::vector<double> rates(n, 0.0);
  if (n == 0) return rates;

  // Per-link remaining capacity and unfixed-flow crossing count, over just
  // the links these paths touch. A path may cross a link more than once
  // (not the case for torus/Clos routes, but the solver stays general).
  std::map<LinkIndex, double> remaining;
  std::map<LinkIndex, int> count;
  for (const auto* path : paths) {
    PW_CHECK(!path->empty()) << "flow with empty path";
    for (LinkIndex l : *path) {
      remaining.try_emplace(l, topo.EffectiveBandwidth(l));
      ++count[l];
    }
  }

  std::vector<bool> fixed(n, false);
  std::size_t unfixed = n;
  while (unfixed > 0) {
    // Bottleneck: smallest fair share; ties to the lowest link index (the
    // map iterates in index order, so `<` keeps the first).
    LinkIndex bottleneck = -1;
    double share = std::numeric_limits<double>::infinity();
    for (const auto& [l, cap] : remaining) {
      const int c = count[l];
      if (c == 0) continue;
      const double s = std::max(cap, 0.0) / c;
      if (s < share) {
        share = s;
        bottleneck = l;
      }
    }
    PW_CHECK_GE(bottleneck, 0) << "unfixed flows but no loaded link";
    for (std::size_t f = 0; f < n; ++f) {
      if (fixed[f]) continue;
      const auto& path = *paths[f];
      if (std::find(path.begin(), path.end(), bottleneck) == path.end()) {
        continue;
      }
      rates[f] = share;
      fixed[f] = true;
      --unfixed;
      for (LinkIndex l : path) {
        remaining[l] -= share;
        --count[l];
      }
    }
  }
  return rates;
}

TEST(MaxMinFairTest, MatchesReferenceBitForBitOnRandomCases) {
  // Seeded random cases over Clos and torus link graphs: routed paths,
  // arbitrary link lists that may repeat a link, degraded links, and the
  // exact ties that uniform bandwidths produce. One solver is reused across
  // all cases (and across topologies of different sizes), as FlowNetwork
  // reuses its own; the one-shot entry point must agree as well.
  constexpr int kCases = 300;
  Rng rng(20221117);
  MaxMinFairSolver solver;
  std::vector<double> reused;
  for (int c = 0; c < kCases; ++c) {
    Topology topo;
    std::vector<std::vector<LinkIndex>> routes;  // candidate routed paths
    if (rng.NextBounded(2) == 0) {
      const double nic = rng.NextBounded(2) == 0 ? 10e9 : 12.5e9;
      ClosTopology clos(
          &topo, {.hosts_per_leaf = 1 + static_cast<int>(rng.NextBounded(8)),
                  .num_spines = 1 + static_cast<int>(rng.NextBounded(4)),
                  .host_bandwidth = nic,
                  .spine_bandwidth = 0,
                  .oversubscription = 1.0 + static_cast<double>(rng.NextBounded(4))});
      const int hosts = 2 + static_cast<int>(rng.NextBounded(40));
      for (int h = 0; h < hosts; ++h) clos.AddHost();
      for (int s = 0; s < hosts; ++s) {
        for (int d = 0; d < hosts; ++d) {
          if (s != d) routes.push_back(clos.Path(s, d));
        }
      }
    } else {
      std::vector<int> dims;
      const int ndims = 2 + static_cast<int>(rng.NextBounded(2));
      for (int i = 0; i < ndims; ++i) {
        dims.push_back(1 + static_cast<int>(rng.NextBounded(5)));
      }
      TorusTopology torus(&topo, dims, 100e9);
      for (int s = 0; s < torus.num_nodes(); ++s) {
        for (int d = 0; d < torus.num_nodes(); ++d) {
          if (s != d) routes.push_back(torus.Path(s, d));
        }
      }
    }
    const auto num_links = static_cast<std::uint64_t>(topo.num_links());
    const int degraded = static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < degraded; ++i) {
      topo.SetLinkScale(static_cast<LinkIndex>(rng.NextBounded(num_links)),
                        rng.NextBounded(2) == 0 ? 0.25 : rng.NextDouble(0.05, 1.0));
    }

    const int n = 1 + static_cast<int>(rng.NextBounded(600));
    std::vector<std::vector<LinkIndex>> paths;
    for (int f = 0; f < n; ++f) {
      if (!routes.empty() && rng.NextBounded(8) != 0) {
        paths.push_back(routes[rng.NextBounded(routes.size())]);
        continue;
      }
      // Arbitrary link list: random links, repeats allowed.
      std::vector<LinkIndex> path;
      const int len = 1 + static_cast<int>(rng.NextBounded(6));
      for (int i = 0; i < len; ++i) {
        path.push_back(static_cast<LinkIndex>(rng.NextBounded(num_links)));
      }
      if (rng.NextBounded(4) == 0) path.push_back(path.front());
      paths.push_back(std::move(path));
    }
    std::vector<const std::vector<LinkIndex>*> ptrs;
    for (const auto& p : paths) ptrs.push_back(&p);

    const std::vector<double> want = ReferenceMaxMinFairRates(topo, ptrs);
    const std::vector<double> got = MaxMinFairRates(topo, ptrs);
    solver.Solve(topo, ptrs, &reused);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(reused.size(), want.size());
    for (std::size_t f = 0; f < want.size(); ++f) {
      ASSERT_EQ(got[f], want[f]) << "case " << c << ", flow " << f << " of " << n;
      ASSERT_EQ(reused[f], want[f]) << "case " << c << ", flow " << f << " of " << n;
    }
  }
}

// ----------------------------------------------------------- FlowNetwork --

TEST(FlowNetworkTest, UncontendedFlowMatchesLinkArithmetic) {
  sim::Simulator sim;
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 1e9);
  FlowNetwork net(&sim, &topo);
  double arrival_us = 0;
  net.StartFlow({l}, 10000, Duration::Micros(20),
                [&] { arrival_us = sim.now().ToMicros(); });
  sim.Run();
  // 10 KB at 1 GB/s = 10 us drain + 20 us latency, exactly like a Link.
  EXPECT_DOUBLE_EQ(arrival_us, 30.0);
  EXPECT_EQ(net.flows_completed(), 1);
}

TEST(FlowNetworkTest, TwoFlowsShareThenSpeedUp) {
  // Two equal flows on one link take 2x; after the first finishes, a third
  // joining flow gets the whole link. Checks the recompute-at-finish path.
  sim::Simulator sim;
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 1e9);
  FlowNetwork net(&sim, &topo);
  std::vector<double> arrivals;
  auto record = [&] { arrivals.push_back(sim.now().ToMicros()); };
  net.StartFlow({l}, 10000, Duration::Zero(), record);
  net.StartFlow({l}, 10000, Duration::Zero(), record);
  sim.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Both share 0.5 GB/s for the full 10 KB: 20 us each.
  EXPECT_NEAR(arrivals[0], 20.0, 0.01);
  EXPECT_NEAR(arrivals[1], 20.0, 0.01);
}

TEST(FlowNetworkTest, LateJoinerSlowsInFlight) {
  sim::Simulator sim;
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 1e9);
  FlowNetwork net(&sim, &topo);
  double first_us = 0, second_us = 0;
  net.StartFlow({l}, 20000, Duration::Zero(),
                [&] { first_us = sim.now().ToMicros(); });
  sim.Schedule(Duration::Micros(10), [&] {
    net.StartFlow({l}, 20000, Duration::Zero(),
                  [&] { second_us = sim.now().ToMicros(); });
  });
  sim.Run();
  // Flow 1 runs alone for 10 us (10 KB done), then shares: remaining 10 KB
  // at 0.5 GB/s = 20 us more -> 30 us. Flow 2: 10 KB shared (20 us) + last
  // 10 KB alone (10 us) -> 40 us.
  EXPECT_NEAR(first_us, 30.0, 0.01);
  EXPECT_NEAR(second_us, 40.0, 0.01);
}

TEST(FlowNetworkTest, CapacityChangeReshapesActiveFlows) {
  sim::Simulator sim;
  Topology topo;
  const LinkIndex l = topo.AddLink("l", 1e9);
  FlowNetwork net(&sim, &topo);
  double arrival_us = 0;
  net.StartFlow({l}, 20000, Duration::Zero(),
                [&] { arrival_us = sim.now().ToMicros(); });
  sim.Schedule(Duration::Micros(10), [&] {
    topo.SetLinkScale(l, 0.5);  // NIC degrade mid-flight
    net.OnCapacityChanged();
  });
  sim.Run();
  // 10 KB at full rate (10 us), remaining 10 KB at 0.5 GB/s (20 us).
  EXPECT_NEAR(arrival_us, 30.0, 0.01);
}

TEST(FlowNetworkTest, DeterministicAcrossRuns) {
  auto run = [] {
    sim::Simulator sim;
    Topology topo;
    TorusTopology torus(&topo, {4, 4}, 1e9);
    FlowNetwork net(&sim, &topo);
    std::vector<std::int64_t> arrivals;
    for (int i = 0; i < 16; ++i) {
      net.StartFlow(torus.Path(i, (i * 7 + 3) % 16), 10000 + 137 * i,
                    Duration::Micros(1),
                    [&arrivals, &sim] { arrivals.push_back(sim.now().nanos()); });
    }
    sim.Run();
    return arrivals;
  };
  EXPECT_EQ(run(), run());  // bit-identical completion schedule
}

// Reference flow engine: every recompute re-solves all active flows
// globally. The advance, deliver and ceil arithmetic, and the timer
// cancel/re-arm, are FlowNetwork's, so FlowNetwork's component re-solve
// must deliver every flow at the same nanosecond as this one.
class GlobalSolveFlowNetwork {
 public:
  GlobalSolveFlowNetwork(sim::Simulator* sim, Topology* topo)
      : sim_(sim), topo_(topo) {}

  void StartFlow(std::vector<LinkIndex> path, Bytes bytes, Duration latency,
                 sim::InlineFunction<void()> on_delivered) {
    Flow& flow = flows_.emplace_back();
    flow.path = std::move(path);
    flow.remaining = std::max<double>(static_cast<double>(bytes), 1.0);
    flow.latency = latency;
    flow.on_delivered = std::move(on_delivered);
    Recompute();
  }
  void OnCapacityChanged() {
    if (!flows_.empty()) Recompute();
  }

 private:
  struct Flow {
    std::vector<LinkIndex> path;
    double remaining = 0;
    double rate = 0;
    Duration latency;
    sim::InlineFunction<void()> on_delivered;
  };

  void Recompute() {
    const TimePoint now = sim_->now();
    const double dt = (now - last_update_).ToSeconds();
    if (dt > 0) {
      for (Flow& flow : flows_) {
        flow.remaining = std::max(flow.remaining - flow.rate * dt, 0.0);
      }
    }
    last_update_ = now;
    std::vector<Flow> kept;
    for (Flow& flow : flows_) {
      if (flow.remaining < 1e-3) {
        sim_->ScheduleAt(now + flow.latency, std::move(flow.on_delivered));
      } else {
        kept.push_back(std::move(flow));
      }
    }
    flows_ = std::move(kept);
    if (flows_.empty()) {
      if (next_.valid()) sim_->Cancel(next_);
      next_ = sim::EventHandle();
      return;
    }
    std::vector<const std::vector<LinkIndex>*> paths;
    for (const Flow& flow : flows_) paths.push_back(&flow.path);
    const std::vector<double> rates = MaxMinFairRates(*topo_, paths);
    std::int64_t next_ns = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      Flow& flow = flows_[i];
      flow.rate = rates[i];
      const double dt_ns = flow.remaining / flow.rate * 1e9;
      const auto ceil_ns = static_cast<std::int64_t>(std::ceil(dt_ns));
      next_ns = std::min(next_ns,
                         now.nanos() + std::max<std::int64_t>(ceil_ns, 1));
    }
    if (next_.valid()) sim_->Cancel(next_);
    next_ = sim_->ScheduleAt(TimePoint::FromNanos(next_ns),
                             [this] { Recompute(); });
  }

  sim::Simulator* sim_;
  Topology* topo_;
  std::vector<Flow> flows_;
  TimePoint last_update_;
  sim::EventHandle next_;
};

// A flow schedule over a bare link table: starts at given nanoseconds, and
// link-scale changes that may or may not be followed by OnCapacityChanged.
struct FlowSchedule {
  struct Start {
    std::int64_t at_ns = 0;
    std::vector<LinkIndex> path;
    Bytes bytes = 0;
    std::int64_t latency_ns = 0;
  };
  struct Scale {
    std::int64_t at_ns = 0;
    LinkIndex link = 0;
    double scale = 1.0;
    bool notify = true;  // call OnCapacityChanged after SetLinkScale
  };
  std::vector<double> bandwidths;  // one link each
  std::vector<Start> starts;
  std::vector<Scale> scales;
};

// Runs `schedule` on a fresh simulator and returns (start index, delivery
// ns) in delivery order.
template <typename Engine>
std::vector<std::pair<int, std::int64_t>> RunFlowSchedule(
    const FlowSchedule& schedule) {
  sim::Simulator sim;
  Topology topo;
  for (double bw : schedule.bandwidths) topo.AddLink("l", bw);
  Engine net(&sim, &topo);
  std::vector<std::pair<int, std::int64_t>> deliveries;
  for (int i = 0; i < static_cast<int>(schedule.starts.size()); ++i) {
    const auto& start = schedule.starts[static_cast<std::size_t>(i)];
    sim.ScheduleAt(TimePoint::FromNanos(start.at_ns), [&, i] {
      net.StartFlow(start.path, start.bytes, Duration::Nanos(start.latency_ns),
                    [&deliveries, &sim, i] {
                      deliveries.emplace_back(i, sim.now().nanos());
                    });
    });
  }
  for (const FlowSchedule::Scale& change : schedule.scales) {
    sim.ScheduleAt(TimePoint::FromNanos(change.at_ns), [&] {
      topo.SetLinkScale(change.link, change.scale);
      if (change.notify) net.OnCapacityChanged();
    });
  }
  sim.Run();
  return deliveries;
}

// Fixed-seed linear congruential generator (Knuth's MMIX constants) for the
// randomized flow schedules.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next(std::uint64_t bound) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state_ >> 33) % bound;
  }

 private:
  std::uint64_t state_;
};

TEST(FlowNetworkTest, ComponentSolveMatchesGlobalSolveOnRandomSchedules) {
  // Random Clos and torus link graphs, built as in
  // MatchesReferenceBitForBitOnRandomCases, carrying staggered starts,
  // same-instant bursts, equal-size ties, an occasional path that repeats a
  // link, and mid-flight link degrades with and without OnCapacityChanged.
  // Local routes (same leaf, torus neighbours) leave several disjoint
  // components in flight, so a re-solve that misses a changed link keeps a
  // stale rate and moves a delivery.
  constexpr int kNumTimes = 200;
  Lcg lcg(0x5eed2022);
  for (int c = 0; c < kNumTimes; ++c) {
    Topology topo;
    std::vector<std::vector<LinkIndex>> local_routes, routes;
    if (lcg.Next(2) == 0) {
      const int per_leaf = 2 + static_cast<int>(lcg.Next(4));
      ClosTopology clos(
          &topo, {.hosts_per_leaf = per_leaf,
                  .num_spines = 1 + static_cast<int>(lcg.Next(3)),
                  .host_bandwidth = 12.5e9,
                  .spine_bandwidth = 0,
                  .oversubscription = 1.0 + static_cast<double>(lcg.Next(3))});
      const int hosts = per_leaf * (1 + static_cast<int>(lcg.Next(4)));
      for (int h = 0; h < hosts; ++h) clos.AddHost();
      for (int s = 0; s < hosts; ++s) {
        for (int d = 0; d < hosts; ++d) {
          if (s == d) continue;
          (clos.LeafOf(s) == clos.LeafOf(d) ? local_routes : routes)
              .push_back(clos.Path(s, d));
        }
      }
    } else {
      TorusTopology torus(&topo,
                          {2 + static_cast<int>(lcg.Next(3)),
                           2 + static_cast<int>(lcg.Next(3))},
                          100e9);
      for (int s = 0; s < torus.num_nodes(); ++s) {
        for (int d = 0; d < torus.num_nodes(); ++d) {
          if (s == d) continue;
          (torus.Distance(s, d) == 1 ? local_routes : routes)
              .push_back(torus.Path(s, d));
        }
      }
    }
    if (routes.empty()) routes = local_routes;

    FlowSchedule schedule;
    for (std::size_t l = 0; l < topo.num_links(); ++l) {
      schedule.bandwidths.push_back(
          topo.link(static_cast<LinkIndex>(l)).bandwidth);
    }
    const auto num_links = static_cast<std::uint64_t>(topo.num_links());
    const int n = 2 + static_cast<int>(lcg.Next(60));
    std::int64_t t = 0;
    for (int i = 0; i < n; ++i) {
      FlowSchedule::Start start;
      // A third of the starts join the previous one's instant (a burst).
      if (lcg.Next(3) != 0) t += static_cast<std::int64_t>(lcg.Next(20'000));
      start.at_ns = t;
      const std::uint64_t kind = lcg.Next(8);
      if (kind == 0) {
        const int len = 1 + static_cast<int>(lcg.Next(4));
        for (int k = 0; k < len; ++k) {
          start.path.push_back(static_cast<LinkIndex>(lcg.Next(num_links)));
        }
        start.path.push_back(start.path.front());
      } else {
        const auto& pool =
            (kind < 5 && !local_routes.empty()) ? local_routes : routes;
        start.path = pool[lcg.Next(pool.size())];
      }
      // Equal sizes half the time, so shares and completions tie exactly.
      start.bytes = lcg.Next(2) == 0 ? KiB(256)
                                     : static_cast<Bytes>(1 + lcg.Next(MiB(2)));
      start.latency_ns = static_cast<std::int64_t>(lcg.Next(3)) * 1'000;
      schedule.starts.push_back(std::move(start));
    }
    const int changes = static_cast<int>(lcg.Next(4));
    for (int k = 0; k < changes; ++k) {
      FlowSchedule::Scale change;
      change.at_ns = static_cast<std::int64_t>(
          lcg.Next(static_cast<std::uint64_t>(t) + 50'000));
      change.link = static_cast<LinkIndex>(lcg.Next(num_links));
      change.scale =
          lcg.Next(2) == 0 ? 0.25 : 0.05 + 0.95 * lcg.Next(1000) / 1000.0;
      change.notify = lcg.Next(4) != 0;
      schedule.scales.push_back(change);
    }

    const auto want = RunFlowSchedule<GlobalSolveFlowNetwork>(schedule);
    const auto got = RunFlowSchedule<FlowNetwork>(schedule);
    ASSERT_EQ(want.size(), schedule.starts.size()) << "case " << c;
    ASSERT_EQ(got, want) << "case " << c << ": " << n << " flows";
  }
}

TEST(FlowNetworkTest, BareLinkScaleResolvesEveryComponent) {
  // Link a is degraded to half with SetLinkScale alone (no
  // OnCapacityChanged), then a flow starts on the disjoint link b. Its
  // recompute sees the new topology generation and re-solves every flow,
  // so the flow on a slows from that instant: 12 KB at 1 GB/s by 12 us,
  // then 8 KB at 0.5 GB/s, delivered at 28 us, as in the global solve.
  FlowSchedule schedule;
  schedule.bandwidths = {1e9, 1e9};
  schedule.starts = {{.at_ns = 0, .path = {0}, .bytes = 20'000},
                     {.at_ns = 12'000, .path = {1}, .bytes = 1'000}};
  schedule.scales = {
      {.at_ns = 10'000, .link = 0, .scale = 0.5, .notify = false}};
  const auto want = RunFlowSchedule<GlobalSolveFlowNetwork>(schedule);
  const auto got = RunFlowSchedule<FlowNetwork>(schedule);
  ASSERT_EQ(want.size(), 2u);
  EXPECT_EQ(want[1], (std::pair<int, std::int64_t>(0, 28'000)));
  EXPECT_EQ(got, want);
}

// ------------------------------------------------------------ DCN incast --

TEST(DcnFlowTest, UncontendedClosMatchesAbstractFabric) {
  // A single cross-leaf message on a non-blocking (R=1) Clos must arrive at
  // the same time the abstract per-NIC fabric predicts: NIC serialization
  // is the bottleneck on an idle network.
  DcnParams params;
  params.latency = Duration::Micros(20);
  params.nic_bandwidth = 10e9;
  params.per_message_header = 0;
  auto run = [&](bool clos) {
    DcnParams p = params;
    p.clos.enabled = clos;
    p.clos.hosts_per_leaf = 2;
    p.clos.num_spines = 2;
    p.clos.oversubscription = 1.0;
    sim::Simulator sim;
    DcnFabric dcn(&sim, p);
    for (int h = 0; h < 4; ++h) dcn.AddHost(HostId(h));
    std::int64_t arrival = 0;
    dcn.Send(HostId(0), HostId(3), 1 << 20, [&] { arrival = sim.now().nanos(); });
    sim.Run();
    return arrival;
  };
  const std::int64_t abstract_ns = run(false);
  const std::int64_t flow_ns = run(true);
  EXPECT_NEAR(static_cast<double>(flow_ns), static_cast<double>(abstract_ns),
              2.0);  // integer-ns ceiling is the only divergence allowed
}

TEST(DcnFlowTest, IncastContendsOnDestinationDownlink) {
  // 4 senders -> 1 receiver. The abstract fabric lets all four NICs
  // serialize in parallel (arrival ~= one message time); the flow fabric
  // shares the receiver's access link, taking ~4x. This is the first-class
  // incast effect the scalar model cannot express.
  auto run = [&](bool clos) {
    DcnParams p;
    p.latency = Duration::Micros(20);
    p.nic_bandwidth = 10e9;
    p.per_message_header = 0;
    p.clos.enabled = clos;
    p.clos.hosts_per_leaf = 8;
    p.clos.num_spines = 4;
    p.clos.oversubscription = 1.0;
    sim::Simulator sim;
    DcnFabric dcn(&sim, p);
    for (int h = 0; h < 5; ++h) dcn.AddHost(HostId(h));
    std::int64_t last = 0;
    int landed = 0;
    for (int s = 1; s <= 4; ++s) {
      dcn.Send(HostId(s), HostId(0), MiB(8), [&] {
        ++landed;
        last = sim.now().nanos();
      });
    }
    sim.Run();
    EXPECT_EQ(landed, 4);
    return last;
  };
  const double abstract_ms = static_cast<double>(run(false)) / 1e6;
  const double flow_ms = static_cast<double>(run(true)) / 1e6;
  EXPECT_NEAR(flow_ms, 4.0 * abstract_ms, 0.1 * abstract_ms);
}

TEST(DcnFlowTest, OversubscriptionThrottlesCrossLeafShuffle) {
  // Each of 4 hosts on leaf 0 streams to its counterpart on leaf 1. At
  // R=1 every flow runs at NIC rate; at R=4 the leaf uplinks throttle the
  // shuffle by ~4x.
  auto run = [&](double oversub) {
    DcnParams p;
    p.latency = Duration::Micros(20);
    p.nic_bandwidth = 10e9;
    p.per_message_header = 0;
    p.clos.enabled = true;
    p.clos.hosts_per_leaf = 4;
    p.clos.num_spines = 2;
    p.clos.oversubscription = oversub;
    sim::Simulator sim;
    DcnFabric dcn(&sim, p);
    for (int h = 0; h < 8; ++h) dcn.AddHost(HostId(h));
    std::int64_t last = 0;
    for (int s = 0; s < 4; ++s) {
      dcn.Send(HostId(s), HostId(4 + s), MiB(8), [&] { last = sim.now().nanos(); });
    }
    sim.Run();
    return static_cast<double>(last);
  };
  const double r1 = run(1.0);
  const double r4 = run(4.0);
  EXPECT_GT(r4, 3.0 * r1);
  EXPECT_LT(r4, 5.0 * r1);
}

TEST(DcnFlowTest, NicDegradeScalesOneEdgeOnly) {
  // Degrading host 1's NIC slows flows crossing it; host 2's traffic to a
  // different destination is untouched — the scalar model would have had no
  // edge to scale.
  DcnParams p;
  p.latency = Duration::Micros(20);
  p.nic_bandwidth = 10e9;
  p.per_message_header = 0;
  p.clos.enabled = true;
  p.clos.hosts_per_leaf = 4;
  p.clos.num_spines = 2;
  p.clos.oversubscription = 1.0;
  sim::Simulator sim;
  DcnFabric dcn(&sim, p);
  for (int h = 0; h < 4; ++h) dcn.AddHost(HostId(h));
  dcn.SetNicBandwidthScale(HostId(1), 0.25);
  std::int64_t degraded = 0, clean = 0;
  dcn.Send(HostId(1), HostId(3), MiB(8), [&] { degraded = sim.now().nanos(); });
  dcn.Send(HostId(2), HostId(0), MiB(8), [&] { clean = sim.now().nanos(); });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(degraded), 4.0 * static_cast<double>(clean),
              0.05 * static_cast<double>(degraded));
}

TEST(DcnFlowTest, ClosCompletionScheduleGolden) {
  // Pins every delivery nanosecond of a fixed Clos schedule: a burst of
  // simultaneous starts (a permutation, with equal sizes that tie), joiners
  // every 7 us (a third of them into host 0, an incast), and one NIC
  // degraded mid-flight and healed. Any change to the solver's arithmetic
  // or the flow engine's bookkeeping moves the checksum.
  DcnParams p;
  p.latency = Duration::Micros(5);
  p.nic_bandwidth = 12.5e9;
  p.clos.enabled = true;
  p.clos.hosts_per_leaf = 4;
  p.clos.num_spines = 2;
  p.clos.oversubscription = 2.0;
  sim::Simulator sim;
  DcnFabric dcn(&sim, p);
  constexpr int kHosts = 16;
  for (int h = 0; h < kHosts; ++h) dcn.AddHost(HostId(h));

  std::vector<std::pair<int, std::int64_t>> deliveries;  // (flow index, ns)
  int next_index = 0;
  auto send = [&](int src, int dst, Bytes bytes) {
    const int index = next_index++;
    dcn.Send(HostId(src), HostId(dst), bytes, [&deliveries, &sim, index] {
      deliveries.emplace_back(index, sim.now().nanos());
    });
  };
  for (int h = 0; h < kHosts; ++h) {
    send(h, (h * 5 + 3) % kHosts, MiB(1) + (h % 4) * KiB(256));
  }
  constexpr int kJoiners = 24;
  for (int k = 0; k < kJoiners; ++k) {
    sim.Schedule(Duration::Micros(7 * (k + 1)), [&send, k] {
      const int src = k % 15 + 1;
      int dst = k % 3 == 0 ? 0 : (k * 3 + 1) % kHosts;
      if (dst == src) dst = (dst + 1) % kHosts;
      send(src, dst, KiB(64) * (1 + k % 5));
    });
  }
  sim.Schedule(Duration::Micros(40),
               [&dcn] { dcn.SetNicBandwidthScale(HostId(3), 0.25); });
  sim.Schedule(Duration::Micros(120),
               [&dcn] { dcn.SetNicBandwidthScale(HostId(3), 1.0); });
  sim.Run();

  ASSERT_EQ(deliveries.size(), static_cast<std::size_t>(kHosts + kJoiners));
  EXPECT_EQ(dcn.flow_network()->flows_completed(), kHosts + kJoiners);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over (index, ns) pairs
  for (const auto& [index, ns] : deliveries) {
    for (std::int64_t v : {std::int64_t{index}, ns}) {
      for (int b = 0; b < 8; ++b) {
        h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
  }
  EXPECT_EQ(h, 0x64a5e4f99b23a704ULL) << std::hex << "0x" << h;
}

// -------------------------------------------------- FlowCollectiveModel --

TEST(FlowCollectiveModelTest, UncontendedRingMatchesAnalyticLargePayload) {
  // On a full torus the snake ring is single-hop and link-disjoint, so for
  // bandwidth-dominated payloads the flow decomposition must agree with the
  // analytic 2(n-1)/n * B/bw formula within the latency-term slack.
  CollectiveParams params;
  params.hop_latency = Duration::Micros(1);
  params.link_bandwidth = 100e9;
  params.launch_overhead = Duration::Micros(2);
  Topology topo;
  TorusTopology torus(&topo, {4, 4}, params.link_bandwidth);
  FlowCollectiveModel flow_model(params, &topo, &torus);
  CollectiveModel analytic(params);
  for (Bytes b : {MiB(64), MiB(256), GiB(1)}) {
    const double flow_ms = flow_model.AllReduce(b, 16).ToMillis();
    const double analytic_ms = analytic.AllReduce(b, 16).ToMillis();
    EXPECT_NEAR(flow_ms, analytic_ms, 0.05 * analytic_ms)
        << "bytes=" << b;
  }
}

TEST(FlowCollectiveModelTest, SizeBasedRingVsTreeChoice) {
  CollectiveParams params;
  params.hop_latency = Duration::Micros(1);
  params.link_bandwidth = 100e9;
  params.launch_overhead = Duration::Zero();
  Topology topo;
  TorusTopology torus(&topo, {8, 8}, params.link_bandwidth);
  FlowCollectiveModel m(params, &topo, &torus);
  // Tiny payload: tree (2*log2(64)=12 rounds) beats ring (2*63 steps).
  EXPECT_LT(m.TreeTime(CollectiveKind::kAllReduce, 4, 64).nanos(),
            m.RingTime(CollectiveKind::kAllReduce, 4, 64).nanos());
  EXPECT_EQ(m.Time(CollectiveKind::kAllReduce, 4, 64).nanos(),
            m.TreeTime(CollectiveKind::kAllReduce, 4, 64).nanos());
  // Huge payload: bandwidth-optimal ring wins.
  EXPECT_LT(m.RingTime(CollectiveKind::kAllReduce, GiB(1), 64).nanos(),
            m.TreeTime(CollectiveKind::kAllReduce, GiB(1), 64).nanos());
  EXPECT_EQ(m.Time(CollectiveKind::kAllReduce, GiB(1), 64).nanos(),
            m.RingTime(CollectiveKind::kAllReduce, GiB(1), 64).nanos());
}

TEST(FlowCollectiveModelTest, DegradedIciLinkRepricesCollectives) {
  CollectiveParams params;
  params.link_bandwidth = 100e9;
  Topology topo;
  TorusTopology torus(&topo, {4, 4}, params.link_bandwidth);
  FlowCollectiveModel m(params, &topo, &torus);
  const Duration healthy = m.AllReduce(MiB(256), 16);
  const Duration healthy_ring = m.RingTime(CollectiveKind::kAllReduce, MiB(256), 16);
  // Degrade one ring edge to 10%: every ring step now waits on it, so the
  // ring schedule reprices ~10x ...
  topo.SetLinkScale(torus.LinkFrom(0, 1, true), 0.1);
  const Duration degraded_ring = m.RingTime(CollectiveKind::kAllReduce, MiB(256), 16);
  EXPECT_GT(degraded_ring.nanos(), 8 * healthy_ring.nanos());
  // ... and the end-to-end price rises, but less than the naive 10x: the
  // size-based choice falls back to the tree schedule, which mostly avoids
  // the bad edge. Exactly the adaptivity a scalar model cannot express.
  const Duration degraded = m.AllReduce(MiB(256), 16);
  EXPECT_GT(degraded.nanos(), 3 * healthy.nanos());
  EXPECT_LT(degraded.nanos(),
            m.RingTime(CollectiveKind::kAllReduce, MiB(256), 16).nanos());
  // Restoring the link restores the price (cache invalidates by generation).
  topo.SetLinkScale(torus.LinkFrom(0, 1, true), 1.0);
  EXPECT_EQ(m.AllReduce(MiB(256), 16).nanos(), healthy.nanos());
}

TEST(FlowCollectiveModelTest, SubsetGangsAndMonotonicity) {
  CollectiveParams params;
  Topology topo;
  TorusTopology torus(&topo, {4, 4}, params.link_bandwidth);
  FlowCollectiveModel m(params, &topo, &torus);
  // Gangs smaller than the torus still price (snake-prefix ring + closing
  // path), and time grows with payload.
  for (int n : {2, 3, 5, 7, 12, 16}) {
    Duration prev = Duration::Zero();
    for (Bytes b : {Bytes{4}, KiB(64), MiB(1), MiB(64)}) {
      const Duration t = m.AllReduce(b, n);
      EXPECT_GE(t.nanos(), prev.nanos()) << "n=" << n << " bytes=" << b;
      prev = t;
    }
  }
}

// ----------------------------------------------------- Island flow mode --

TEST(IslandFlowTest, FlowIciTransfersAndCollectivesWork) {
  sim::Simulator sim;
  hw::SystemParams params;
  params.ici_flow.enabled = true;
  auto cluster = hw::Cluster::ConfigB(&sim, /*hosts=*/2);  // 16 devices
  auto flow_cluster = std::make_unique<hw::Cluster>(&sim, params, 1, 2, 8);
  hw::Island& island = flow_cluster->island(0);
  ASSERT_NE(island.ici_topology(), nullptr);
  ASSERT_NE(island.ici_torus(), nullptr);
  EXPECT_EQ(island.ici_torus()->num_nodes(), 16);
  // Point-to-point transfer over the torus completes.
  bool landed = false;
  island.Transfer(hw::DeviceId(0), hw::DeviceId(5), MiB(1)).Then([&](sim::Unit) {
    landed = true;
  });
  sim.Run();
  EXPECT_TRUE(landed);
  EXPECT_GT(island.ici_bytes_transferred(), 0);
  // The collective model is the flow-backed one and stays callable through
  // the CollectiveModel interface.
  const Duration t = island.collectives().Time(CollectiveKind::kAllReduce,
                                               MiB(64), 16);
  EXPECT_GT(t.nanos(), 0);
}

TEST(IslandFlowTest, DefaultModeHasNoFlowState) {
  sim::Simulator sim;
  auto cluster = hw::Cluster::ConfigB(&sim, /*hosts=*/2);
  EXPECT_EQ(cluster->island(0).ici_topology(), nullptr);
  EXPECT_EQ(cluster->island(0).ici_flow_network(), nullptr);
}

}  // namespace
}  // namespace pw::net
