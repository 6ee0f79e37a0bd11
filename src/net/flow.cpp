#include "net/flow.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace pw::net {

namespace {

// A flow counts as drained once less than this many bytes remain: absorbs
// float rounding from rate*dt progress accounting without ever letting a
// real byte linger.
constexpr double kRipeBytes = 1e-3;

}  // namespace

void MaxMinFairSolver::Solve(
    const Topology& topo,
    const std::vector<const std::vector<LinkIndex>*>& paths,
    std::vector<double>* rates) {
  const int n = static_cast<int>(paths.size());
  rates->assign(paths.size(), 0.0);
  if (n == 0) return;
  if (count_.size() < topo.num_links()) {
    remaining_.resize(topo.num_links());
    count_.resize(topo.num_links(), 0);
    first_.resize(topo.num_links());
    last_.resize(topo.num_links());
  }

  // Per-link capacity and crossing count over the links these paths touch
  // (a link crossed twice by one path counts twice).
  loaded_.clear();
  for (const auto* path : paths) {
    PW_CHECK(!path->empty()) << "flow with empty path";
    for (LinkIndex l : *path) {
      if (count_[l]++ == 0) {
        remaining_[l] = topo.EffectiveBandwidth(l);
        loaded_.push_back(l);
      }
    }
  }
  std::sort(loaded_.begin(), loaded_.end());

  // Link→flow incidence (CSR), each link's flows in ascending index order.
  int offset = 0;
  for (LinkIndex l : loaded_) {
    first_[l] = last_[l] = offset;
    offset += count_[l];
  }
  incidence_.resize(static_cast<std::size_t>(offset));
  for (int f = 0; f < n; ++f) {
    for (LinkIndex l : *paths[f]) incidence_[last_[l]++] = f;
  }

  fixed_.assign(paths.size(), 0);
  int unfixed = n;
  while (unfixed > 0) {
    // Bottleneck: smallest fair share; ties to the lowest link index
    // (loaded_ is ascending, so `<` keeps the first). Links no unfixed flow
    // crosses leave the list.
    LinkIndex bottleneck = -1;
    double share = std::numeric_limits<double>::infinity();
    std::size_t live = 0;
    for (LinkIndex l : loaded_) {
      const int c = count_[l];
      if (c == 0) continue;
      loaded_[live++] = l;
      const double s = std::max(remaining_[l], 0.0) / c;
      if (s < share) {
        share = s;
        bottleneck = l;
      }
    }
    loaded_.resize(live);
    PW_CHECK_GE(bottleneck, 0) << "unfixed flows but no loaded link";
    // Fix the bottleneck's unfixed flows in index order; each subtracts its
    // share once per crossing from every link on its path.
    for (int k = first_[bottleneck]; k < last_[bottleneck]; ++k) {
      const int f = incidence_[k];
      if (fixed_[f]) continue;  // fixed earlier, or a repeat crossing
      (*rates)[f] = share;
      fixed_[f] = 1;
      --unfixed;
      for (LinkIndex l : *paths[f]) {
        remaining_[l] -= share;
        --count_[l];
      }
    }
  }
}

std::vector<double> MaxMinFairRates(
    const Topology& topo,
    const std::vector<const std::vector<LinkIndex>*>& paths) {
  std::vector<double> rates;
  MaxMinFairSolver().Solve(topo, paths, &rates);
  return rates;
}

// ---------------------------------------------------------------------------
// FlowNetwork

void FlowNetwork::StartFlow(std::vector<LinkIndex> path, Bytes bytes,
                            Duration delivery_latency,
                            sim::InlineFunction<void()> on_delivered) {
  PW_CHECK(!path.empty()) << "flow needs a non-empty path";
  PW_CHECK_GE(bytes, 0);
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<int>(slots_.size()));
    slots_.emplace_back();
  }
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  Flow& flow = slots_[static_cast<std::size_t>(slot)];
  flow.path = std::move(path);
  // A zero-byte message still occupies the wire for one quantum rather than
  // completing instantaneously at infinite rate.
  flow.remaining = std::max<double>(static_cast<double>(bytes), 1.0);
  flow.rate = 0;
  flow.latency = delivery_latency;
  flow.on_delivered = std::move(on_delivered);
  if (link_flows_.size() < topo_->num_links()) {
    link_flows_.resize(topo_->num_links());
    is_dirty_.resize(topo_->num_links(), 0);
  }
  for (LinkIndex l : flow.path) {
    link_flows_[static_cast<std::size_t>(l)].push_back(slot);
    MarkDirty(l);
  }
  order_.push_back(slot);
  ++flows_started_;
  Recompute();
}

void FlowNetwork::OnCapacityChanged() {
  if (!order_.empty()) Recompute();
}

void FlowNetwork::MarkDirty(LinkIndex l) {
  if (is_dirty_[static_cast<std::size_t>(l)]) return;
  is_dirty_[static_cast<std::size_t>(l)] = 1;
  dirty_.push_back(l);
}

void FlowNetwork::Recompute() {
  const TimePoint now = sim_->now();

  // 1. Advance progress at the rates that held since the last event, and
  // deliver drained flows in start order (ties in delivery time then
  // resolve by schedule order, i.e. FIFO); survivors keep their order. A
  // delivered flow leaves its links' incidence and makes them dirty.
  const double dt = (now - last_update_).ToSeconds();
  last_update_ = now;
  std::size_t kept = 0;
  for (int s : order_) {
    Flow& flow = slots_[static_cast<std::size_t>(s)];
    if (dt > 0) {
      flow.remaining = std::max(flow.remaining - flow.rate * dt, 0.0);
    }
    if (flow.remaining < kRipeBytes) {
      ++flows_completed_;
      sim_->ScheduleAt(now + flow.latency, std::move(flow.on_delivered));
      for (LinkIndex l : flow.path) {
        std::vector<int>& on_link = link_flows_[static_cast<std::size_t>(l)];
        *std::find(on_link.begin(), on_link.end(), s) = on_link.back();
        on_link.pop_back();
        MarkDirty(l);
      }
      free_slots_.push_back(s);
    } else {
      order_[kept++] = s;
    }
  }
  order_.resize(kept);

  // 2. Pick the survivors to re-solve: those that share a chain of links
  // with a dirty link (breadth-first over the link→flow incidence), or all
  // of them if a link capacity changed since the last solve. The rest keep
  // rates that already equal the global solve's.
  affected_.clear();
  if (solved_generation_ != topo_->generation()) {
    solved_generation_ = topo_->generation();
    affected_ = order_;
  } else {
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
      for (int s : link_flows_[static_cast<std::size_t>(dirty_[i])]) {
        Flow& flow = slots_[static_cast<std::size_t>(s)];
        if (flow.reached) continue;
        flow.reached = true;
        for (LinkIndex l : flow.path) MarkDirty(l);
      }
    }
    for (int s : order_) {
      Flow& flow = slots_[static_cast<std::size_t>(s)];
      if (!flow.reached) continue;
      flow.reached = false;
      affected_.push_back(s);
    }
  }
  for (LinkIndex l : dirty_) is_dirty_[static_cast<std::size_t>(l)] = 0;
  dirty_.clear();

  if (order_.empty()) {
    if (next_completion_.valid()) sim_->Cancel(next_completion_);
    next_completion_ = sim::EventHandle();
    return;
  }

  // 3. Re-solve their fair shares, then predict every flow's completion.
  paths_.clear();
  for (int s : affected_) {
    paths_.push_back(&slots_[static_cast<std::size_t>(s)].path);
  }
  solver_.Solve(*topo_, paths_, &rates_);
  for (std::size_t i = 0; i < affected_.size(); ++i) {
    slots_[static_cast<std::size_t>(affected_[i])].rate = rates_[i];
  }
  std::int64_t next_ns = std::numeric_limits<std::int64_t>::max();
  for (int s : order_) {
    const Flow& flow = slots_[static_cast<std::size_t>(s)];
    PW_CHECK_GT(flow.rate, 0.0) << "flow starved by the fair-share solver";
    // Ceil to integer nanoseconds: the flow is never delivered early, and
    // the residual (< 1ns of progress) is absorbed by kRipeBytes.
    const double dt_ns = flow.remaining / flow.rate * 1e9;
    const std::int64_t at =
        now.nanos() + std::max<std::int64_t>(
                          static_cast<std::int64_t>(std::ceil(dt_ns)), 1);
    next_ns = std::min(next_ns, at);
  }

  // 4. One timer at the earliest predicted completion; re-armed wholesale
  // on every recompute (cheaper than tracking which prediction moved).
  if (next_completion_.valid()) sim_->Cancel(next_completion_);
  next_completion_ =
      sim_->ScheduleAt(TimePoint::FromNanos(next_ns), [this] { Recompute(); });
}

// ---------------------------------------------------------------------------
// FlowCollectiveModel

void FlowCollectiveModel::MaybeInvalidate() const {
  if (cache_generation_ != topo_->generation()) {
    ring_cache_.clear();
    tree_cache_.clear();
    cache_generation_ = topo_->generation();
  }
}

const FlowCollectiveModel::StepCost& FlowCollectiveModel::RingStep(int n) const {
  MaybeInvalidate();
  auto it = ring_cache_.find(n);
  if (it != ring_cache_.end()) return it->second;

  // One ring step: node order[i] sends its chunk to order[(i+1) % n], all n
  // transfers concurrently. On the snake embedding all but the closing edge
  // are single hops on disjoint links; the closing edge (and any gang
  // smaller than the full torus) routes dimension-ordered and may share
  // links, which the max-min solve prices in.
  const std::vector<int>& order = torus_->ring_order();
  std::vector<std::vector<LinkIndex>> paths(static_cast<std::size_t>(n));
  std::vector<const std::vector<LinkIndex>*> path_ptrs;
  StepCost cost;
  for (int i = 0; i < n; ++i) {
    const int src = order[static_cast<std::size_t>(i)];
    const int dst = order[static_cast<std::size_t>((i + 1) % n)];
    paths[static_cast<std::size_t>(i)] = torus_->Path(src, dst);
    cost.max_hops = std::max(
        cost.max_hops, static_cast<int>(paths[static_cast<std::size_t>(i)].size()));
    path_ptrs.push_back(&paths[static_cast<std::size_t>(i)]);
  }
  const std::vector<double> rates = MaxMinFairRates(*topo_, path_ptrs);
  cost.min_rate = *std::min_element(rates.begin(), rates.end());
  return ring_cache_.emplace(n, cost).first->second;
}

const std::vector<FlowCollectiveModel::StepCost>& FlowCollectiveModel::TreeRounds(
    int n) const {
  MaybeInvalidate();
  auto it = tree_cache_.find(n);
  if (it != tree_cache_.end()) return it->second;

  // Binomial-tree reduce over the same snake-ordered node set: in round r,
  // every node at odd multiple of 2^r sends its full payload to the partner
  // 2^r below it. (The mirror broadcast uses the reverse paths; we charge
  // the same per-round costs.)
  const std::vector<int>& order = torus_->ring_order();
  std::vector<StepCost> rounds;
  for (int stride = 1; stride < n; stride *= 2) {
    std::vector<std::vector<LinkIndex>> paths;
    for (int i = stride; i < n; i += 2 * stride) {
      paths.push_back(torus_->Path(order[static_cast<std::size_t>(i)],
                                   order[static_cast<std::size_t>(i - stride)]));
    }
    StepCost cost;
    std::vector<const std::vector<LinkIndex>*> path_ptrs;
    for (const auto& p : paths) {
      cost.max_hops = std::max(cost.max_hops, static_cast<int>(p.size()));
      path_ptrs.push_back(&p);
    }
    const std::vector<double> rates = MaxMinFairRates(*topo_, path_ptrs);
    cost.min_rate = *std::min_element(rates.begin(), rates.end());
    rounds.push_back(cost);
  }
  return tree_cache_.emplace(n, std::move(rounds)).first->second;
}

Duration FlowCollectiveModel::RingTime(CollectiveKind kind, Bytes bytes,
                                       int n) const {
  const StepCost& step = RingStep(n);
  const double chunk = static_cast<double>(bytes) / n;
  int steps = 0;
  switch (kind) {
    case CollectiveKind::kAllReduce:
      steps = 2 * (n - 1);  // reduce-scatter + all-gather
      break;
    case CollectiveKind::kAllGather:
    case CollectiveKind::kReduceScatter:
      steps = n - 1;
      break;
    case CollectiveKind::kBroadcast:
      steps = n - 1;  // pipelined ring broadcast, chunked like all-gather
      break;
  }
  const double seconds =
      steps * (params().hop_latency.ToSeconds() * step.max_hops +
               chunk / step.min_rate);
  return Duration::Seconds(seconds);
}

Duration FlowCollectiveModel::TreeTime(CollectiveKind kind, Bytes bytes,
                                       int n) const {
  const std::vector<StepCost>& rounds = TreeRounds(n);
  double one_way = 0;  // reduce (or broadcast) direction
  for (const StepCost& round : rounds) {
    one_way += params().hop_latency.ToSeconds() * round.max_hops +
               static_cast<double>(bytes) / round.min_rate;
  }
  // AllReduce = reduce + mirror broadcast; gather/scatter and broadcast pay
  // one direction.
  const double seconds =
      (kind == CollectiveKind::kAllReduce) ? 2 * one_way : one_way;
  return Duration::Seconds(seconds);
}

Duration FlowCollectiveModel::Time(CollectiveKind kind, Bytes bytes,
                                   int n) const {
  PW_CHECK_GE(n, 1);
  PW_CHECK_GE(bytes, 0);
  if (n == 1) return params().launch_overhead;
  PW_CHECK_LE(n, torus_->num_nodes())
      << "gang larger than the torus it runs on";

  Duration phases;
  switch (kind) {
    case CollectiveKind::kAllReduce:
      // Size-based algorithm choice: whichever schedule finishes first.
      phases = std::min(RingTime(kind, bytes, n), TreeTime(kind, bytes, n));
      break;
    case CollectiveKind::kAllGather:
    case CollectiveKind::kReduceScatter:
      phases = RingTime(kind, bytes, n);
      break;
    case CollectiveKind::kBroadcast:
      phases = std::min(RingTime(kind, bytes, n), TreeTime(kind, bytes, n));
      break;
  }
  return params().launch_overhead + phases;
}

}  // namespace pw::net
