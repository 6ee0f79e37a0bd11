// Family "network": contended DCN sweep over the flow-level Clos fabric —
// oversubscription ratio x incast fan-in, with the abstract per-NIC fabric
// measured at every point as the baseline the scalar model predicts.
// scenarios/network.json gates on these metrics and summary (uncontended
// agreement, ~N x incast, >= 2x oversubscription penalty).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/dcn.h"
#include "scenario/family_common.h"

namespace pw::scenario {
namespace {

// The fabric and message every network scenario measures; a scenario
// varies only the sweep axes.
constexpr double kMessageMib = 16;
constexpr int kHosts = 32;
constexpr int kHostsPerLeaf = 8;
constexpr int kNumSpines = 4;

net::DcnParams MakeParams(bool flow_mode, double oversub) {
  net::DcnParams p;  // 20us latency, 12.5 GB/s NIC, 128 B header
  p.clos.enabled = flow_mode;
  p.clos.hosts_per_leaf = kHostsPerLeaf;
  p.clos.num_spines = kNumSpines;
  p.clos.oversubscription = oversub;
  return p;
}

// N senders (hosts 1..fan_in) -> host 0; returns last-arrival time in ms.
double MeasureIncast(bool flow_mode, double oversub, int fan_in) {
  sim::Simulator sim;
  net::DcnFabric dcn(&sim, MakeParams(flow_mode, oversub));
  for (int h = 0; h < kHosts; ++h) dcn.AddHost(net::HostId(h));
  std::int64_t last_ns = 0;
  for (int s = 1; s <= fan_in; ++s) {
    dcn.Send(net::HostId(s), net::HostId(0), MiB(kMessageMib),
             [&] { last_ns = sim.now().nanos(); });
  }
  sim.Run();
  return static_cast<double>(last_ns) / 1e6;
}

// Every host on leaf 0 streams to its counterpart on leaf 1 concurrently;
// returns last-arrival time in ms. Exercises the leaf->spine uplinks, whose
// bandwidth encodes the oversubscription ratio.
double MeasureShuffle(bool flow_mode, double oversub) {
  sim::Simulator sim;
  net::DcnFabric dcn(&sim, MakeParams(flow_mode, oversub));
  for (int h = 0; h < kHosts; ++h) dcn.AddHost(net::HostId(h));
  std::int64_t last_ns = 0;
  for (int s = 0; s < kHostsPerLeaf; ++s) {
    dcn.Send(net::HostId(s), net::HostId(kHostsPerLeaf + s),
             MiB(kMessageMib), [&] { last_ns = sim.now().nanos(); });
  }
  sim.Run();
  return static_cast<double>(last_ns) / 1e6;
}

sweep::Metrics Measure(const Scenario&, bool, const sweep::ParamPoint& p) {
  const double oversub = p.GetDouble("oversub");
  const int fan_in = static_cast<int>(p.GetInt("fan_in"));
  const double incast_flow = MeasureIncast(true, oversub, fan_in);
  const double incast_abstract = MeasureIncast(false, oversub, fan_in);
  const double shuffle_flow = MeasureShuffle(true, oversub);
  const double shuffle_abstract = MeasureShuffle(false, oversub);
  return {{"incast_flow_ms", incast_flow},
          {"incast_abstract_ms", incast_abstract},
          {"incast_slowdown", incast_flow / incast_abstract},
          {"shuffle_flow_ms", shuffle_flow},
          {"shuffle_abstract_ms", shuffle_abstract}};
}

std::map<std::string, double> Summarize(
    const Scenario&, bool, const sweep::ResultTable& table,
    const std::vector<sweep::ParamPoint>& points, bool deterministic) {
  // The shuffle is fan_in-independent, so any one row per oversub value
  // carries it; the penalty headline is the largest/smallest swept ratio.
  double max_incast_slowdown = 0, uncontended_max_diff_ms = 0;
  double oversub_lo = 0, oversub_hi = 0, shuffle_lo = 0, shuffle_hi = 0;
  for (std::size_t i = 0; i < table.rows().size(); ++i) {
    const auto& row = table.rows()[i];
    const double oversub = points[i].GetDouble("oversub");
    max_incast_slowdown =
        std::max(max_incast_slowdown, row.Metric("incast_slowdown"));
    if (points[i].GetInt("fan_in") == 1) {
      uncontended_max_diff_ms =
          std::max(uncontended_max_diff_ms,
                   std::abs(row.Metric("incast_flow_ms") -
                            row.Metric("incast_abstract_ms")));
    }
    if (oversub_lo == 0 || oversub < oversub_lo) {
      oversub_lo = oversub;
      shuffle_lo = row.Metric("shuffle_flow_ms");
    }
    if (oversub > oversub_hi) {
      oversub_hi = oversub;
      shuffle_hi = row.Metric("shuffle_flow_ms");
    }
  }
  return {{"max_incast_slowdown", max_incast_slowdown},
          {"uncontended_max_diff_ms", uncontended_max_diff_ms},
          {"oversub_shuffle_penalty",
           shuffle_lo > 0 ? shuffle_hi / shuffle_lo : 0.0},
          {"deterministic", deterministic ? 1.0 : 0.0}};
}

}  // namespace

Family MakeNetworkFamily() {
  Family f;
  f.name = "network";
  f.description =
      "contended flow-level Clos DCN vs the abstract per-NIC fabric: "
      "oversubscription x incast fan-in";
  f.axes = {{"oversub", AxisKind::kDouble}, {"fan_in", AxisKind::kInt}};
  f.measure = Measure;
  f.summarize = Summarize;
  return f;
}

}  // namespace pw::scenario
