// SweepRunner: fans independent simulator runs across a thread pool.
//
// Each grid point is evaluated by a user callback that builds its own
// pw::sim::Simulator (and cluster/runtime on top). Simulators stay strictly
// single-threaded — parallelism exists only *between* points — so every
// point is as deterministic as a standalone run, and the result vector is
// ordered by grid index regardless of how threads interleave. Running the
// same sweep with 1 thread and N threads yields byte-identical tables.
//
//   sweep::ParamGrid grid;
//   grid.AxisInts("hosts", {2, 8, 32}).AxisInts("devs", {4, 8});
//   sweep::SweepRunner runner({.threads = 4});
//   sweep::ResultTable table = runner.Run(grid, [](const sweep::ParamPoint& p) {
//     sim::Simulator sim;                       // private to this point
//     auto cluster = hw::Cluster::ConfigA(&sim, (int)p.GetInt("hosts"));
//     ... run the scenario ...
//     return sweep::Metrics{{"events_per_sec", rate}};
//   });
//   table.WriteCsv(std::cout);
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sweep/param_grid.h"
#include "sweep/result_table.h"

namespace pw::sweep {

using Metrics = std::vector<std::pair<std::string, double>>;

class SweepRunner {
 public:
  struct Options {
    // Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
    int threads = 0;
  };

  using PointFn = std::function<Metrics(const ParamPoint&)>;

  SweepRunner() = default;
  explicit SweepRunner(Options options) : options_(options) {}

  // Evaluates `fn` on every point of `grid` and returns one row per point,
  // in grid order. `fn` is called concurrently from pool threads and must
  // not touch shared mutable state (build everything per point).
  ResultTable Run(const ParamGrid& grid, const PointFn& fn) const;

  // Number of threads a Run() would use for `points` work items.
  int EffectiveThreads(std::size_t points) const;

 private:
  Options options_;
};

}  // namespace pw::sweep
