#include "sweep/sweep_runner.h"

#include <atomic>
#include <thread>

#include "common/logging.h"

namespace pw::sweep {

int SweepRunner::EffectiveThreads(std::size_t points) const {
  int threads = options_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (static_cast<std::size_t>(threads) > points) {
    threads = static_cast<int>(points);
  }
  return threads < 1 ? 1 : threads;
}

ResultTable SweepRunner::Run(const ParamGrid& grid, const PointFn& fn) const {
  const std::vector<ParamPoint> points = grid.Points();
  std::vector<ResultRow> rows(points.size());

  // Work-stealing by atomic index: threads race for the next point but
  // write results by grid index, so output order is deterministic.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      rows[i] = ResultRow{points[i].entries(), fn(points[i])};
    }
  };

  const int threads = EffectiveThreads(points.size());
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  ResultTable table;
  for (ResultRow& row : rows) table.Add(std::move(row));
  return table;
}

}  // namespace pw::sweep
