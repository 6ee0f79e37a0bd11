// The four pwbench workloads. Each builds a paper-shaped system by calling
// the layers' public APIs directly (no scenario files, no families), so the
// harness can time every call from outside the library.
//
//   pipeline16        Fig. 10: Decoder3B GPipe S=16 x M=64 on config C,
//                     closed loop of training steps.
//   train_clos        Fig. 12: Decoder64B data-parallel over 2 islands x 512
//                     TPUs on the flow-level Clos DCN, closed loop.
//   serve_kv          colocated continuous batching, KV working set larger
//                     than HBM, open loop of two tenants.
//   serve_disagg_clos disaggregated prefill/decode over 2 islands, KV
//                     streamed across the flow-level Clos DCN, open loop.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"

namespace pwbench {

struct WorkloadConfig {
  std::uint64_t seed = 42;
  // 1/100 of the measured run (training: the two-step minimum).
  bool smoke = false;
  // train_clos only: the analytic-DCN twin of the same system.
  bool analytic_dcn = false;
};

// What one run of a workload produced: its invariants, its simulated
// results and the per-layer counters read from the layers' public getters.
// Host times are not in here; the caller measures those.
struct RunOutcome {
  std::int64_t attempted = 0;  // ops: training steps or requests
  std::int64_t failed = 0;     // not completed, shed, unaccounted or leaked
  std::vector<std::string> errors;       // violated invariants
  std::map<std::string, double> values;  // keyed by BENCHMARK.json names
  std::uint64_t serving_checksum = 0;    // ServingTrace::Checksum, or 0
  std::int64_t op_samples = 0;           // latency samples behind sim_op_*
  // p99.9 op latency: printed, not a metric (too few samples beyond it to
  // be steady across seeds at these run sizes).
  double op_p999_ms = 0;
  double op_p99_limit_ms = 0;            // serving latency limit; 0 = none
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the simulated system. No simulator event runs here.
  virtual void Setup(Probe& probe) = 0;
  // Drives the simulation until every op has completed and the queue is
  // drained.
  virtual void Run(Probe& probe) = 0;
  // Checks the invariants and reads results; call once, after Run().
  virtual RunOutcome Finish() = 0;
};

const std::vector<std::string>& WorkloadNames();

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config);

}  // namespace pwbench
