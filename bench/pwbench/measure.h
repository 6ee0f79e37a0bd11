// Measurement phases of one pwbench workload, and the BENCHMARK.json spec
// the printed metrics must match.
//
// The end-to-end phase repeats the untraced workload run for --seconds
// (at least three runs) and reports medians; the layers phase alternates
// untraced and traced runs so the tracing overhead is measured, not
// assumed. Every run of a phase must produce the same simulated
// fingerprint, and at the default seed that fingerprint must equal the one
// recorded in fingerprints.json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace pwbench {

inline constexpr std::uint64_t kDefaultSeed = 42;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "higher" or "lower"
  double bound = 0;    // end-to-end only
};

struct BenchmarkSpec {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

// Reads the repo-root BENCHMARK.json. Returns false with `error` set.
bool LoadBenchmarkSpec(BenchmarkSpec* spec, std::string* error);

struct MeasureOptions {
  WorkloadConfig config;
  double seconds = 10;
  std::string trace_path;  // layers phase: Chrome trace output, or ""
};

struct PhaseResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // empty = every output check passed
  std::vector<std::string> notes;   // extra human-readable lines
};

PhaseResult MeasureEndToEnd(const std::string& workload,
                            const MeasureOptions& options);
PhaseResult MeasureLayers(const std::string& workload,
                          const MeasureOptions& options);

// Adds an error unless `metrics` holds exactly the metrics of `expected`,
// each with its unit.
void CheckAgainstSpec(const std::vector<MetricSpec>& expected,
                      PhaseResult* result);

}  // namespace pwbench
