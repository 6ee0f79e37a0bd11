// Family registry + scenario runner: the layer that turns a validated
// Scenario into a sweep::ResultTable, a BENCH_<name>.json file, and a
// verdict on the scenario's gates.
//
// A Family is one measurement harness: it declares the sweep axes it
// understands, measures a single grid point on a private simulator, and
// reduces the finished table to the summary metrics CI trend lines track.
// The registry maps the scenario's "family" string to that harness:
//
//   Scenario sc;
//   DiagnosticEngine diags;
//   if (!LoadScenarioFile(path, &sc, &diags) ||
//       !ValidateForFamily(&sc, &diags)) { ... diags.Render() ... }
//   RunResult result;
//   std::string error;
//   RunScenario(sc, {.quick = true}, &result, &error);
//   for (const GateResult& g : CheckGates(sc, result)) { ... g.pass ... }
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "scenario/result_store.h"
#include "scenario/scenario.h"
#include "sweep/param_grid.h"
#include "sweep/result_table.h"
#include "sweep/sweep_runner.h"

namespace pw::scenario {

enum class AxisKind { kInt, kDouble, kString };

const char* AxisKindName(AxisKind kind);
// Kind of a parsed axis value (which element of the ParamValue variant).
AxisKind KindOfValue(const sweep::ParamValue& v);

// One sweep axis a family understands. Every declared axis is required:
// the family's point function reads all of them at every grid point.
struct FamilyAxis {
  std::string name;
  AxisKind kind = AxisKind::kInt;
  // A string axis that selects a row of a fixed table accepts only that
  // table's names (NamesOf in family_common.h); empty = any string.
  std::vector<std::string> values = {};
  // Optional check of each value of a free-form string axis: returns what
  // is wrong with the value, or "" if the family can run it.
  std::string (*check)(const std::string& value) = nullptr;
};

struct Family {
  std::string name;
  // One-line description for `pwsim families`.
  std::string description;
  std::vector<FamilyAxis> axes;
  // Whether RunScenario reruns the sweep on one thread and compares tables
  // byte-for-byte (families whose BENCH summary carries "deterministic").
  bool check_determinism = true;

  // Measures one grid point. Runs concurrently across points; must build
  // all simulator state privately from (scenario, quick, point).
  std::function<sweep::Metrics(const Scenario& s, bool quick,
                               const sweep::ParamPoint& p)>
      measure;
  // Reduces the finished table to the BENCH summary metrics. `points` is
  // grid.Points() aligned with table.rows().
  std::function<std::map<std::string, double>(
      const Scenario& s, bool quick, const sweep::ResultTable& table,
      const std::vector<sweep::ParamPoint>& points, bool deterministic)>
      summarize;
};

// nullptr when unknown. The registry is built lazily on first use.
const Family* FindFamily(const std::string& name);
std::vector<std::string> FamilyNames();

// Family-aware validation: every scenario axis must be one the family
// declares (with a "did you mean" over its axis names), every family axis
// must be present, value kinds must match — whole-number values of a
// double axis are promoted in place (so "values": [1, 4] works for
// rate_scale) — and a string axis with declared values accepts only those
// (with a "did you mean" over them). Reports into `diags`; returns
// diags->ok().
bool ValidateForFamily(Scenario* s, DiagnosticEngine* diags);

struct RunOptions {
  bool quick = false;
  // SweepRunner worker threads; 0 = hardware concurrency.
  int threads = 0;
  // Master switch for the 1-thread determinism rerun (ANDed with the
  // family's check_determinism).
  bool check_determinism = true;
  // Write BENCH_<name>.json after the run.
  bool write_json = true;
  // Directory for the JSON ("" = $PWSIM_BENCH_DIR or ".").
  std::string out_dir;
};

struct RunResult {
  sweep::ResultTable table;
  // grid.Points() for the grid that produced `table` (same order).
  std::vector<sweep::ParamPoint> points;
  std::map<std::string, double> summary;
  bool deterministic = true;
  // Path of the written BENCH_<name>.json ("" if not written).
  std::string json_path;
};

// Lowers `s` (already parsed AND ValidateForFamily-ed) through SweepRunner.
// Returns false with *error set on a non-diagnostic failure (unknown
// family). Measurement itself cannot fail — pass/fail is CheckGates' job.
bool RunScenario(const Scenario& s, const RunOptions& opts, RunResult* out,
                 std::string* error);

struct GateResult {
  bool pass = false;
  // "PASS <select> <bound>: <measured>" or "FAIL ...: <offending value or
  // resolution error>".
  std::string line;
};

// Evaluates s.gates in order (semantics in scenario.h) against the result
// store of `result` — the BENCH document RunScenario writes, so gate paths
// are exactly `pwsim query` paths.
std::vector<GateResult> CheckGates(const Scenario& s, const RunResult& result);
// The same against an already-loaded store, e.g. a committed BENCH file.
std::vector<GateResult> CheckGates(const Scenario& s, const ResultStore& store);

}  // namespace pw::scenario
