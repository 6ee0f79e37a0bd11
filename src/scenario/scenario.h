// Declarative scenario schema: one JSON file describes a complete sweep —
// which measurement family runs it, the cluster it runs on, the workload
// fields its family section lets it set, and the parameter grid — so new
// scenarios cost a file, not a recompile (docs/SCENARIOS.md has the full
// schema reference).
//
//   {
//     "name": "serving",            // result file: BENCH_<name>.json
//     "family": "serving",          // registered runner (scenario/runner.h)
//     "description": "...",
//     "cluster":  { "preset": "tpu_default", "devices_per_host": 2, ... },
//     "serving":  { "quick": { "horizon_ms": 2 } },
//     "sweep":    { "axes": [ { "name": "rate_per_s",
//                               "values": [1500.0, 24000.0],
//                               "quick_values": [1500.0] } ] },
//     "gates":    [ { "select": "summary/deadlocks", "max": 0 } ]
//   }
//
// Parsing is strict: unknown keys are hard errors with "did you mean"
// suggestions, every diagnostic carries file:line:col, and a parsed
// scenario serializes back to a canonical byte-stable form (Serialize is a
// fixed field order; parse -> serialize -> parse round-trips
// byte-identically).
//
// Every family section accepts a "quick" sub-object overriding a subset of
// its fields for --quick (CI smoke) runs; each sweep axis may carry
// "quick_values". WithQuick::For(true) / Scenario::Grid(true) select the
// overlaid view.
//
// Each family spec declares its fields once, in `kFields`: the table the
// parser, the quick overlay, and Serialize() all walk, in canonical order.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/diagnostics.h"
#include "sweep/param_grid.h"

namespace pw::scenario {

// --- Cluster topology (hw::SystemParams / hw::Cluster knobs) ---------------
//
// `preset` picks the base SystemParams and construction style:
//   "tpu_default" — SystemParams::TpuDefault() + the uniform shape below
//   "gpu_vm"      — SystemParams::GpuVmDefault() + the uniform shape below
//   "config_a" / "config_b" — the paper's evaluation configurations
//     (hw::Cluster::ConfigA/ConfigB; hosts_per_island supplies `hosts`)
// Optional overrides apply on top; families may further derive per-point
// values (e.g. oversub scales hbm_capacity from its sweep axis).
struct ClusterSpec {
  std::string preset = "tpu_default";
  int islands = 1;
  int hosts_per_island = 1;
  int devices_per_host = 2;
  std::optional<double> host_jitter_frac;
  std::optional<double> hbm_capacity_mib;
  std::optional<double> host_dram_capacity_mib;
  // Flow-level ICI (net::IciFlowParams): per-island torus pricing.
  bool ici_flow = false;
  int ici_flow_dims = 2;
  // Flow-level DCN (net::DcnClosParams): two-tier Clos pricing.
  bool dcn_clos = false;
  int clos_hosts_per_leaf = 8;
  int clos_num_spines = 4;
  double clos_oversubscription = 1.0;

  bool operator==(const ClusterSpec&) const = default;
};

// The `preset` names above, in that order.
const std::vector<std::string>& KnownPresets();

// --- Family sections -------------------------------------------------------
// A section holds only the fields some shipped scenario sets (in the full
// section or its "quick" overlay); each family's other workload values are
// named constants in its family_*.cpp. Field defaults are the full-size
// values of the original hand-written sweeps.

// One field-table entry: the JSON key, the spec member it fills, and the
// member's inclusive lower bound (numeric members only). The member's type
// sets the JSON type: an int member takes an integer, a double any number,
// and the fault_plan member its event list.
template <typename Member>
struct Field {
  const char* key;
  Member member;
  double min = -std::numeric_limits<double>::infinity();
};

// family "multitenant": open-loop weighted clients through the stride
// scheduler (scenarios/multitenant.json). Metrics cover [warmup, horizon).
struct MultitenantSpec {
  double warmup_ms = 80;
  double horizon_ms = 800;

  bool operator==(const MultitenantSpec&) const = default;
  using Self = MultitenantSpec;
  static constexpr std::tuple kFields{
      Field{"warmup_ms", &Self::warmup_ms, 0},
      Field{"horizon_ms", &Self::horizon_ms, 0}};
};

// One entry in a declarative fault timeline. `kind` selects which target
// fields apply (others are schema errors, so serialization stays canonical):
//   device_crash — device                 (crash at at_ms, down window_ms)
//   straggler    — device, severity > 1   (compute multiplier for window_ms)
//   link_degrade — host, severity in (0,1] (NIC bandwidth scale)
//   partition    — host                   (cut off the DCN for window_ms)
// window_ms = 0 on device_crash means the device never recovers.
struct FaultPlanEvent {
  std::string kind;
  double at_ms = 0;
  double window_ms = 0;
  int device = 0;
  int host = 0;
  double severity = 1.0;

  bool operator==(const FaultPlanEvent&) const = default;
};

// family "faults": crash/straggler/degrade injection vs a per-point
// fault-free baseline (scenarios/faults.json, faults_plan.json).
//
// Two ways to get a fault timeline: a non-empty `fault_plan` replays those
// exact events at every grid point; an empty one derives a seeded random
// plan from the faults_per_sec axis (the original faults sweep behaviour,
// now deprecated — validation emits a note steering scenarios to the
// declarative form).
struct FaultsSpec {
  double horizon_ms = 200;
  std::vector<FaultPlanEvent> fault_plan;

  bool operator==(const FaultsSpec&) const = default;
  using Self = FaultsSpec;
  static constexpr std::tuple kFields{
      Field{"horizon_ms", &Self::horizon_ms, 0},
      Field{"fault_plan", &Self::fault_plan}};
};

// family "oversub": tenants' working sets vs scaled-down HBM through the
// spill hierarchy (scenarios/oversub.json).
struct OversubSpec {
  int requests_per_tenant = 24;

  bool operator==(const OversubSpec&) const = default;
  using Self = OversubSpec;
  static constexpr std::tuple kFields{
      Field{"requests_per_tenant", &Self::requests_per_tenant, 1}};
};

// family "serving": continuous vs static batching under KV budgets
// (scenarios/serving.json, serving_flow.json). Tenants offer requests
// until horizon_ms.
struct ServingSpec {
  double horizon_ms = 8;

  bool operator==(const ServingSpec&) const = default;
  using Self = ServingSpec;
  static constexpr std::tuple kFields{
      Field{"horizon_ms", &Self::horizon_ms, 0}};
};

// family "serving_disagg": prefill/decode split across islands with
// cross-island KV transfer, vs a colocated arm
// (scenarios/serving_disagg.json). Tenants offer requests until horizon_ms.
struct DisaggSpec {
  double horizon_ms = 4000;

  bool operator==(const DisaggSpec&) const = default;
  using Self = DisaggSpec;
  static constexpr std::tuple kFields{
      Field{"horizon_ms", &Self::horizon_ms, 0}};
};

// --- Gates -----------------------------------------------------------------
//
// A pass/fail check `pwsim run` evaluates on the finished run's result
// store (scenario/result_store.h). Paths are relative to the scenario's
// result root: "<name>/" is prepended. A literal `select` must resolve to
// exactly one value; a glob checks every match and may match none. Bounds
// are inclusive (a value passes iff min <= v && v <= max, so NaN fails).

// A bound is a number, or a literal result path of the same run that
// resolves to exactly one value.
struct GateBound {
  bool set = false;
  double number = 0;
  std::string path;  // non-empty: the bound is this result's value
};

struct Gate {
  SourceLoc loc;
  std::string select;
  GateBound min, max;
};

// --- Sweep grid ------------------------------------------------------------

struct SweepAxis {
  std::string name;
  SourceLoc loc;  // of the axis object, for family-validation diagnostics
  std::vector<sweep::ParamValue> values;
  // Reduced values for --quick runs; empty = same as `values`.
  std::vector<sweep::ParamValue> quick_values;

  const std::vector<sweep::ParamValue>& For(bool quick) const {
    return quick && !quick_values.empty() ? quick_values : values;
  }
};

// One family section parsed twice: the full-size spec and the spec with the
// "quick" overlay applied.
template <typename T>
struct WithQuick {
  bool present = false;
  SourceLoc loc;
  T full;
  T quick;

  const T& For(bool is_quick) const { return is_quick ? quick : full; }
};

struct Scenario {
  std::string file;  // where it was loaded from ("" for in-memory)
  std::string name;
  std::string family;
  std::string description;
  SourceLoc name_loc, family_loc, sweep_loc;

  ClusterSpec cluster;
  std::vector<SweepAxis> sweep;

  WithQuick<MultitenantSpec> multitenant;
  WithQuick<FaultsSpec> faults;
  WithQuick<OversubSpec> oversub;
  WithQuick<ServingSpec> serving;
  WithQuick<DisaggSpec> disagg;

  std::vector<Gate> gates;

  // The axis list lowered into a sweep::ParamGrid (row-major order as
  // declared). Family-specific type coercion lives in runner.h's
  // ValidateForFamily; this is the raw lowering.
  sweep::ParamGrid Grid(bool quick) const;

  // Canonical serialization: fixed field order, canonical number
  // formatting, quick overlays reduced to their diff vs the full spec.
  // Parse(Serialize()) == *this, and re-serializing is byte-identical.
  std::string Serialize() const;
};

// One family section: its key (also the name of the family that reads it)
// and its Scenario member.
template <typename S>
struct Section {
  const char* key;
  WithQuick<S> Scenario::*member;
};

// Every family section, in canonical order. The other families (training,
// network, ...) have none: their sweep axes are all a scenario varies.
inline constexpr std::tuple kSections{
    Section{"multitenant", &Scenario::multitenant},
    Section{"faults", &Scenario::faults},
    Section{"oversub", &Scenario::oversub},
    Section{"serving", &Scenario::serving},
    Section{"serving_disagg", &Scenario::disagg}};

// Parses and schema-validates `text` into *out, reporting into `diags`
// (construct the engine over the same file/text). Returns false if any
// error was reported; *out is only meaningful on success.
bool ParseScenario(const std::string& text, Scenario* out,
                   DiagnosticEngine* diags);

// Loads a scenario file from disk. `diags` is reset to the file's content
// for rendering. Returns false on I/O or parse/validation errors.
bool LoadScenarioFile(const std::string& path, Scenario* out,
                      DiagnosticEngine* diags);

// Directory holding the shipped scenario files: $PWSIM_SCENARIO_DIR when
// set, else the compile-time default (<repo>/scenarios).
std::string ScenarioDir();
// ScenarioDir()/<name>.json
std::string DefaultScenarioPath(const std::string& name);

}  // namespace pw::scenario
