// Declarative scenario schema: one JSON file describes a complete sweep —
// which measurement family runs it, the cluster it runs on, the family's
// workload knobs, and the parameter grid — so new scenarios cost a file,
// not a recompile (docs/SCENARIOS.md has the full schema reference).
//
//   {
//     "name": "serving",            // result file: BENCH_<name>.json
//     "family": "serving",          // registered runner (scenario/runner.h)
//     "description": "...",
//     "cluster":  { "preset": "tpu_default", "devices_per_host": 2, ... },
//     "serving":  { "max_batch": 8, ..., "quick": { "horizon_ms": 2 } },
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
// "quick_values". Spec(quick=true) / GridAxes(quick=true) select the
// overlaid view.
//
// Each family spec declares its fields once, in `kFields`: the table the
// parser, the quick overlay, and Serialize() all walk, in canonical order.
#pragma once

#include <cstdint>
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
// Field defaults are the full-size values of the original hand-written
// sweeps; shipped scenario files override via "quick" for smoke runs.

// One field-table entry: the JSON key, the spec member it fills, and the
// member's inclusive lower bound (numeric members only). The member's type
// sets the JSON type: int and int64 members take an integer, double any
// number; the rest are bool, string and the fault_plan event list.
template <typename Member>
struct Field {
  const char* key;
  Member member;
  double min = -std::numeric_limits<double>::infinity();
};

// family "multitenant": open-loop weighted clients through the stride
// scheduler (scenarios/multitenant.json).
struct MultitenantSpec {
  double nominal_pod_per_sec = 2500;
  int max_inflight_gangs = 2;
  double warmup_ms = 80;
  double horizon_ms = 800;
  int queue_capacity = 64;
  int max_outstanding = 6;
  int retry_max_attempts = 5;
  double retry_initial_backoff_us = 200;
  double retry_max_backoff_ms = 5;
  double step_us = 330;
  std::int64_t collective_bytes = 64;
  std::int64_t seed_base = 0xC0FFEE;

  bool operator==(const MultitenantSpec&) const = default;
  using Self = MultitenantSpec;
  static constexpr std::tuple kFields{
      Field{"nominal_pod_per_sec", &Self::nominal_pod_per_sec, 0},
      Field{"max_inflight_gangs", &Self::max_inflight_gangs, 1},
      Field{"warmup_ms", &Self::warmup_ms, 0},
      Field{"horizon_ms", &Self::horizon_ms, 0},
      Field{"queue_capacity", &Self::queue_capacity, 1},
      Field{"max_outstanding", &Self::max_outstanding, 1},
      Field{"retry_max_attempts", &Self::retry_max_attempts, 1},
      Field{"retry_initial_backoff_us", &Self::retry_initial_backoff_us, 0},
      Field{"retry_max_backoff_ms", &Self::retry_max_backoff_ms, 0},
      Field{"step_us", &Self::step_us, 0},
      Field{"collective_bytes", &Self::collective_bytes, 0},
      Field{"seed_base", &Self::seed_base, 0}};
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
  double min_window_ms = 1;
  double max_window_ms = 5;
  int link_degrades = 1;
  bool always_recover = true;
  int retry_max_attempts = 6;
  double retry_initial_backoff_us = 250;
  double step_us = 300;
  std::int64_t collective_kib = 64;
  std::int64_t seed_base = 0x5eed;
  std::vector<FaultPlanEvent> fault_plan;

  bool operator==(const FaultsSpec&) const = default;
  using Self = FaultsSpec;
  static constexpr std::tuple kFields{
      Field{"horizon_ms", &Self::horizon_ms, 0},
      Field{"min_window_ms", &Self::min_window_ms, 0},
      Field{"max_window_ms", &Self::max_window_ms, 0},
      Field{"link_degrades", &Self::link_degrades, 0},
      Field{"always_recover", &Self::always_recover},
      Field{"retry_max_attempts", &Self::retry_max_attempts, 1},
      Field{"retry_initial_backoff_us", &Self::retry_initial_backoff_us, 0},
      Field{"step_us", &Self::step_us, 0},
      Field{"collective_kib", &Self::collective_kib, 0},
      Field{"seed_base", &Self::seed_base, 0},
      Field{"fault_plan", &Self::fault_plan}};
};

// family "oversub": tenants' working sets vs scaled-down HBM through the
// spill hierarchy (scenarios/oversub.json).
struct OversubSpec {
  int tenants = 4;
  double weights_per_shard_mib = 6;
  double output_per_shard_mib = 2;
  double working_headroom_mib = 64;
  int requests_per_tenant = 24;
  double step_us = 300;

  bool operator==(const OversubSpec&) const = default;
  using Self = OversubSpec;
  static constexpr std::tuple kFields{
      Field{"tenants", &Self::tenants, 1},
      Field{"weights_per_shard_mib", &Self::weights_per_shard_mib, 0},
      Field{"output_per_shard_mib", &Self::output_per_shard_mib, 0},
      Field{"working_headroom_mib", &Self::working_headroom_mib, 0},
      Field{"requests_per_tenant", &Self::requests_per_tenant, 1},
      Field{"step_us", &Self::step_us, 0}};
};

// The request shape both serving families share: batching limits, the
// uniform token-length ranges, the arrival horizon and the seeds. Its
// fields sit in two runs of the canonical order, with each family's own
// fields between them.
struct RequestShape {
  explicit RequestShape(double horizon_ms) : horizon_ms(horizon_ms) {}

  int max_batch = 8;
  int token_budget = 256;
  int min_prefill_tokens = 8;
  int max_prefill_tokens = 48;
  int min_decode_tokens = 2;
  int max_decode_tokens = 32;
  double horizon_ms;
  std::int64_t arrival_seed_base = 11;
  std::int64_t arrival_seed_stride = 17;
  std::int64_t token_seed_base = 101;

  bool operator==(const RequestShape&) const = default;
  using Self = RequestShape;
  static constexpr std::tuple kBatchFields{
      Field{"max_batch", &Self::max_batch, 1},
      Field{"token_budget", &Self::token_budget, 1},
      Field{"min_prefill_tokens", &Self::min_prefill_tokens, 1},
      Field{"max_prefill_tokens", &Self::max_prefill_tokens, 1},
      Field{"min_decode_tokens", &Self::min_decode_tokens, 1},
      Field{"max_decode_tokens", &Self::max_decode_tokens, 1},
      Field{"horizon_ms", &Self::horizon_ms, 0}};
  static constexpr std::tuple kSeedFields{
      Field{"arrival_seed_base", &Self::arrival_seed_base, 0},
      Field{"arrival_seed_stride", &Self::arrival_seed_stride, 0},
      Field{"token_seed_base", &Self::token_seed_base, 0}};
};

// family "serving": continuous vs static batching under KV budgets
// (scenarios/serving.json, serving_flow.json).
struct ServingSpec : RequestShape {
  ServingSpec() : RequestShape(/*horizon_ms=*/8) {}

  std::int64_t kv_bytes_per_token = 4096;
  double hbm_frac_of_working_set = 0.2;
  double hbm_headroom_kib = 128;

  bool operator==(const ServingSpec&) const = default;
  using Self = ServingSpec;
  static constexpr auto kFields = std::tuple_cat(
      std::tuple{Field{"kv_bytes_per_token", &Self::kv_bytes_per_token, 1}},
      kBatchFields,
      std::tuple{
          Field{"hbm_frac_of_working_set", &Self::hbm_frac_of_working_set, 0},
          Field{"hbm_headroom_kib", &Self::hbm_headroom_kib, 0}},
      kSeedFields);
};

// family "serving_disagg": prefill/decode split across islands with
// cross-island KV transfer, vs a colocated arm
// (scenarios/serving_disagg.json).
struct DisaggSpec : RequestShape {
  DisaggSpec() : RequestShape(/*horizon_ms=*/4000) {}

  std::string model = "decoder3b";
  double hbm_headroom_mib = 1;

  bool operator==(const DisaggSpec&) const = default;
  using Self = DisaggSpec;
  static constexpr auto kFields = std::tuple_cat(
      std::tuple{Field{"model", &Self::model}}, kBatchFields,
      std::tuple{Field{"hbm_headroom_mib", &Self::hbm_headroom_mib, 0}},
      kSeedFields);
};

// family "network": contended flow-level Clos DCN vs the abstract per-NIC
// fabric, swept over oversubscription ratio x incast fan-in
// (scenarios/network.json, docs/NETWORK.md).
struct NetworkSpec {
  double message_mib = 16;
  int hosts = 32;
  int hosts_per_leaf = 8;
  int num_spines = 4;

  bool operator==(const NetworkSpec&) const = default;
  using Self = NetworkSpec;
  static constexpr std::tuple kFields{
      Field{"message_mib", &Self::message_mib, 0},
      Field{"hosts", &Self::hosts, 2},
      Field{"hosts_per_leaf", &Self::hosts_per_leaf, 1},
      Field{"num_spines", &Self::num_spines, 1}};
};

// family "fig12_twoisland": Figure 12 / §5.3 — data-parallel training over
// two islands vs one island with twice the devices, plus the flow-level
// Clos validation arm (scenarios/fig12_twoisland.json). The model axis
// fixes the per-island core count: decoder64b -> 512, decoder136b -> 1024.
struct Fig12Spec {
  int steps = 3;
  int chunks = 8;
  int max_inflight_gangs = 64;
  int model_parallel = 32;  // single-island SPMD arm

  bool operator==(const Fig12Spec&) const = default;
  using Self = Fig12Spec;
  static constexpr std::tuple kFields{
      Field{"steps", &Self::steps, 1},
      Field{"chunks", &Self::chunks, 1},
      Field{"max_inflight_gangs", &Self::max_inflight_gangs, 1},
      Field{"model_parallel", &Self::model_parallel, 1}};
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
  WithQuick<NetworkSpec> network;
  WithQuick<Fig12Spec> fig12;

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
