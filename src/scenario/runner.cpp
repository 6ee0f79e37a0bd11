#include "scenario/runner.h"

#include <sstream>
#include <utility>

#include "scenario/family_common.h"

namespace pw::scenario {
namespace {

// Built lazily so family registration cannot be dropped by the linker or
// race static initialization across translation units.
const std::vector<Family>& Registry() {
  static const std::vector<Family>* families = [] {
    auto* v = new std::vector<Family>();
    v->push_back(MakeMultitenantFamily());
    v->push_back(MakeFaultsFamily());
    v->push_back(MakeOversubFamily());
    v->push_back(MakeServingFamily());
    v->push_back(MakeServingDisaggFamily());
    v->push_back(MakeNetworkFamily());
    v->push_back(MakeFig12Family());
    return v;
  }();
  return *families;
}

}  // namespace

const char* AxisKindName(AxisKind kind) {
  switch (kind) {
    case AxisKind::kInt: return "int";
    case AxisKind::kDouble: return "double";
    case AxisKind::kString: return "string";
  }
  return "?";
}

AxisKind KindOfValue(const sweep::ParamValue& v) {
  if (std::holds_alternative<std::int64_t>(v)) return AxisKind::kInt;
  if (std::holds_alternative<double>(v)) return AxisKind::kDouble;
  return AxisKind::kString;
}

const Family* FindFamily(const std::string& name) {
  for (const Family& f : Registry()) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::vector<std::string> FamilyNames() {
  std::vector<std::string> names;
  for (const Family& f : Registry()) names.push_back(f.name);
  return names;
}

bool ValidateForFamily(Scenario* s, DiagnosticEngine* diags) {
  const Family* fam = FindFamily(s->family);
  if (fam == nullptr) {
    diags->Error(s->family_loc, "unknown family '" + s->family + "'" +
                                    DidYouMeanSuffix(s->family, FamilyNames()));
    return false;
  }

  std::vector<std::string> axis_names;
  for (const FamilyAxis& fa : fam->axes) axis_names.push_back(fa.name);

  for (SweepAxis& axis : s->sweep) {
    const FamilyAxis* spec = nullptr;
    for (const FamilyAxis& fa : fam->axes) {
      if (fa.name == axis.name) {
        spec = &fa;
        break;
      }
    }
    if (spec == nullptr) {
      diags->Error(axis.loc, "family '" + fam->name + "' has no axis '" +
                                 axis.name + "'" +
                                 DidYouMeanSuffix(axis.name, axis_names));
      continue;
    }
    const AxisKind have = KindOfValue(axis.values.front());
    if (have == AxisKind::kInt && spec->kind == AxisKind::kDouble) {
      // Whole numbers in a double axis are a convenience, not an error:
      // [1, 4] on rate_scale means [1.0, 4.0].
      for (sweep::ParamValue& v : axis.values) {
        v = static_cast<double>(std::get<std::int64_t>(v));
      }
      for (sweep::ParamValue& v : axis.quick_values) {
        v = static_cast<double>(std::get<std::int64_t>(v));
      }
    } else if (have != spec->kind) {
      diags->Error(axis.loc, "axis '" + axis.name + "' of family '" +
                                 fam->name + "' expects " +
                                 AxisKindName(spec->kind) + " values, got " +
                                 AxisKindName(have));
    }
  }

  // A declarative fault_plan supersedes the axis-derived random plan, so
  // the faults_per_sec axis becomes optional for those scenarios.
  const bool has_fault_plan =
      s->family == "faults" && !s->faults.full.fault_plan.empty();
  for (const FamilyAxis& fa : fam->axes) {
    if (has_fault_plan && fa.name == "faults_per_sec") continue;
    bool found = false;
    for (const SweepAxis& axis : s->sweep) found |= axis.name == fa.name;
    if (!found) {
      diags->Error(s->sweep_loc, "family '" + fam->name +
                                     "' requires axis '" + fa.name + "' (" +
                                     AxisKindName(fa.kind) + ")");
    }
  }
  if (s->family == "faults" && !has_fault_plan) {
    diags->Note(s->faults.present ? s->faults.loc : s->sweep_loc,
                "deriving the fault timeline from the faults_per_sec axis is "
                "deprecated; declare an explicit 'fault_plan' in the 'faults' "
                "section (see scenarios/faults_plan.json)");
  }
  return diags->ok();
}

bool RunScenario(const Scenario& s, const RunOptions& opts, RunResult* out,
                 std::string* error) {
  const Family* fam = FindFamily(s.family);
  if (fam == nullptr) {
    if (error != nullptr) *error = "unknown family '" + s.family + "'";
    return false;
  }

  const sweep::ParamGrid grid = s.Grid(opts.quick);
  const auto point_fn = [&](const sweep::ParamPoint& p) {
    return fam->measure(s, opts.quick, p);
  };

  sweep::SweepRunner runner(sweep::SweepRunner::Options{
      .threads = opts.threads, .record_wall_ms = false});
  out->table = runner.Run(grid, point_fn);
  out->points = grid.Points();

  out->deterministic = true;
  if (opts.check_determinism && fam->check_determinism) {
    // The SweepRunner contract: the identical sweep on one thread must
    // serialize to the identical table.
    sweep::SweepRunner serial(sweep::SweepRunner::Options{.threads = 1});
    const sweep::ResultTable table1 = serial.Run(grid, point_fn);
    std::ostringstream csv_mt, csv_1t;
    out->table.WriteCsv(csv_mt);
    table1.WriteCsv(csv_1t);
    out->deterministic = csv_mt.str() == csv_1t.str();
  }

  out->summary.clear();
  if (fam->summarize) {
    out->summary = fam->summarize(s, opts.quick, out->table, out->points,
                                  out->deterministic);
  }

  out->json_path.clear();
  if (opts.write_json) {
    out->json_path =
        sweep::WriteBenchJsonFile(s.name, out->summary, out->table,
                                  opts.out_dir);
  }
  return true;
}

}  // namespace pw::scenario
