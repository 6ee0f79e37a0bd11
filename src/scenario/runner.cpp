#include "scenario/runner.h"

#include <algorithm>
#include <cstdio>
#include <limits>
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
    v->push_back(MakeDispatchFamily());
    v->push_back(MakePipelineDispatchFamily());
    v->push_back(MakeTrainingFamily());
    v->push_back(MakeClientsFamily());
    v->push_back(MakeSimcoreFamily());
    return v;
  }();
  return *families;
}

std::string FormatValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

GateResult CheckGate(const Gate& g, const std::string& root,
                     const ResultStore& store) {
  std::string failure;
  // Resolves a set bound into *value and its printed form into *text.
  const auto resolve = [&](const GateBound& b, double* value,
                           std::string* text) {
    if (!b.set) return;
    if (b.path.empty()) {
      *value = b.number;
      *text = FormatValue(b.number);
      return;
    }
    const std::vector<ResultEntry> m = store.Select(root + b.path);
    *text = b.path;
    if (m.size() != 1) {
      failure = "bound '" + b.path + "' matches " + std::to_string(m.size()) +
                " values, not 1";
      return;
    }
    *value = m[0].value;
    *text += " (" + FormatValue(*value) + ")";
  };
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  std::string lo_text, hi_text;
  resolve(g.min, &lo, &lo_text);
  resolve(g.max, &hi, &hi_text);

  const std::vector<ResultEntry> matches = store.Select(root + g.select);
  if (failure.empty() && !ResultStore::IsGlob(g.select) &&
      matches.size() != 1) {
    failure = "matches " + std::to_string(matches.size()) +
              " values; a literal select must match exactly 1";
  }
  for (const ResultEntry& e : matches) {
    if (!failure.empty()) break;
    // Written so a NaN value fails.
    if (!(lo <= e.value && e.value <= hi)) {
      failure = e.path + " = " + FormatValue(e.value);
    }
  }

  std::string measured = "no values";
  if (matches.size() == 1) {
    measured = FormatValue(matches[0].value);
  } else if (!matches.empty()) {
    const auto [min_it, max_it] = std::minmax_element(
        matches.begin(), matches.end(),
        [](const ResultEntry& a, const ResultEntry& b) {
          return a.value < b.value;
        });
    measured = std::to_string(matches.size()) + " values in [" +
               FormatValue(min_it->value) + ", " + FormatValue(max_it->value) +
               "]";
  }
  const std::string bound = g.min.set && g.max.set
                                ? "in [" + lo_text + ", " + hi_text + "]"
                            : g.min.set ? ">= " + lo_text
                                        : "<= " + hi_text;
  GateResult r;
  r.pass = failure.empty();
  r.line = std::string(r.pass ? "PASS " : "FAIL ") + g.select + " " + bound +
           ": " + (r.pass ? measured : failure);
  return r;
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
    } else if (have == AxisKind::kString) {
      for (const auto* values : {&axis.values, &axis.quick_values}) {
        for (const sweep::ParamValue& v : *values) {
          const std::string& value = std::get<std::string>(v);
          const std::string where =
              "axis '" + axis.name + "' of family '" + fam->name + "'";
          if (!spec->values.empty() &&
              std::find(spec->values.begin(), spec->values.end(), value) ==
                  spec->values.end()) {
            diags->Error(axis.loc, where + " has no value '" + value + "'" +
                                       DidYouMeanSuffix(value, spec->values));
          } else if (spec->check != nullptr) {
            const std::string problem = spec->check(value);
            if (!problem.empty()) diags->Error(axis.loc, where + ": " + problem);
          }
        }
      }
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

  sweep::SweepRunner runner(
      sweep::SweepRunner::Options{.threads = opts.threads});
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

std::vector<GateResult> CheckGates(const Scenario& s, const RunResult& result) {
  std::ostringstream doc;
  sweep::WriteBenchJson(doc, s.name, result.summary, result.table);
  ResultStore store;
  std::string error;
  if (!store.LoadBenchText(doc.str(), "BENCH_" + s.name + ".json", &error)) {
    // A NaN or infinite metric has no JSON form; no gate can pass on it.
    std::vector<GateResult> failed;
    for (const Gate& g : s.gates) {
      failed.push_back({false, "FAIL " + g.select + ": " + error});
    }
    return failed;
  }
  return CheckGates(s, store);
}

std::vector<GateResult> CheckGates(const Scenario& s,
                                   const ResultStore& store) {
  std::vector<GateResult> results;
  for (const Gate& g : s.gates) {
    results.push_back(CheckGate(g, s.name + "/", store));
  }
  return results;
}

}  // namespace pw::scenario
