// pwsim — the declarative scenario CLI (docs/SCENARIOS.md).
//
//   pwsim validate <file>...     schema + family validation, clang-style
//                                diagnostics, non-zero exit on any error
//   pwsim run <name|file>        lower a scenario through SweepRunner, write
//                                BENCH_<name>.json, check its gates
//   pwsim query --select <glob>  path-addressed lookup over BENCH_*.json
//   pwsim dump <name|file>       canonical serialization to stdout
//   pwsim families               list registered measurement families
//
// Scenario arguments that name no existing file and contain no '/' resolve
// through ScenarioDir() (default <repo>/scenarios, override with
// $PWSIM_SCENARIO_DIR).
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "scenario/result_store.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sweep/result_table.h"

namespace {

using namespace pw;
using scenario::DiagnosticEngine;
using scenario::ResultStore;
using scenario::Scenario;

int Usage(FILE* out) {
  std::fprintf(out,
               "pwsim — declarative scenario runner for the Pathways "
               "simulator\n"
               "\n"
               "usage:\n"
               "  pwsim validate <scenario.json>...\n"
               "      Parse + schema-check + family-check each file; prints\n"
               "      clang-style diagnostics; exit 1 if any file fails.\n"
               "  pwsim run <name|file> [--quick] [--threads N] [--out DIR]\n"
               "                        [--no-determinism] [--dry-run]\n"
               "      Run the scenario's sweep, print its table and summary,\n"
               "      write BENCH_<name>.json and check the scenario's gates;\n"
               "      exit 1 if a gate fails or the file cannot be written\n"
               "      (--threads: sweep workers, 0 = all cores;\n"
               "      --dry-run: validate and list grid points only).\n"
               "  pwsim query --select <glob> [--dir DIR]\n"
               "      Print 'path value' for every result matching the\n"
               "      glob (segments split on '/'; * ? within a segment,\n"
               "      ** across segments), loaded from DIR's BENCH_*.json\n"
               "      (default: current directory). The glob may be\n"
               "      prefixed with an aggregation — 'p99 over <glob>',\n"
               "      also min/max/mean/sum/count/pNN — to reduce all\n"
               "      matches to one number.\n"
               "  pwsim dump <name|file>\n"
               "      Print the canonical serialization (the parse ->\n"
               "      serialize -> parse fixed point).\n"
               "  pwsim families\n"
               "      List measurement families and their sweep axes.\n");
  return out == stderr ? 2 : 0;
}

// <name> -> ScenarioDir()/<name>.json unless it already names a file.
std::string ResolveScenarioPath(const std::string& arg) {
  if (arg.find('/') != std::string::npos ||
      (arg.size() > 5 && arg.substr(arg.size() - 5) == ".json")) {
    return arg;
  }
  std::ifstream probe(arg);
  if (probe.good()) return arg;
  return scenario::DefaultScenarioPath(arg);
}

// Whole-string decimal parse; rejects signs, junk suffixes and overflow.
bool ParseNonNegativeInt(const std::string& s, int* out) {
  const char* end = s.data() + s.size();
  int v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || v < 0) return false;
  *out = v;
  return true;
}

bool LoadAndValidate(const std::string& path, Scenario* s,
                     DiagnosticEngine* diags) {
  if (!scenario::LoadScenarioFile(path, s, diags)) return false;
  return scenario::ValidateForFamily(s, diags);
}

int CmdValidate(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "pwsim validate: no files given\n");
    return 2;
  }
  int failures = 0;
  for (const std::string& arg : files) {
    const std::string path = ResolveScenarioPath(arg);
    Scenario s;
    DiagnosticEngine diags;
    if (LoadAndValidate(path, &s, &diags)) {
      // Valid files can still carry notes (e.g. deprecation warnings).
      if (!diags.diagnostics().empty()) {
        std::fputs(diags.Render().c_str(), stdout);
      }
      std::printf("%s: OK (family %s, %zu axes)\n", path.c_str(),
                  s.family.c_str(), s.sweep.size());
    } else {
      std::fputs(diags.Render().c_str(), stderr);
      ++failures;
    }
  }
  return failures > 0 ? 1 : 0;
}

int CmdRun(const std::vector<std::string>& args) {
  std::string target;
  scenario::RunOptions opts;
  bool dry_run = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--quick") {
      opts.quick = true;
    } else if (a == "--no-determinism") {
      opts.check_determinism = false;
    } else if (a == "--dry-run") {
      dry_run = true;
    } else if (a == "--threads" && i + 1 < args.size()) {
      const std::string& n = args[++i];
      if (!ParseNonNegativeInt(n, &opts.threads)) {
        std::fprintf(stderr,
                     "pwsim run: --threads expects a non-negative integer, "
                     "got '%s'\n",
                     n.c_str());
        return Usage(stderr);
      }
    } else if (a == "--out" && i + 1 < args.size()) {
      opts.out_dir = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "pwsim run: unknown flag '%s'\n", a.c_str());
      return Usage(stderr);
    } else if (target.empty()) {
      target = a;
    } else {
      std::fprintf(stderr, "pwsim run: more than one scenario given\n");
      return Usage(stderr);
    }
  }
  if (target.empty()) {
    std::fprintf(stderr, "pwsim run: no scenario given\n");
    return Usage(stderr);
  }

  const std::string path = ResolveScenarioPath(target);
  Scenario s;
  DiagnosticEngine diags;
  if (!LoadAndValidate(path, &s, &diags)) {
    std::fputs(diags.Render().c_str(), stderr);
    return 1;
  }

  const sweep::ParamGrid grid = s.Grid(opts.quick);
  const auto points = grid.Points();
  if (dry_run) {
    std::printf("%s: family %s, %zu points%s\n", s.name.c_str(),
                s.family.c_str(), points.size(),
                opts.quick ? " (quick)" : "");
    for (const auto& p : points) {
      std::printf("  %s\n", p.Label().c_str());
    }
    return 0;
  }

  scenario::RunResult result;
  std::string error;
  if (!scenario::RunScenario(s, opts, &result, &error)) {
    std::fprintf(stderr, "pwsim run: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s: %zu points%s\n", s.name.c_str(), result.points.size(),
              opts.quick ? " (quick)" : "");
  result.table.WriteCsv(std::cout);  // stdio-synced: ordered with printf
  std::printf("summary:\n");
  for (const auto& [key, value] : result.summary) {
    std::printf("  %-28s %.6g\n", key.c_str(), value);
  }
  int rc = 0;
  if (result.json_path.empty()) {
    std::fprintf(stderr, "pwsim run: could not write BENCH_%s.json%s%s\n",
                 s.name.c_str(), opts.out_dir.empty() ? "" : " in ",
                 opts.out_dir.c_str());
    rc = 1;
  } else {
    std::printf("wrote %s\n", result.json_path.c_str());
  }
  for (const scenario::GateResult& g : scenario::CheckGates(s, result)) {
    std::printf("%s\n", g.line.c_str());
    if (!g.pass) rc = 1;
  }
  return rc;
}

// Shortest printf form of `v` that strtod-round-trips.
std::string RoundTripNumber(double v) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

int CmdQuery(const std::vector<std::string>& args) {
  std::string select;
  std::string dir = ".";
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--select" && i + 1 < args.size()) {
      select = args[++i];
    } else if (a == "--dir" && i + 1 < args.size()) {
      dir = args[++i];
    } else {
      std::fprintf(stderr, "pwsim query: unknown argument '%s'\n", a.c_str());
      return Usage(stderr);
    }
  }
  if (select.empty()) {
    std::fprintf(stderr, "pwsim query: --select <glob> is required\n");
    return Usage(stderr);
  }
  ResultStore store;
  std::string error;
  const int loaded = store.LoadDir(dir, &error);
  if (loaded < 0) {
    std::fprintf(stderr, "pwsim query: %s\n", error.c_str());
    return 1;
  }
  if (loaded == 0) {
    std::fprintf(stderr, "pwsim query: no BENCH_*.json files in %s\n",
                 dir.c_str());
    return 1;
  }
  if (const auto agg = ResultStore::ParseAggregation(select)) {
    const auto value = store.Aggregate(*agg);
    if (!value.has_value()) {
      std::fprintf(stderr, "pwsim query: no results match '%s'\n",
                   agg->glob.c_str());
      return 1;
    }
    std::printf("%s\n", RoundTripNumber(*value).c_str());
    return 0;
  }

  const auto matches = store.Select(select);
  for (const auto& e : matches) {
    // Shortest round-trip form, same as the files themselves.
    std::printf("%s %s\n", e.path.c_str(), RoundTripNumber(e.value).c_str());
  }
  if (matches.empty()) {
    std::fprintf(stderr, "pwsim query: no results match '%s'\n",
                 select.c_str());
    return 1;
  }
  return 0;
}

int CmdDump(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "pwsim dump: expected exactly one scenario\n");
    return 2;
  }
  const std::string path = ResolveScenarioPath(args[0]);
  Scenario s;
  DiagnosticEngine diags;
  if (!LoadAndValidate(path, &s, &diags)) {
    std::fputs(diags.Render().c_str(), stderr);
    return 1;
  }
  std::fputs(s.Serialize().c_str(), stdout);
  return 0;
}

int CmdFamilies() {
  for (const std::string& name : scenario::FamilyNames()) {
    const scenario::Family* f = scenario::FindFamily(name);
    std::printf("%s — %s\n", f->name.c_str(), f->description.c_str());
    for (const auto& axis : f->axes) {
      std::printf("  axis %-18s %s\n", axis.name.c_str(),
                  scenario::AxisKindName(axis.kind));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(stderr);
  const std::string cmd = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);
  if (cmd == "validate") return CmdValidate(rest);
  if (cmd == "run") return CmdRun(rest);
  if (cmd == "query") return CmdQuery(rest);
  if (cmd == "dump") return CmdDump(rest);
  if (cmd == "families") return CmdFamilies();
  if (cmd == "--help" || cmd == "-h" || cmd == "help") return Usage(stdout);
  std::fprintf(stderr, "pwsim: unknown command '%s'\n", cmd.c_str());
  return Usage(stderr);
}
