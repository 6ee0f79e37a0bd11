// pwbench: end-to-end and per-layer benchmark of the Pathways simulator on
// four paper-shaped workloads (bench/pwbench/README.md).
//
//   pwbench run <workload|all> [--seed N] [--seconds S] [--smoke]
//               [--phase e2e|layers|both] [--out DIR] [--trace FILE] [--json]
//   pwbench compare <parent-dir> <change-dir>
//
// `run` prints "workload metric value unit" for every metric and exits 1
// if any output check fails. `run all` measures each workload in its own
// child process, one after another, so every process is single-threaded
// and its peak RSS belongs to one workload.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "compare.h"
#include "measure.h"
#include "meta.h"

namespace pwbench {
namespace {

constexpr char kUsage[] =
    "usage: pwbench run <workload|all> [--seed N] [--seconds S] [--smoke]\n"
    "                   [--phase e2e|layers|both] [--out DIR] [--trace FILE]"
    " [--json]\n"
    "       pwbench compare <parent-dir> <change-dir>\n"
    "workloads: pipeline16 train_clos serve_kv serve_disagg_clos\n";

int Usage(const std::string& error) {
  std::fprintf(stderr, "pwbench: %s\n%s", error.c_str(), kUsage);
  return 2;
}

struct RunArgs {
  std::string workload;
  WorkloadConfig config;
  double seconds = 10;
  bool e2e = true;
  bool layers = true;
  std::string out_dir;
  std::string trace_path;
  bool json = false;
  // Flags forwarded verbatim to each child of `run all`.
  std::vector<std::string> forwarded;
};

bool ParseRunArgs(int argc, char** argv, RunArgs* a, std::string* error) {
  if (argc < 3) {
    *error = "run needs a workload";
    return false;
  }
  a->workload = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->config.smoke = true;
      a->forwarded.push_back(flag);
      continue;
    }
    if (flag == "--json") {
      a->json = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--seed") {
      a->config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0' || errno != 0) {
        *error = "--seed takes a non-negative integer";
        return false;
      }
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || errno != 0 ||
          !(a->seconds >= 0 && a->seconds <= 3600)) {
        *error = "--seconds takes a number in [0, 3600]";
        return false;
      }
    } else if (flag == "--phase") {
      a->e2e = value == "e2e" || value == "both";
      a->layers = value == "layers" || value == "both";
      if (!a->e2e && !a->layers) {
        *error = "--phase takes e2e, layers or both";
        return false;
      }
    } else if (flag == "--out") {
      a->out_dir = value;
    } else if (flag == "--trace") {
      a->trace_path = value;
      continue;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    a->forwarded.push_back(flag);
    a->forwarded.push_back(value);
  }
  return true;
}

std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
// preceded by "meta" when given.
std::string ResultJson(const PhaseResult& r, const std::string& meta) {
  std::string out = "{";
  if (!meta.empty()) out += "\"meta\": " + meta + ", ";
  out += std::string("\"correct\": ") + (r.errors.empty() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

void Merge(PhaseResult part, PhaseResult* all) {
  all->attempted += part.attempted;
  all->failed += part.failed;
  for (auto& m : part.metrics) all->metrics.push_back(std::move(m));
  for (auto& e : part.errors) all->errors.push_back(std::move(e));
  for (auto& n : part.notes) all->notes.push_back(std::move(n));
}

int RunOne(const RunArgs& a) {
  BenchmarkSpec spec;
  std::string error;
  if (!LoadBenchmarkSpec(&spec, &error)) {
    std::fprintf(stderr, "pwbench: %s\n", error.c_str());
    return 2;
  }
  MeasureOptions options;
  options.config = a.config;
  options.seconds = a.seconds;
  options.trace_path = a.trace_path;
  PhaseResult all;
  if (a.e2e) {
    PhaseResult r = MeasureEndToEnd(a.workload, options);
    CheckAgainstSpec(spec.end_to_end, &r);
    Merge(std::move(r), &all);
  }
  if (a.layers) {
    PhaseResult r = MeasureLayers(a.workload, options);
    CheckAgainstSpec(spec.per_layer, &r);
    Merge(std::move(r), &all);
  }

  for (const Metric& m : all.metrics) {
    std::printf("%-18s %-34s %.6g %s\n", a.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const std::string& note : all.notes) std::printf("%s\n", note.c_str());
  for (const std::string& e : all.errors) {
    std::fprintf(stderr, "pwbench: %s: %s\n", a.workload.c_str(), e.c_str());
  }
  if (!a.out_dir.empty()) {
    const std::string path = a.out_dir + "/" + a.workload + ".jsonl";
    std::ofstream out(path, std::ios::app);
    out << ResultJson(all, MetaJson(a.workload, a.config.seed,
                                    a.config.smoke))
        << "\n";
    if (!out) {
      std::fprintf(stderr, "pwbench: cannot append to %s\n", path.c_str());
      return 1;
    }
  }
  if (a.json) std::printf("%s\n", ResultJson(all, "").c_str());
  std::fflush(stdout);
  return all.errors.empty() ? 0 : 1;
}

// Runs every workload in its own child process, one at a time.
int RunAll(const RunArgs& a) {
  int worst = 0;
  for (const std::string& name : WorkloadNames()) {
    std::vector<std::string> args = {"pwbench", "run", name};
    args.insert(args.end(), a.forwarded.begin(), a.forwarded.end());
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) return Usage("fork failed");
    if (pid == 0) {
      execv("/proc/self/exe", argv.data());
      std::perror("pwbench: exec");
      _exit(127);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    if (code != 0) {
      std::fprintf(stderr, "pwbench: %s exited with %d\n", name.c_str(),
                   code);
    }
    worst = std::max(worst, code);
  }
  return worst;
}

}  // namespace
}  // namespace pwbench

int main(int argc, char** argv) {
  using namespace pwbench;
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "compare") {
    if (argc != 4) return Usage("compare takes two result directories");
    return Compare(argv[2], argv[3]);
  }
  if (cmd != "run") {
    return Usage(cmd.empty() ? "missing command" : "unknown command " + cmd);
  }
  RunArgs args;
  std::string error;
  if (!ParseRunArgs(argc, argv, &args, &error)) return Usage(error);
  std::error_code ec;
  if (!args.out_dir.empty() &&
      !std::filesystem::create_directories(args.out_dir, ec) && ec) {
    return Usage("cannot create " + args.out_dir);
  }
  if (args.workload == "all") {
    if (args.json || !args.trace_path.empty()) {
      return Usage("--json and --trace take a single workload");
    }
    return RunAll(args);
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return Usage("unknown workload " + args.workload);
  }
  return RunOne(args);
}
