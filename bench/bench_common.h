// Command line, stdout header and BENCH_<name>.json writer for
// bench_simcore (docs/BENCHMARKS.md has the schema). The paper's figures
// and tables run as scenarios through `pwsim run` instead.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sweep/param_grid.h"
#include "sweep/result_table.h"
#include "sweep/sweep_runner.h"

namespace pw::bench {

//   --quick            reduced-size run (same code path, fewer events)
//   --out <dir>        directory for BENCH_*.json (default $PWSIM_BENCH_DIR
//                      or .)
//   --min-speedup <x>  enforced acceptance bar
// Unrecognized flags are hard errors: usage goes to stderr and the process
// exits 2.
struct Args {
  bool quick = false;
  std::string out_dir;
  double min_speedup = 2.0;

  static void Usage(FILE* out, const char* prog) {
    std::fprintf(out,
                 "usage: %s [--quick] [--out <dir>] [--min-speedup <x>]\n"
                 "  --quick            reduced size for CI smoke runs\n"
                 "  --out <dir>        directory for BENCH_*.json (default "
                 "$PWSIM_BENCH_DIR or .)\n"
                 "  --min-speedup <x>  enforced acceptance bar (default 2.0)\n"
                 "  --help             this text\n",
                 prog);
  }

  static Args Parse(int argc, char** argv) {
    Args args;
    auto value = [&](int* i, const char* flag) -> const char* {
      if (*i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag '%s' expects a value\n", argv[0],
                     flag);
        Usage(stderr, argv[0]);
        std::exit(2);
      }
      return argv[++*i];
    };
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--quick") == 0) {
        args.quick = true;
      } else if (std::strcmp(a, "--out") == 0) {
        args.out_dir = value(&i, a);
      } else if (std::strcmp(a, "--min-speedup") == 0) {
        args.min_speedup = std::atof(value(&i, a));
      } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
        Usage(stdout, argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unrecognized flag '%s'\n", argv[0], a);
        Usage(stderr, argv[0]);
        std::exit(2);
      }
    }
    return args;
  }
};

// Accumulates the measured series and writes BENCH_<name>.json. Rows are
// (params, metrics) pairs exactly as printed; summary metrics are the
// headline numbers CI trend lines track.
class Reporter {
 public:
  explicit Reporter(std::string name, const Args& args = {})
      : name_(std::move(name)), dir_(args.out_dir) {}

  void AddRow(std::vector<std::pair<std::string, sweep::ParamValue>> params,
              std::vector<std::pair<std::string, double>> metrics) {
    table_.Add(std::move(params), std::move(metrics));
  }

  void Summary(const std::string& metric, double value) {
    summary_[metric] = value;
  }

  // Writes the JSON file and prints where it landed; best-effort.
  std::string Write() {
    const std::string path =
        sweep::WriteBenchJsonFile(name_, summary_, table_, dir_);
    if (path.empty()) {
      std::fprintf(stderr, "warning: could not write BENCH_%s.json\n",
                   name_.c_str());
    } else {
      std::printf("\n[bench] wrote %s\n", path.c_str());
    }
    return path;
  }

 private:
  std::string name_;
  std::string dir_;
  sweep::ResultTable table_;
  std::map<std::string, double> summary_;
};

inline void Header(const std::string& title, const std::string& paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================\n");
}

}  // namespace pw::bench
