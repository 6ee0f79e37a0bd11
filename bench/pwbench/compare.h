// `pwbench compare <parent-dir> <change-dir>`: judges every end-to-end
// (workload, metric) pair of two result directories, with the bounds from
// BENCHMARK.json. Runs are paired in order (run i of the parent with run i
// of the change), so alternate which side runs first.
//
// Each directory holds <workload>.jsonl files, one result record per line
// (what `pwbench run --out DIR` appends). Per pair the verdict is
//   worse       the change's median is worse than the parent's by more than
//               the bound, and the runs are steady enough to tell (each
//               side's quartile spread within the bound), or every change
//               run is worse than every parent run;
//   better      the change wins >= 90% of the run pairs (ties count for
//               neither) and the medians differ by more than the parent's
//               quartile spread;
//   unresolved  a side's spread exceeds the bound and the runs overlap;
//   same        otherwise.
#pragma once

#include <string>

namespace pwbench {

// Prints one line per (workload, metric); returns 1 if any is "worse", 2
// on unreadable input, else 0.
int Compare(const std::string& parent_dir, const std::string& change_dir);

}  // namespace pwbench
