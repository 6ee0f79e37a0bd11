// Structured sweep results and their JSON/CSV serialization.
//
// A ResultTable is a list of rows, each pairing a ParamPoint's parameters
// with named double-valued metrics. Serialization needs no third-party
// library; the JSON layout is the BENCH_*.json schema that `pwsim run`
// emits (see docs/BENCHMARKS.md):
//
//   {
//     "bench": "<name>",
//     "schema_version": 1,
//     "summary": { "<metric>": <double>, ... },
//     "series": [
//       { "params": { "<axis>": <value>, ... },
//         "metrics": { "<metric>": <double>, ... } },
//       ...
//     ]
//   }
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sweep/param_grid.h"

namespace pw::sweep {

struct ResultRow {
  std::vector<std::pair<std::string, ParamValue>> params;
  std::vector<std::pair<std::string, double>> metrics;

  // Value of metric `name`; 0.0 when absent.
  double Metric(const std::string& name) const;
};

class ResultTable {
 public:
  void Add(ResultRow row) { rows_.push_back(std::move(row)); }
  // Convenience for hand-built rows (no grid).
  void Add(std::vector<std::pair<std::string, ParamValue>> params,
           std::vector<std::pair<std::string, double>> metrics) {
    rows_.push_back(ResultRow{std::move(params), std::move(metrics)});
  }

  const std::vector<ResultRow>& rows() const { return rows_; }
  bool empty() const { return rows_.empty(); }
  std::size_t size() const { return rows_.size(); }

  // CSV with a header row: the union of parameter columns then the union of
  // metric columns, in first-seen order. Missing cells are empty.
  void WriteCsv(std::ostream& os) const;

  // The "series" array of the BENCH_*.json schema.
  void WriteJsonSeries(std::ostream& os, int indent = 2) const;

 private:
  std::vector<ResultRow> rows_;
};

// Writes a complete BENCH_*.json document (schema above).
void WriteBenchJson(std::ostream& os, const std::string& bench_name,
                    const std::map<std::string, double>& summary,
                    const ResultTable& series);

// Opens `dir`/BENCH_<bench_name>.json (dir defaults to $PWSIM_BENCH_DIR or
// ".") and writes the document; returns the path written, or "" on I/O
// failure (benches treat emission as best-effort).
std::string WriteBenchJsonFile(const std::string& bench_name,
                               const std::map<std::string, double>& summary,
                               const ResultTable& series,
                               std::string dir = "");

std::string JsonEscape(const std::string& s);

}  // namespace pw::sweep
