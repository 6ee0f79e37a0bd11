// Hierarchical, path-addressed view over BENCH_*.json result files
// (sweep::WriteBenchJsonFile output). Every value gets a slash-separated
// address:
//
//   <bench>/summary/<metric>                      one per summary entry
//   <bench>/<axis>=<value>/.../<metric>           one per series row metric,
//                                                 axes in declaration order
//
// e.g. "serving/rate_per_s=1500/policy_continuous=1/kv_scale=0.5/ttft_p99_us".
// `pwsim query --select 'serving/**/p99_*'` resolves glob patterns over
// these paths: `*` and `?` match within one segment, `**` spans segments.
// A select may also be an aggregation: "<agg> over <glob>" reduces every
// matching value to one number, where <agg> is min, max, mean, sum, count,
// or pNN (a percentile, e.g. p50/p99).
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace pw::scenario {

struct ResultEntry {
  std::string path;
  double value = 0;
};

// Parsed "<agg> over <glob>" selector.
struct Aggregation {
  enum class Kind { kMin, kMax, kMean, kSum, kCount, kPercentile };
  Kind kind = Kind::kMean;
  double percentile = 0;  // in [0, 100], kPercentile only
  std::string glob;
};

class ResultStore {
 public:
  // Loads one BENCH_<name>.json file, appending its entries. On schema or
  // parse errors returns false and describes the problem in *error.
  bool LoadBenchFile(const std::string& path, std::string* error);
  // The same for a document already in memory; `path` names it in errors.
  bool LoadBenchText(const std::string& text, const std::string& path,
                     std::string* error);

  // Loads every BENCH_*.json directly inside `dir` (sorted by filename so
  // entry order is stable). Returns the number of files loaded, or -1 on
  // the first error.
  int LoadDir(const std::string& dir, std::string* error);

  const std::vector<ResultEntry>& entries() const { return entries_; }

  // Entries whose path matches the glob, in load order.
  std::vector<ResultEntry> Select(const std::string& pattern) const;

  // Parses "<agg> over <glob>" (e.g. "p99 over serving/**/ttft_*").
  // Returns nullopt when `select` is not an aggregation form — callers fall
  // back to a plain glob Select. A malformed aggregation (unknown <agg>)
  // also returns nullopt; `pNN over x` with NN out of [0,100] is malformed.
  static std::optional<Aggregation> ParseAggregation(const std::string& select);

  // Reduces the values matching agg.glob. Count of an empty match is 0;
  // every other aggregation over an empty match returns nullopt.
  std::optional<double> Aggregate(const Aggregation& agg) const;

  // Slash-aware glob match: `*` / `?` never cross a '/', `**` matches any
  // number of whole segments (including zero).
  static bool GlobMatch(const std::string& pattern, const std::string& path);
  // Whether `pattern` has a wildcard (`*` or `?`), i.e. is not a literal path.
  static bool IsGlob(const std::string& pattern);

 private:
  std::vector<ResultEntry> entries_;
};

}  // namespace pw::scenario
