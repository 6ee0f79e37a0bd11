#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>

#include "measure.h"
#include "scenario/json.h"

namespace pwbench {
namespace {

using pw::scenario::Json;

// workload -> metric -> one value per run.
using Runs = std::map<std::string, std::map<std::string, std::vector<double>>>;

bool LoadDir(const std::string& dir, Runs* runs) {
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".jsonl") files.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "pwbench compare: cannot read %s\n", dir.c_str());
    return false;
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    std::ifstream in(file);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty()) continue;
      pw::scenario::DiagnosticEngine diags(file.string(), line);
      Json record;
      const Json* meta = nullptr;
      const Json* workload = nullptr;
      const Json* metrics = nullptr;
      if (pw::scenario::ParseJson(line, &record, &diags)) {
        meta = record.Find("meta");
        workload = meta != nullptr ? meta->Find("workload") : nullptr;
        metrics = record.Find("metrics");
      }
      if (workload == nullptr || !workload->is_string() ||
          metrics == nullptr || !metrics->is_object()) {
        std::fprintf(stderr, "pwbench compare: %s:%d: not a result record\n",
                     file.string().c_str(), lineno);
        return false;
      }
      for (const Json::Member& m : metrics->members()) {
        const Json* value = m.value.Find("value");
        if (value != nullptr && value->is_number()) {
          (*runs)[workload->string_value()][m.key].push_back(
              value->number_value());
        }
      }
    }
  }
  return true;
}

// Relative worsening of `to` against `from` (positive = worse).
double WorseBy(double from, double to, bool higher_better) {
  const double delta = higher_better ? from - to : to - from;
  if (from == 0) {
    return delta == 0 ? 0 : std::copysign(std::numeric_limits<double>::infinity(),
                                          delta);
  }
  return delta / std::abs(from);
}

// True if every value of `a` reads better than every value of `b`.
bool Separated(const std::vector<double>& a, const std::vector<double>& b,
               bool higher_better) {
  const auto [a_lo, a_hi] = std::minmax_element(a.begin(), a.end());
  const auto [b_lo, b_hi] = std::minmax_element(b.begin(), b.end());
  return higher_better ? *a_lo > *b_hi : *a_hi < *b_lo;
}

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

double Spread(const Quartiles& q) {
  return q.median == 0 ? 0 : (q.q3 - q.q1) / std::abs(q.median);
}

// Python's statistics.quantiles(values, n=4) ("exclusive" method); one
// value gives three equal quartiles.
Quartiles QuartilesOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::ptrdiff_t>(v.size());
  if (n == 0) return {};
  if (n == 1) return {v[0], v[0], v[0]};
  double q[3];
  for (int i = 1; i <= 3; ++i) {
    const std::ptrdiff_t m = n + 1;
    const std::ptrdiff_t j =
        std::clamp<std::ptrdiff_t>(i * m / 4, 1, n - 1);
    const std::ptrdiff_t delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4;
  }
  return {q[0], q[1], q[2]};
}

// The verdict of compare.h for one (workload, metric).
std::string Verdict(const std::vector<double>& parent,
                    const std::vector<double>& change, bool higher_better,
                    double bound) {
  const Quartiles p = QuartilesOf(parent);
  const Quartiles c = QuartilesOf(change);
  const bool noisy = Spread(p) > bound || Spread(c) > bound;
  const double worse_by = WorseBy(p.median, c.median, higher_better);
  if (worse_by > bound && (!noisy || Separated(parent, change, higher_better))) {
    return "worse";
  }
  std::size_t wins = 0;
  const std::size_t pairs = std::min(parent.size(), change.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    if (WorseBy(parent[i], change[i], higher_better) < 0) ++wins;
  }
  if (pairs > 0 && wins * 10 >= pairs * 9 && worse_by < 0 &&
      std::abs(c.median - p.median) > p.q3 - p.q1) {
    return "better";
  }
  if (noisy && !Separated(change, parent, higher_better)) return "unresolved";
  return "same";
}

}  // namespace

int Compare(const std::string& parent_dir, const std::string& change_dir) {
  BenchmarkSpec spec;
  std::string error;
  if (!LoadBenchmarkSpec(&spec, &error)) {
    std::fprintf(stderr, "pwbench compare: %s\n", error.c_str());
    return 2;
  }
  Runs parent, change;
  if (!LoadDir(parent_dir, &parent) || !LoadDir(change_dir, &change)) {
    return 2;
  }
  std::printf("%-18s %-22s %-10s %9s %s  %9s %s  %8s %6s\n", "workload",
              "metric", "verdict", "parent", "[q1, q3]", "change",
              "[q1, q3]", "drift", "bound");
  int compared = 0, worse = 0;
  for (const auto& [workload, parent_metrics] : parent) {
    const auto change_it = change.find(workload);
    if (change_it == change.end()) continue;
    for (const MetricSpec& m : spec.end_to_end) {
      const auto p = parent_metrics.find(m.name);
      const auto c = change_it->second.find(m.name);
      if (p == parent_metrics.end() || c == change_it->second.end()) continue;
      const bool higher_better = m.better == "higher";
      const std::string verdict =
          Verdict(p->second, c->second, higher_better, m.bound);
      const Quartiles pq = QuartilesOf(p->second);
      const Quartiles cq = QuartilesOf(c->second);
      const double drift =
          pq.median == 0 ? 0 : (cq.median / pq.median - 1) * 100;
      std::printf("%-18s %-22s %-10s %9.4g [%.4g, %.4g]  %9.4g [%.4g, %.4g]"
                  "  %+7.2f%% %5.1f%%\n",
                  workload.c_str(), m.name.c_str(), verdict.c_str(),
                  pq.median, pq.q1, pq.q3, cq.median, cq.q1, cq.q3, drift,
                  m.bound * 100);
      ++compared;
      if (verdict == "worse") ++worse;
    }
  }
  if (compared == 0) {
    std::fprintf(stderr,
                 "pwbench compare: no (workload, metric) in both %s and %s\n",
                 parent_dir.c_str(), change_dir.c_str());
    return 2;
  }
  std::printf("%d compared, %d worse\n", compared, worse);
  return worse > 0 ? 1 : 0;
}

}  // namespace pwbench
