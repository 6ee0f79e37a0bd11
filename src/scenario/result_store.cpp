#include "scenario/result_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "scenario/diagnostics.h"
#include "scenario/json.h"

namespace pw::scenario {
namespace {

// Shortest printf form that strtod-round-trips (the BENCH writer emits the
// same form, so addresses match the file text: 1500, 0.5, 750.91745217).
std::string FormatNumber(const Json& v) {
  if (v.is_int()) return std::to_string(v.int_value());
  const double d = v.number_value();
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

std::string ValueToken(const Json& v) {
  if (v.is_string()) return v.string_value();
  if (v.is_bool()) return v.bool_value() ? "true" : "false";
  return FormatNumber(v);
}

std::vector<std::string> SplitPath(const std::string& s) {
  std::vector<std::string> out;
  std::string seg;
  for (char c : s) {
    if (c == '/') {
      out.push_back(seg);
      seg.clear();
    } else {
      seg.push_back(c);
    }
  }
  out.push_back(seg);
  return out;
}

// `*` / `?` within one segment.
bool SegmentMatch(const std::string& pat, const std::string& seg) {
  std::size_t p = 0, s = 0, star = std::string::npos, mark = 0;
  while (s < seg.size()) {
    if (p < pat.size() && (pat[p] == '?' || pat[p] == seg[s])) {
      ++p;
      ++s;
    } else if (p < pat.size() && pat[p] == '*') {
      star = p++;
      mark = s;
    } else if (star != std::string::npos) {
      p = star + 1;
      s = ++mark;
    } else {
      return false;
    }
  }
  while (p < pat.size() && pat[p] == '*') ++p;
  return p == pat.size();
}

// Dynamic program over suffixes, one pattern segment at a time from the
// back: next[j] says whether the segments after pattern segment i match
// path[j..]. O(pattern x path) segment matches however many `**` there are.
bool MatchSegments(const std::vector<std::string>& pat,
                   const std::vector<std::string>& path) {
  const std::size_t n = path.size();
  std::vector<char> next(n + 1, 0), cur(n + 1, 0);
  next[n] = 1;
  for (std::size_t i = pat.size(); i-- > 0;) {
    const bool stars = pat[i] == "**";
    // A run of `**` matches what one does.
    if (stars && i + 1 < pat.size() && pat[i + 1] == "**") continue;
    // `**` matches zero segments, or consumes one and stays on the `**`.
    cur[n] = stars && next[n];
    for (std::size_t j = n; j-- > 0;) {
      cur[j] = stars ? next[j] || cur[j + 1]
                     : next[j + 1] && SegmentMatch(pat[i], path[j]);
    }
    next.swap(cur);
  }
  return next[0] != 0;
}

}  // namespace

bool ResultStore::GlobMatch(const std::string& pattern,
                            const std::string& path) {
  return MatchSegments(SplitPath(pattern), SplitPath(path));
}

bool ResultStore::IsGlob(const std::string& pattern) {
  return pattern.find_first_of("*?") != std::string::npos;
}

bool ResultStore::LoadBenchFile(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot open file";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadBenchText(buf.str(), path, error);
}

bool ResultStore::LoadBenchText(const std::string& text,
                                const std::string& path, std::string* error) {
  DiagnosticEngine diags(path, text);
  Json root;
  if (!ParseJson(text, &root, &diags)) {
    if (error != nullptr && !diags.diagnostics().empty()) {
      *error = diags.diagnostics().front().Header();
    }
    return false;
  }
  if (!root.is_object()) {
    if (error != nullptr) *error = path + ": top-level value is not an object";
    return false;
  }
  const Json* bench = root.Find("bench");
  if (bench == nullptr || !bench->is_string()) {
    if (error != nullptr) *error = path + ": missing string field 'bench'";
    return false;
  }
  const std::string& prefix = bench->string_value();

  if (const Json* summary = root.Find("summary");
      summary != nullptr && summary->is_object()) {
    for (const auto& m : summary->members()) {
      if (!m.value.is_number()) continue;
      entries_.push_back(
          {prefix + "/summary/" + m.key, m.value.number_value()});
    }
  }
  if (const Json* series = root.Find("series");
      series != nullptr && series->is_array()) {
    for (const Json& row : series->array()) {
      if (!row.is_object()) continue;
      std::string point = prefix;
      if (const Json* params = row.Find("params");
          params != nullptr && params->is_object()) {
        for (const auto& m : params->members()) {
          point += "/" + m.key + "=" + ValueToken(m.value);
        }
      }
      if (const Json* metrics = row.Find("metrics");
          metrics != nullptr && metrics->is_object()) {
        for (const auto& m : metrics->members()) {
          if (!m.value.is_number()) continue;
          entries_.push_back({point + "/" + m.key, m.value.number_value()});
        }
      }
    }
  }
  return true;
}

int ResultStore::LoadDir(const std::string& dir, std::string* error) {
  std::error_code ec;
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    if (error != nullptr) *error = dir + ": " + ec.message();
    return -1;
  }
  std::sort(files.begin(), files.end());
  for (const std::string& f : files) {
    if (!LoadBenchFile(f, error)) return -1;
  }
  return static_cast<int>(files.size());
}

std::vector<ResultEntry> ResultStore::Select(const std::string& pattern) const {
  std::vector<ResultEntry> out;
  for (const ResultEntry& e : entries_) {
    if (GlobMatch(pattern, e.path)) out.push_back(e);
  }
  return out;
}

std::optional<Aggregation> ResultStore::ParseAggregation(
    const std::string& select) {
  // Form: "<agg> over <glob>". A glob can't contain spaces, so a plain
  // glob select never parses as an aggregation.
  const std::size_t sp = select.find(' ');
  if (sp == std::string::npos) return std::nullopt;
  const std::string agg_word = select.substr(0, sp);
  std::size_t rest = select.find_first_not_of(' ', sp);
  if (rest == std::string::npos || select.compare(rest, 5, "over ") != 0) {
    return std::nullopt;
  }
  rest = select.find_first_not_of(' ', rest + 5);
  if (rest == std::string::npos) return std::nullopt;

  Aggregation agg;
  agg.glob = select.substr(rest);
  if (agg_word == "min") {
    agg.kind = Aggregation::Kind::kMin;
  } else if (agg_word == "max") {
    agg.kind = Aggregation::Kind::kMax;
  } else if (agg_word == "mean") {
    agg.kind = Aggregation::Kind::kMean;
  } else if (agg_word == "sum") {
    agg.kind = Aggregation::Kind::kSum;
  } else if (agg_word == "count") {
    agg.kind = Aggregation::Kind::kCount;
  } else if (agg_word.size() > 1 && agg_word[0] == 'p') {
    char* end = nullptr;
    const double p = std::strtod(agg_word.c_str() + 1, &end);
    if (end == nullptr || *end != '\0' || p < 0 || p > 100) {
      return std::nullopt;
    }
    agg.kind = Aggregation::Kind::kPercentile;
    agg.percentile = p;
  } else {
    return std::nullopt;
  }
  return agg;
}

std::optional<double> ResultStore::Aggregate(const Aggregation& agg) const {
  std::vector<double> values;
  for (const ResultEntry& e : entries_) {
    if (GlobMatch(agg.glob, e.path)) values.push_back(e.value);
  }
  if (agg.kind == Aggregation::Kind::kCount) {
    return static_cast<double>(values.size());
  }
  if (values.empty()) return std::nullopt;
  switch (agg.kind) {
    case Aggregation::Kind::kMin:
      return *std::min_element(values.begin(), values.end());
    case Aggregation::Kind::kMax:
      return *std::max_element(values.begin(), values.end());
    case Aggregation::Kind::kSum:
    case Aggregation::Kind::kMean: {
      double sum = 0;
      for (double v : values) sum += v;
      return agg.kind == Aggregation::Kind::kSum
                 ? sum
                 : sum / static_cast<double>(values.size());
    }
    case Aggregation::Kind::kPercentile: {
      // Linear interpolation between ranks, matching
      // common::PercentileSampler::Percentile.
      std::sort(values.begin(), values.end());
      const double rank =
          agg.percentile / 100.0 * static_cast<double>(values.size() - 1);
      const std::size_t lo = static_cast<std::size_t>(rank);
      const std::size_t hi = std::min(lo + 1, values.size() - 1);
      const double frac = rank - static_cast<double>(lo);
      return values[lo] + (values[hi] - values[lo]) * frac;
    }
    case Aggregation::Kind::kCount:
      break;  // handled above
  }
  return std::nullopt;
}

}  // namespace pw::scenario
