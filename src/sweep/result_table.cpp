#include "sweep/result_table.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace pw::sweep {
namespace {

// Doubles print with enough digits to round-trip (JSON has no float type
// distinction; %.17g is lossless for IEEE doubles but noisy — %.12g is
// plenty for metrics and keeps files diffable).
std::string FormatDouble(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", d);
  return buf;
}

std::string JsonValue(const ParamValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) return FormatDouble(*d);
  return "\"" + JsonEscape(std::get<std::string>(v)) + "\"";
}

// Union of keys across rows, in first-seen order.
template <typename Field>
std::vector<std::string> ColumnOrder(const std::vector<ResultRow>& rows,
                                     Field field) {
  std::vector<std::string> cols;
  for (const ResultRow& row : rows) {
    for (const auto& [name, value] : row.*field) {
      bool seen = false;
      for (const std::string& c : cols) {
        if (c == name) { seen = true; break; }
      }
      if (!seen) cols.push_back(name);
    }
  }
  return cols;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double ResultRow::Metric(const std::string& name) const {
  for (const auto& [k, v] : metrics) {
    if (k == name) return v;
  }
  return 0.0;
}

void ResultTable::WriteCsv(std::ostream& os) const {
  const auto param_cols = ColumnOrder(rows_, &ResultRow::params);
  const auto metric_cols = ColumnOrder(rows_, &ResultRow::metrics);
  bool first = true;
  for (const std::string& c : param_cols) {
    if (!first) os << ",";
    os << c;
    first = false;
  }
  for (const std::string& c : metric_cols) {
    if (!first) os << ",";
    os << c;
    first = false;
  }
  os << "\n";
  for (const ResultRow& row : rows_) {
    first = true;
    for (const std::string& c : param_cols) {
      if (!first) os << ",";
      first = false;
      for (const auto& [name, value] : row.params) {
        if (name == c) { os << ToString(value); break; }
      }
    }
    for (const std::string& c : metric_cols) {
      if (!first) os << ",";
      first = false;
      for (const auto& [name, value] : row.metrics) {
        if (name == c) { os << FormatDouble(value); break; }
      }
    }
    os << "\n";
  }
}

void ResultTable::WriteJsonSeries(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2 = pad + "  ";
  os << "[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const ResultRow& row = rows_[r];
    os << (r == 0 ? "\n" : ",\n") << pad << "{ \"params\": {";
    for (std::size_t i = 0; i < row.params.size(); ++i) {
      os << (i == 0 ? " " : ", ") << "\"" << JsonEscape(row.params[i].first)
         << "\": " << JsonValue(row.params[i].second);
    }
    os << (row.params.empty() ? "}," : " },") << "\n"
       << pad2 << "\"metrics\": {";
    for (std::size_t i = 0; i < row.metrics.size(); ++i) {
      os << (i == 0 ? " " : ", ") << "\"" << JsonEscape(row.metrics[i].first)
         << "\": " << FormatDouble(row.metrics[i].second);
    }
    os << (row.metrics.empty() ? "}" : " }") << " }";
  }
  const std::size_t close_pad = indent >= 2 ? static_cast<std::size_t>(indent - 2) : 0;
  os << (rows_.empty() ? "]" : "\n" + std::string(close_pad, ' ') + "]");
}

void WriteBenchJson(std::ostream& os, const std::string& bench_name,
                    const std::map<std::string, double>& summary,
                    const ResultTable& series) {
  os << "{\n";
  os << "  \"bench\": \"" << JsonEscape(bench_name) << "\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"summary\": {";
  bool first = true;
  for (const auto& [name, value] : summary) {
    os << (first ? " " : ", ") << "\"" << JsonEscape(name)
       << "\": " << FormatDouble(value);
    first = false;
  }
  os << (summary.empty() ? "},\n" : " },\n");
  os << "  \"series\": ";
  series.WriteJsonSeries(os, 4);
  os << "\n}\n";
}

std::string WriteBenchJsonFile(const std::string& bench_name,
                               const std::map<std::string, double>& summary,
                               const ResultTable& series, std::string dir) {
  if (dir.empty()) {
    const char* env = std::getenv("PWSIM_BENCH_DIR");
    dir = (env != nullptr && env[0] != '\0') ? env : ".";
  }
  const std::string path = dir + "/BENCH_" + bench_name + ".json";
  std::ofstream out(path);
  if (!out) return "";
  WriteBenchJson(out, bench_name, summary, series);
  return out ? path : "";
}

}  // namespace pw::sweep
