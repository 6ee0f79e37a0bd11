#include "probe.h"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace pwbench {

Probe::Scope::Scope(Probe& probe, const char* name) : probe_(&probe) {
  if (!probe_->tracing_) return;
  Span s;
  s.name = name;
  s.parent = probe_->open_.empty() ? -1 : probe_->open_.back();
  index_ = static_cast<int>(probe_->spans_.size());
  probe_->spans_.push_back(std::move(s));
  probe_->open_.push_back(index_);
  // Read the clock last so span bookkeeping is not charged to the call.
  probe_->spans_.back().start_us = probe_->Us(Clock::now());
}

Probe::Scope::~Scope() {
  if (index_ < 0) return;
  const double end = probe_->Us(Clock::now());
  Span& s = probe_->spans_[static_cast<std::size_t>(index_)];
  s.end_us = end;
  const double dur = s.end_us - s.start_us;
  probe_->totals_us_[s.name] += dur;
  probe_->open_.pop_back();
  if (s.parent >= 0) {
    probe_->spans_[static_cast<std::size_t>(s.parent)].child_us += dur;
  }
}

void Probe::AddAggregate(const char* name, std::int64_t sim_s,
                         Clock::time_point t0, Clock::time_point t1) {
  const double dur = Us(t1) - Us(t0);
  totals_us_[name] += dur;
  if (!open_.empty()) {
    spans_[static_cast<std::size_t>(open_.back())].child_us += dur;
  }
  if (counters_.empty() || counters_.back().sim_s != sim_s ||
      counters_.back().name != name) {
    counters_.push_back(Counter{name, sim_s, 0, 0, 0});
  }
  Counter& c = counters_.back();
  ++c.calls;
  c.host_us += dur;
  c.last_us = Us(t1);
}

double Probe::Seconds(const std::string& name) const {
  const auto it = totals_us_.find(name);
  return it == totals_us_.end() ? 0.0 : it->second / 1e6;
}

std::map<std::string, double> Probe::SelfSeconds() const {
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    self[s.name] += (s.end_us - s.start_us - s.child_us) / 1e6;
  }
  for (const Counter& c : counters_) self[c.name] += c.host_us / 1e6;
  return self;
}

namespace {

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

}  // namespace

bool Probe::WriteChromeTrace(const std::string& path,
                             const std::string& metadata_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
      << ",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    out << (first ? "\n" : ",\n");
    first = false;
  };
  for (const Span& s : spans_) {
    sep();
    out << "{\"name\":" << Quoted(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"parent\":"
        << (s.parent < 0 ? std::string("null")
                         : Quoted(spans_[static_cast<std::size_t>(s.parent)]
                                      .name))
        << "}}";
  }
  for (const Counter& c : counters_) {
    sep();
    out << "{\"name\":" << Quoted(c.name)
        << ",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":" << c.last_us
        << ",\"args\":{\"sim_second\":" << c.sim_s << ",\"calls\":" << c.calls
        << ",\"host_us\":" << c.host_us << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace pwbench
