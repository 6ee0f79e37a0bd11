#include "sim/trace.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace pw::sim {

void TraceRecorder::Record(std::string resource, std::int64_t client,
                           std::string label, TimePoint start, TimePoint end) {
  PW_CHECK_LE(start.nanos(), end.nanos());
  spans_.push_back(TraceSpan{std::move(resource), client, std::move(label), start, end});
}

namespace {
Duration Overlap(const TraceSpan& s, TimePoint begin, TimePoint end) {
  const auto lo = std::max(s.start.nanos(), begin.nanos());
  const auto hi = std::min(s.end.nanos(), end.nanos());
  return Duration::Nanos(std::max<std::int64_t>(0, hi - lo));
}
}  // namespace

double TraceRecorder::Utilization(const std::string& resource, TimePoint begin,
                                  TimePoint end) const {
  PW_CHECK_LT(begin.nanos(), end.nanos());
  Duration busy = Duration::Zero();
  for (const auto& s : spans_) {
    if (s.resource == resource) busy += Overlap(s, begin, end);
  }
  return busy / (end - begin);
}

double TraceRecorder::MeanUtilization(TimePoint begin, TimePoint end) const {
  const auto resources = Resources();
  if (resources.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : resources) sum += Utilization(r, begin, end);
  return sum / static_cast<double>(resources.size());
}

std::map<std::int64_t, Duration> TraceRecorder::BusyPerClient(TimePoint begin,
                                                              TimePoint end) const {
  std::map<std::int64_t, Duration> out;
  for (const auto& s : spans_) {
    out[s.client] += Overlap(s, begin, end);
  }
  return out;
}

std::vector<std::string> TraceRecorder::Resources() const {
  std::set<std::string> names;
  for (const auto& s : spans_) names.insert(s.resource);
  return {names.begin(), names.end()};
}

}  // namespace pw::sim
