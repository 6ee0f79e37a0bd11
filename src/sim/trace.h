// Execution trace recording, for the paper's Figure 9/11/12-style traces.
//
// Spans record which resource (device/core) ran which client's computation
// over which simulated interval. The recorder computes utilization and
// per-client busy shares (for proportional-share validation).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"

namespace pw::sim {

struct TraceSpan {
  std::string resource;   // e.g. "island0/dev3"
  std::int64_t client;    // client id, or -1 for system work
  std::string label;      // e.g. "fwd", "allreduce", "xfer"
  TimePoint start;
  TimePoint end;
};

class TraceRecorder {
 public:
  void Record(std::string resource, std::int64_t client, std::string label,
              TimePoint start, TimePoint end);

  const std::vector<TraceSpan>& spans() const { return spans_; }

  // Fraction of [begin, end) during which `resource` was busy.
  double Utilization(const std::string& resource, TimePoint begin, TimePoint end) const;

  // Mean utilization over all resources seen in the trace.
  double MeanUtilization(TimePoint begin, TimePoint end) const;

  // Busy time per client over [begin, end), summed across resources.
  std::map<std::int64_t, Duration> BusyPerClient(TimePoint begin, TimePoint end) const;

  std::vector<std::string> Resources() const;

 private:
  std::vector<TraceSpan> spans_;
};

}  // namespace pw::sim
