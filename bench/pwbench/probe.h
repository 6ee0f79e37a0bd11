// Host-time probe for pwbench: times the harness's calls into each layer
// from outside, and (when tracing) records one span per call.
//
// Untraced runs only read the clock at the set-up / run boundaries, so the
// end-to-end numbers carry no per-call instrumentation. Traced runs wrap
// every harness call in a Scope: the call's host time is added to its
// layer's accumulator (e.g. "pathways.submit") and a span {name, start,
// end, parent} is kept in memory until WriteChromeTrace() at exit. Calls
// too frequent for one span each (serving offers) are Aggregate()d into
// per-simulated-second counters instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pwbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Probe {
 public:
  explicit Probe(bool tracing) : tracing_(tracing), origin_(Clock::now()) {}

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  bool tracing() const { return tracing_; }

  // RAII span around one harness call; a no-op when not tracing.
  class Scope {
   public:
    Scope(Probe& probe, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe* probe_;
    int index_ = -1;
  };

  // Times one high-frequency call (serving offers): adds its host time to
  // `name`'s accumulator and to the counter of simulated second `sim_s`.
  template <typename Fn>
  auto Aggregate(const char* name, std::int64_t sim_s, Fn&& fn) {
    if (!tracing_) return fn();
    const auto t0 = Clock::now();
    auto result = fn();
    AddAggregate(name, sim_s, t0, Clock::now());
    return result;
  }

  // Host seconds spent in calls named `name` (spans and aggregates).
  double Seconds(const std::string& name) const;

  // Self time per span name: duration minus the time covered by child
  // spans and aggregated calls made inside it.
  std::map<std::string, double> SelfSeconds() const;

  // Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata_json) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    double child_us = 0;
  };
  struct Counter {
    std::string name;
    std::int64_t sim_s = 0;
    std::int64_t calls = 0;
    double host_us = 0;
    double last_us = 0;  // host time of the latest call, the event's ts
  };

  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  void AddAggregate(const char* name, std::int64_t sim_s,
                    Clock::time_point t0, Clock::time_point t1);

  bool tracing_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
  std::vector<Counter> counters_;
  std::map<std::string, double> totals_us_;
};

}  // namespace pwbench
