#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "meta.h"
#include "scenario/json.h"

namespace pwbench {
namespace {

using pw::scenario::Json;

// Units of every metric the harness can emit; BENCHMARK.json must agree.
// "s" is host time for *_s timings of harness calls and simulated time for
// sim.simulated_s and hw.busy_s.
const std::map<std::string, std::string>& Units() {
  static const std::map<std::string, std::string> units = {
      {"setup_s", "s"},
      {"run_s", "s"},
      {"peak_rss_mb", "MB"},
      {"sim_util_pct", "%"},
      {"sim_tokens_per_s", "tokens/s"},
      {"sim_goodput_ops_per_s", "ops/s"},
      {"sim_op_p50_ms", "ms"},
      {"sim_op_p99_ms", "ms"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.simulated_s", "s"},
      {"hw.build_s", "s"},
      {"hw.kernels", "count"},
      {"hw.busy_s", "s"},
      {"hw.ici_gib", "GiB"},
      {"hw.trace_spans", "count"},
      {"pathways.build_s", "s"},
      {"pathways.submit_s", "s"},
      {"pathways.gangs", "count"},
      {"pathways.dispatch_msgs", "count"},
      {"pathways.sched_wait_us_per_gang", "us"},
      {"pathways.sched_busy_pct", "%"},
      {"pathways.release_s", "s"},
      {"pathways.live_buffers", "count"},
      {"models.build_s", "s"},
      {"models.program_nodes", "count"},
      {"net.dcn_msgs", "count"},
      {"net.dcn_gib", "GiB"},
      {"net.flows", "count"},
      {"net.flow_host_share", "fraction"},
      {"memory.spills", "count"},
      {"memory.spilled_gib", "GiB"},
      {"memory.dram_reads", "count"},
      {"memory.fills", "count"},
      {"memory.peak_hbm_pct", "%"},
      {"serving.offer_s", "s"},
      {"serving.iterations", "count"},
      {"serving.kv_appends", "count"},
      {"serving.trace_events", "count"},
      {"serving.requests", "count"},
      {"serving.shed_pct", "%"},
      {"serving.kv_transfers", "count"},
      {"serving.kv_transfer_gib", "GiB"},
      {"serving.reprefills", "count"},
      {"serving.token_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return units;
}

void Emit(PhaseResult* r, const std::string& name, double value) {
  const auto it = Units().find(name);
  r->metrics.push_back(
      Metric{name, value, it == Units().end() ? "?" : it->second});
}

void AddError(PhaseResult* r, const std::string& error) {
  if (std::find(r->errors.begin(), r->errors.end(), error) ==
      r->errors.end()) {
    r->errors.push_back(error);
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

// --- fingerprints ------------------------------------------------------------

// The simulated identity of a run: event count, serving trace checksum and
// every sim_* result, as exact decimal strings.
using Fingerprint = std::vector<std::pair<std::string, std::string>>;

Fingerprint FingerprintOf(const RunOutcome& o) {
  char buf[64];
  Fingerprint fp;
  std::snprintf(buf, sizeof(buf), "%.0f", o.values.at("sim.events"));
  fp.emplace_back("sim.events", buf);
  if (o.serving_checksum != 0) {
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, o.serving_checksum);
    fp.emplace_back("serving.trace_checksum", buf);
  }
  for (const auto& [name, value] : o.values) {
    if (name.rfind("sim_", 0) != 0) continue;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fp.emplace_back(name, buf);
  }
  return fp;
}

std::string ToJson(const Fingerprint& fp) {
  std::string out = "{";
  for (const auto& [k, v] : fp) {
    out += (out.size() > 1 ? ", \"" : "\"") + k + "\": \"" + v + "\"";
  }
  return out + "}";
}

std::string FingerprintKey(const std::string& workload,
                           const WorkloadConfig& config) {
  return workload + (config.smoke ? "/smoke" : "");
}

// Reads one workload's recorded fingerprint; false if absent or unreadable.
bool RecordedFingerprint(const std::string& key, Fingerprint* out) {
  std::ifstream in(std::string(PWBENCH_SOURCE_DIR) + "/fingerprints.json");
  if (!in) return false;
  std::stringstream text;
  text << in.rdbuf();
  pw::scenario::DiagnosticEngine diags("fingerprints.json", text.str());
  Json root;
  if (!pw::scenario::ParseJson(text.str(), &root, &diags)) return false;
  const Json* entry = root.Find(key);
  if (entry == nullptr || !entry->is_object()) return false;
  for (const Json::Member& m : entry->members()) {
    if (!m.value.is_string()) return false;
    out->emplace_back(m.key, m.value.string_value());
  }
  return true;
}

// Folds each run's outcome into the phase result: op counts, invariant
// errors, and agreement of every run's fingerprint with the first.
class RunChecker {
 public:
  RunChecker(std::string workload, WorkloadConfig config)
      : workload_(std::move(workload)), config_(config) {}

  void Add(const RunOutcome& o, PhaseResult* r) {
    r->attempted += o.attempted;
    r->failed += o.failed;
    for (const std::string& e : o.errors) AddError(r, e);
    const Fingerprint fp = FingerprintOf(o);
    if (runs_++ == 0) {
      first_ = fp;
    } else if (fp != first_) {
      AddError(r, "runs with one seed disagree: " + ToJson(first_) +
                      " vs " + ToJson(fp));
    }
  }

  // At the default seed the fingerprint must match the recorded one.
  void CheckRecorded(PhaseResult* r) const {
    if (config_.seed != kDefaultSeed || runs_ == 0) return;
    const std::string key = FingerprintKey(workload_, config_);
    Fingerprint recorded;
    if (!RecordedFingerprint(key, &recorded)) {
      AddError(r, "no fingerprint recorded for \"" + key +
                      "\" in fingerprints.json; this build gives " +
                      ToJson(first_));
    } else if (recorded != first_) {
      AddError(r, "fingerprint of \"" + key +
                      "\" differs from fingerprints.json: recorded " +
                      ToJson(recorded) + ", this build gives " +
                      ToJson(first_));
    }
  }

 private:
  std::string workload_;
  WorkloadConfig config_;
  int runs_ = 0;
  Fingerprint first_;
};

struct TimedRun {
  double run_s = 0;
  RunOutcome outcome;
};

TimedRun RunOnce(const std::string& workload, const WorkloadConfig& config,
                 Probe& probe) {
  std::unique_ptr<Workload> w = MakeWorkload(workload, config);
  TimedRun t;
  {
    Probe::Scope s(probe, "setup");
    w->Setup(probe);
  }
  const auto t0 = Clock::now();
  {
    Probe::Scope s(probe, "run");
    w->Run(probe);
  }
  t.run_s = SecondsSince(t0);
  Probe::Scope s(probe, "finish");
  t.outcome = w->Finish();
  return t;
}

int MinRuns(const WorkloadConfig& config, int full) {
  return config.smoke ? 1 : full;
}

// Smoke runs are checks, not measurements: one run per phase.
bool KeepMeasuring(const MeasureOptions& options, Clock::time_point start) {
  return !options.config.smoke && SecondsSince(start) < options.seconds;
}

// One set-up sample. A set-up takes micro- to milliseconds, too short to
// time alone on a shared host, so the sample is the mean over set-ups
// totalling >= 4 ms (teardown untimed). The caller spreads samples across
// the phase so a burst of host load cannot move all of them.
double SetupSample(const std::string& workload, const WorkloadConfig& config) {
  double total_s = 0;
  int n = 0;
  do {
    Probe probe(/*tracing=*/false);
    std::unique_ptr<Workload> w = MakeWorkload(workload, config);
    const auto t0 = Clock::now();
    w->Setup(probe);
    total_s += SecondsSince(t0);
    ++n;
  } while (!config.smoke && total_s < 0.004);
  return total_s / n;
}

void NoteRuns(const std::string& workload, std::vector<double> run_s,
              PhaseResult* r) {
  std::sort(run_s.begin(), run_s.end());
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "# %s: %zu runs, run_s min %.4g median %.4g max %.4g",
                workload.c_str(), run_s.size(), run_s.front(), Median(run_s),
                run_s.back());
  r->notes.push_back(buf);
}

void NoteOps(const std::string& workload, const RunOutcome& o,
             PhaseResult* r) {
  char buf[256];
  if (o.op_p99_limit_ms > 0) {
    std::snprintf(buf, sizeof(buf),
                  "# %s: %" PRId64 " of %" PRId64
                  " requests sampled for TTFT; p99 limit %.0f ms; "
                  "p99.9 %.6g ms",
                  workload.c_str(), o.op_samples, o.attempted,
                  o.op_p99_limit_ms, o.op_p999_ms);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "# %s: %" PRId64
                  " step latency samples (step 0 excluded); p99.9 %.6g ms",
                  workload.c_str(), o.op_samples, o.op_p999_ms);
  }
  r->notes.push_back(buf);
}

}  // namespace

bool LoadBenchmarkSpec(BenchmarkSpec* spec, std::string* error) {
  const std::string path = std::string(PWBENCH_REPO_ROOT) + "/BENCHMARK.json";
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  pw::scenario::DiagnosticEngine diags(path, text.str());
  Json root;
  if (!pw::scenario::ParseJson(text.str(), &root, &diags)) {
    *error = diags.Render();
    return false;
  }
  auto read = [&](const char* key, std::vector<MetricSpec>* out) {
    const Json* list = root.Find(key);
    if (list == nullptr || !list->is_array()) return false;
    for (const Json& m : list->array()) {
      const Json* name = m.Find("name");
      const Json* unit = m.Find("unit");
      const Json* better = m.Find("better");
      const Json* bound = m.Find("bound");
      if (name == nullptr || !name->is_string() || unit == nullptr ||
          !unit->is_string() || better == nullptr || !better->is_string()) {
        return false;
      }
      out->push_back(MetricSpec{
          name->string_value(), unit->string_value(), better->string_value(),
          bound != nullptr && bound->is_number() ? bound->number_value() : 0});
    }
    return true;
  };
  if (!read("end_to_end", &spec->end_to_end) ||
      !read("per_layer", &spec->per_layer)) {
    *error = path + ": malformed end_to_end / per_layer lists";
    return false;
  }
  return true;
}

void CheckAgainstSpec(const std::vector<MetricSpec>& expected,
                      PhaseResult* result) {
  std::map<std::string, std::string> emitted;
  for (const Metric& m : result->metrics) emitted[m.name] = m.unit;
  for (const MetricSpec& spec : expected) {
    const auto it = emitted.find(spec.name);
    if (it == emitted.end()) {
      AddError(result, "BENCHMARK.json metric " + spec.name + " not emitted");
    } else if (it->second != spec.unit) {
      AddError(result, "metric " + spec.name + " emitted in " + it->second +
                           ", BENCHMARK.json says " + spec.unit);
    }
    emitted.erase(spec.name);
  }
  for (const auto& [name, unit] : emitted) {
    AddError(result, "metric " + name + " is not in BENCHMARK.json");
  }
}

PhaseResult MeasureEndToEnd(const std::string& workload,
                            const MeasureOptions& options) {
  PhaseResult r;
  RunChecker checker(workload, options.config);
  const auto start = Clock::now();
  std::vector<double> setup_s, run_s;
  double peak_rss_mb = 0;
  RunOutcome last;
  while (run_s.size() < static_cast<std::size_t>(MinRuns(options.config, 3)) ||
         KeepMeasuring(options, start)) {
    Probe probe(/*tracing=*/false);
    TimedRun t = RunOnce(workload, options.config, probe);
    run_s.push_back(t.run_s);
    checker.Add(t.outcome, &r);
    last = std::move(t.outcome);
    // The first run starts from a fresh heap, so its peak repeats for a
    // seed; later set-ups and runs, whose number depends on host speed,
    // would let allocator history move it.
    if (run_s.size() == 1) peak_rss_mb = PeakRssMb();
    for (int i = 0; i < MinRuns(options.config, 5); ++i) {
      setup_s.push_back(SetupSample(workload, options.config));
    }
  }
  checker.CheckRecorded(&r);

  Emit(&r, "setup_s", Median(setup_s));
  Emit(&r, "run_s", Median(run_s));
  Emit(&r, "peak_rss_mb", peak_rss_mb);
  for (const auto& [name, value] : last.values) {
    if (name.rfind("sim_", 0) == 0) Emit(&r, name, value);
  }
  NoteRuns(workload, run_s, &r);
  NoteOps(workload, last, &r);
  return r;
}

PhaseResult MeasureLayers(const std::string& workload,
                          const MeasureOptions& options) {
  PhaseResult r;
  RunChecker checker(workload, options.config);
  const bool twin = workload == "train_clos";
  WorkloadConfig twin_config = options.config;
  twin_config.analytic_dcn = true;

  // Harness calls whose host seconds per traced run are the per-layer
  // metric <span>_s.
  const char* const timed[] = {"hw.build",         "pathways.build",
                               "pathways.submit",  "pathways.release",
                               "models.build",     "serving.offer"};
  std::map<std::string, std::vector<double>> host_s;
  std::vector<double> plain_run_s, traced_run_s, twin_run_s;
  std::unique_ptr<Probe> last_probe;
  RunOutcome last;
  double drift = 0;

  // Untraced and traced runs (and on train_clos the analytic twin)
  // alternate, in ABBA order, so host drift during the phase hits both
  // sides of each ratio alike.
  auto plain_run = [&] {
    Probe probe(/*tracing=*/false);
    TimedRun t = RunOnce(workload, options.config, probe);
    plain_run_s.push_back(t.run_s);
    checker.Add(t.outcome, &r);
  };
  const auto start = Clock::now();
  int cycles = 0;
  while (cycles < MinRuns(options.config, 3) ||
         KeepMeasuring(options, start)) {
    const bool plain_first = cycles % 2 == 0;
    if (plain_first) plain_run();
    auto probe = std::make_unique<Probe>(/*tracing=*/true);
    TimedRun t = RunOnce(workload, options.config, *probe);
    traced_run_s.push_back(t.run_s);
    checker.Add(t.outcome, &r);
    for (const char* span : timed) {
      host_s[std::string(span) + "_s"].push_back(probe->Seconds(span));
    }
    last_probe = std::move(probe);
    last = std::move(t.outcome);
    if (twin) {
      Probe twin_probe(/*tracing=*/false);
      TimedRun tw = RunOnce(workload, twin_config, twin_probe);
      twin_run_s.push_back(tw.run_s);
      r.attempted += tw.outcome.attempted;
      r.failed += tw.outcome.failed;
      for (const std::string& e : tw.outcome.errors) {
        AddError(&r, "analytic twin: " + e);
      }
      drift = tw.outcome.values.at("sim_tokens_per_s") /
                  last.values.at("sim_tokens_per_s") -
              1.0;
    }
    if (!plain_first) plain_run();
    ++cycles;
  }
  checker.CheckRecorded(&r);

  for (const auto& [name, value] : last.values) {
    if (name.find('.') != std::string::npos) Emit(&r, name, value);
  }
  for (const auto& [metric, samples] : host_s) {
    Emit(&r, metric, Median(samples));
  }
  const double plain = Median(plain_run_s);
  Emit(&r, "sim.ns_per_event", plain / last.values.at("sim.events") * 1e9);
  // Each traced run against the untraced run of its own cycle.
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced_run_s.size(); ++i) {
    overhead.push_back(traced_run_s[i] / plain_run_s[i] - 1);
  }
  Emit(&r, "trace.overhead_pct", Median(overhead) * 100);
  Emit(&r, "net.flow_host_share",
       twin ? 1 - Median(twin_run_s) / plain : 0.0);
  std::sort(r.metrics.begin(), r.metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });

  if (twin) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "# %s: analytic-DCN twin throughput differs by %.3g "
                  "(fig12 tolerates 5%%)",
                  workload.c_str(), drift);
    r.notes.push_back(buf);
    if (std::abs(drift) > 0.05) {
      AddError(&r, "flow-level and analytic DCN throughput differ by more "
                   "than 5%");
    }
  }
  for (const auto& [name, self] : last_probe->SelfSeconds()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "# %s: self time %-18s %.6f s",
                  workload.c_str(), name.c_str(), self);
    r.notes.push_back(buf);
  }
  if (!options.trace_path.empty() &&
      !last_probe->WriteChromeTrace(
          options.trace_path,
          MetaJson(workload, options.config.seed, options.config.smoke))) {
    AddError(&r, "cannot write " + options.trace_path);
  }
  return r;
}

}  // namespace pwbench
