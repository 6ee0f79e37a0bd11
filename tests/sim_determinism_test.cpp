// Determinism golden test (the regression gate for event-engine changes).
//
// Runs a fixed two-island training scenario — two clients, a chunked
// multi-island data-parallel step program interleaved with a small
// collective probe program — and asserts three things:
//
//   1. Two in-process runs produce bit-identical sim::Trace output
//      (span-for-span equality, not just a digest).
//   2. The FNV-1a checksum over the full trace, the executed-event count,
//      and the final clock match the recorded golden values below. The
//      goldens were captured from the original binary-heap-of-std::function
//      engine *before* the pooled-event engine swap, so any event
//      reordering introduced by engine work changes the checksum and fails
//      here.
//   3. The per-run event count and final clock are individually stable
//      (they are part of the checksum but asserted separately so a failure
//      pinpoints what moved).
//
// The build compiles with -ffp-contract=off precisely so these goldens are
// reproducible across compiler versions; see the top-level CMakeLists.
// One residual portability dependency remains: the scenario's jitter path
// calls std::log/std::cos/std::sqrt, so a libm (glibc) release that
// changes those functions' rounding by an ulp can legitimately move the
// goldens while run-twice equality (the first test) still holds. If the
// golden test alone fails on a new platform with the first test green,
// re-record the three constants from the failure message's printed values.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "hw/cluster.h"
#include "models/step_builder.h"
#include "pathways/pathways.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "xlasim/compiled_function.h"

namespace pw {
namespace {

using pathways::Client;
using pathways::PathwaysProgram;
using pathways::PathwaysRuntime;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void FnvBytes(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void FnvI64(std::uint64_t* h, std::int64_t v) { FnvBytes(h, &v, sizeof(v)); }

void FnvStr(std::uint64_t* h, const std::string& s) {
  FnvI64(h, static_cast<std::int64_t>(s.size()));
  FnvBytes(h, s.data(), s.size());
}

struct ScenarioOutcome {
  std::vector<sim::TraceSpan> spans;
  std::int64_t events_executed = 0;
  std::int64_t final_now_ns = 0;

  std::uint64_t Checksum() const {
    std::uint64_t h = kFnvOffset;
    FnvI64(&h, static_cast<std::int64_t>(spans.size()));
    for (const sim::TraceSpan& s : spans) {
      FnvStr(&h, s.resource);
      FnvI64(&h, s.client);
      FnvStr(&h, s.label);
      FnvI64(&h, s.start.nanos());
      FnvI64(&h, s.end.nanos());
    }
    FnvI64(&h, events_executed);
    FnvI64(&h, final_now_ns);
    return h;
  }
};

// The fixed scenario: 2 islands x 2 hosts x 4 devices, default (jittered)
// TPU parameters so the deterministic Rng path is exercised too. Client A
// trains a chunked two-island data-parallel step; client B interleaves a
// small AllReduce probe each step.
//
// `plan`, when present, is armed through a faults::FaultInjector before the
// run (an *empty* plan must leave the outcome bit-identical to no injector
// at all — that contract is regression-gated below). With a plan the
// trainer submits through RunWithRetry so aborted steps are resubmitted.
ScenarioOutcome RunScenario(
    const std::optional<faults::FaultPlan>& plan = std::nullopt) {
  sim::Simulator sim;
  auto cluster = std::make_unique<hw::Cluster>(
      &sim, hw::SystemParams::TpuDefault(), /*islands=*/2,
      /*hosts_per_island=*/2, /*devices_per_host=*/4);
  cluster->EnableTrace();  // the golden hashes every kernel span
  PathwaysRuntime runtime(cluster.get(), pathways::PathwaysOptions{});
  std::unique_ptr<faults::FaultInjector> injector;
  if (plan.has_value()) {
    injector = std::make_unique<faults::FaultInjector>(cluster.get(), &runtime,
                                                       *plan);
    injector->Arm();
  }
  Client* trainer = runtime.CreateClient();
  Client* prober = runtime.CreateClient(/*weight=*/2.0);

  models::TransformerConfig config = models::TransformerConfig::Decoder3B();
  config.tokens_per_batch /= 8;
  models::StepBuilder builder(config, cluster->params());

  std::vector<pathways::VirtualSlice> slices;
  slices.push_back(trainer->AllocateSlice(6, hw::IslandId(0)).value());
  slices.push_back(trainer->AllocateSlice(6, hw::IslandId(1)).value());
  PathwaysProgram step = builder.BuildMultiIslandStep(
      slices, /*chunks=*/2, cluster->island(0).collectives());

  auto probe_slice = prober->AllocateSlice(2, hw::IslandId(1)).value();
  auto probe_fn = xlasim::CompiledFunction::Synthetic(
      "probe", 2, Duration::Micros(50), net::CollectiveKind::kAllReduce,
      KiB(64));

  const bool faulted = plan.has_value() && !plan->empty();
  for (int i = 0; i < 3; ++i) {
    auto done = faulted ? trainer->RunWithRetry(&step) : trainer->Run(&step);
    prober->RunFunction(probe_fn, probe_slice);
    sim.RunUntilPredicate([&done] { return done.ready(); });
  }
  sim.Run();

  ScenarioOutcome out;
  out.spans = cluster->trace().spans();
  out.events_executed = sim.events_executed();
  out.final_now_ns = sim.now().nanos();
  return out;
}

bool SpansIdentical(const std::vector<sim::TraceSpan>& a,
                    const std::vector<sim::TraceSpan>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].resource != b[i].resource || a[i].client != b[i].client ||
        a[i].label != b[i].label || a[i].start != b[i].start ||
        a[i].end != b[i].end) {
      return false;
    }
  }
  return true;
}

// Golden values captured from the pre-overhaul engine (binary heap of
// std::function events, commit 2e93231). The pooled-event engine must
// reproduce them exactly: same events, same order, same clock.
constexpr std::uint64_t kGoldenChecksum = 0xdb121a57a05bb32cULL;
constexpr std::int64_t kGoldenEventsExecuted = 2622;
constexpr std::int64_t kGoldenFinalNowNs = 13758651738;

TEST(SimDeterminismGolden, TwoRunsProduceBitIdenticalTraces) {
  const ScenarioOutcome first = RunScenario();
  const ScenarioOutcome second = RunScenario();
  EXPECT_TRUE(SpansIdentical(first.spans, second.spans))
      << "same scenario, same process, different traces";
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.final_now_ns, second.final_now_ns);
  EXPECT_EQ(first.Checksum(), second.Checksum());
}

TEST(SimDeterminismGolden, MatchesRecordedEventTraceChecksum) {
  const ScenarioOutcome out = RunScenario();
  ASSERT_FALSE(out.spans.empty());
  EXPECT_EQ(out.events_executed, kGoldenEventsExecuted)
      << "event count moved: the engine ran a different number of events";
  EXPECT_EQ(out.final_now_ns, kGoldenFinalNowNs)
      << "final simulated clock moved";
  EXPECT_EQ(out.Checksum(), kGoldenChecksum)
      << "event-trace checksum mismatch: the engine changed event ordering. "
      << "actual checksum=0x" << std::hex << out.Checksum()
      << " events=" << std::dec << out.events_executed
      << " now_ns=" << out.final_now_ns;
}

// The fault subsystem's determinism-neutrality contract: arming an
// injector with an EMPTY FaultPlan must reproduce the pre-fault-subsystem
// goldens bit-for-bit — registering observers, the execution registry, and
// every `if (faulted)` branch on the hot paths cost zero events and zero
// reordering.
TEST(SimDeterminismGolden, FaultFreePlanPreservesGolden) {
  const ScenarioOutcome out = RunScenario(faults::FaultPlan{});
  EXPECT_EQ(out.events_executed, kGoldenEventsExecuted)
      << "an empty fault plan changed the event count";
  EXPECT_EQ(out.final_now_ns, kGoldenFinalNowNs);
  EXPECT_EQ(out.Checksum(), kGoldenChecksum)
      << "an empty fault plan perturbed the event trace. actual checksum=0x"
      << std::hex << out.Checksum();
}

// ----------------------------------------------------------------------- //
// Fault-scenario golden: the same two-island training scenario under a
// fixed fault plan — one gang member crashes mid-run and recovers, another
// device straggles at 2.5x, one host NIC is halved, one host is briefly
// partitioned. Gates the whole failover path (abort, rendezvous release,
// remap, retry-with-backoff, replay-after-heal) the same way the core
// engine is gated: any change to failover event ordering moves this
// checksum. Re-record (values printed on failure) only for intentional
// semantic changes.

faults::FaultPlan FixedFaultPlan() {
  faults::FaultPlan plan;
  plan.CrashDevice(hw::DeviceId(2), TimePoint() + Duration::Millis(2),
                   /*down_for=*/Duration::Millis(6));
  plan.SlowDevice(hw::DeviceId(9), TimePoint() + Duration::Millis(1),
                  /*window=*/Duration::Millis(4), /*multiplier=*/2.5);
  plan.DegradeHostLink(net::HostId(1), TimePoint() + Duration::Millis(1.5),
                       /*window=*/Duration::Millis(5), /*bandwidth_scale=*/0.5);
  plan.PartitionHost(net::HostId(3), TimePoint() + Duration::Millis(2.5),
                     /*window=*/Duration::Millis(1));
  return plan;
}

constexpr std::uint64_t kFaultGoldenChecksum = 0x315ea444bc89b2c0ULL;
constexpr std::int64_t kFaultGoldenEventsExecuted = 3296;
constexpr std::int64_t kFaultGoldenFinalNowNs = 18090361921;

TEST(SimDeterminismGolden, FaultScenarioTwoRunsBitIdentical) {
  const ScenarioOutcome first = RunScenario(FixedFaultPlan());
  const ScenarioOutcome second = RunScenario(FixedFaultPlan());
  EXPECT_TRUE(SpansIdentical(first.spans, second.spans))
      << "same fault plan, same process, different traces";
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.final_now_ns, second.final_now_ns);
  EXPECT_EQ(first.Checksum(), second.Checksum());
}

TEST(SimDeterminismGolden, FaultScenarioMatchesRecordedChecksum) {
  const ScenarioOutcome out = RunScenario(FixedFaultPlan());
  ASSERT_FALSE(out.spans.empty());
  EXPECT_EQ(out.events_executed, kFaultGoldenEventsExecuted)
      << "fault-scenario event count moved";
  EXPECT_EQ(out.final_now_ns, kFaultGoldenFinalNowNs)
      << "fault-scenario final clock moved";
  EXPECT_EQ(out.Checksum(), kFaultGoldenChecksum)
      << "fault-scenario event-trace checksum mismatch: failover semantics "
      << "changed. actual checksum=0x" << std::hex << out.Checksum()
      << " events=" << std::dec << out.events_executed
      << " now_ns=" << out.final_now_ns;
}

}  // namespace
}  // namespace pw
