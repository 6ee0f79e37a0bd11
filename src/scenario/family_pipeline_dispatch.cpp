// Family "pipeline_dispatch": §4.5 / Figure 7 — parallel vs sequential
// asynchronous dispatch of a pipeline whose stages each run on the 4 TPU
// cores of a different host, with data moving stage to stage over ICI.
// Parallel dispatch overlaps every stage's host-side work; sequential
// dispatch starts a stage's only after its predecessor was enqueued.
// scenarios/fig7_async_dispatch.json gates the speedup.
#include <memory>
#include <string>
#include <vector>

#include "pathways/pathways.h"
#include "scenario/family_common.h"
#include "xlasim/compiled_function.h"

namespace pw::scenario {
namespace {

// Computations/s of back-to-back runs of a `stages`-stage pipeline program,
// one program at a time: stages / latency.
double MeasurePipeline(const Scenario& sc, int stages,
                       pathways::DispatchMode mode) {
  using namespace pw::pathways;
  sim::Simulator sim;
  auto cluster = std::make_unique<hw::Cluster>(
      &sim, BaseSystemParams(sc.cluster), 1, stages, 4);
  PathwaysOptions options;
  options.dispatch = mode;
  PathwaysRuntime runtime(cluster.get(), options);
  Client* client = runtime.CreateClient();

  ProgramBuilder pb("pipeline");
  ValueRef v{};
  for (int s = 0; s < stages; ++s) {
    auto slice = client->AllocateSlice(4).value();
    auto fn = xlasim::CompiledFunction::Synthetic(
        "stage" + std::to_string(s), 4, Duration::Micros(20),
        net::CollectiveKind::kAllReduce, 4, /*io_bytes=*/KiB(64));
    std::vector<ValueRef> inputs;
    if (s > 0) inputs.push_back(v);
    v = pb.Call(fn, slice, std::move(inputs));
  }
  pb.Result(v);
  PathwaysProgram prog = std::move(pb).Build();

  // The first two programs warm up; the next ten are measured.
  constexpr int kPrograms = 12;
  TimePoint start;
  for (int p = 0; p < kPrograms; ++p) {
    auto result = client->Run(&prog);
    sim.RunUntilPredicate([&result] { return result.ready(); });
    for (const auto& out : result.value().outputs) {
      runtime.object_store().Release(out.id);
    }
    if (p == 1) start = sim.now();
  }
  return static_cast<double>(kPrograms - 2) * stages /
         (sim.now() - start).ToSeconds();
}

sweep::Metrics Measure(const Scenario& sc, bool, const sweep::ParamPoint& p) {
  const int stages = static_cast<int>(p.GetInt("stages"));
  const double par = MeasurePipeline(sc, stages, pathways::DispatchMode::kParallel);
  const double seq =
      MeasurePipeline(sc, stages, pathways::DispatchMode::kSequential);
  return {{"parallel_comp_per_sec", par},
          {"sequential_comp_per_sec", seq},
          {"speedup", par / seq}};
}

}  // namespace

Family MakePipelineDispatchFamily() {
  Family f;
  f.name = "pipeline_dispatch";
  f.description =
      "Fig. 7: parallel vs sequential asynchronous dispatch of a pipeline "
      "with one stage per host";
  f.axes = {{"stages", AxisKind::kInt}};
  f.check_determinism = false;  // no summary reads it
  f.measure = Measure;
  return f;
}

}  // namespace pw::scenario
