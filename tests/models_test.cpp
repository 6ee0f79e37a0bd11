#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "hw/cluster.h"
#include "models/step_builder.h"
#include "models/transformer.h"
#include "pathways/pathways.h"
#include "sim/simulator.h"

namespace pw::models {
namespace {

// ----------------------------------------------------- TransformerConfig --

TEST(TransformerConfigTest, Decoder3BMatchesPaperShape) {
  const auto c = TransformerConfig::Decoder3B();
  EXPECT_EQ(c.num_layers, 62);
  EXPECT_EQ(c.d_model, 2048);
  EXPECT_EQ(c.d_ff, 8192);
  // "results in 3 billion parameters in total" (§5.3).
  EXPECT_NEAR(static_cast<double>(c.TotalParams()), 3.2e9, 0.2e9);
}

TEST(TransformerConfigTest, LargeModelsHitTargets) {
  EXPECT_NEAR(static_cast<double>(TransformerConfig::Decoder64B().TotalParams()),
              64e9, 3e9);
  EXPECT_NEAR(static_cast<double>(TransformerConfig::Decoder136B().TotalParams()),
              136e9, 6e9);
}

TEST(TransformerConfigTest, T5FamilyOrdering) {
  const auto base = TransformerConfig::T5Base();
  const auto large = TransformerConfig::T5Large();
  const auto xxl = TransformerConfig::T5_11B();
  EXPECT_LT(base.TotalParams(), large.TotalParams());
  EXPECT_LT(large.TotalParams(), xxl.TotalParams());
  EXPECT_NEAR(static_cast<double>(xxl.TotalParams()), 11e9, 2e9);
}

TEST(TransformerConfigTest, FlopsFollowSixNTokens) {
  const auto c = TransformerConfig::Decoder3B();
  EXPECT_DOUBLE_EQ(c.FlopsPerStep(),
                   6.0 * static_cast<double>(c.TotalParams()) *
                       static_cast<double>(c.tokens_per_batch));
}

// ----------------------------------------------------------- StepBuilder --

TEST(StepBuilderTest, ComputeTimeScalesInverselyWithCores) {
  StepBuilder b(TransformerConfig::Decoder3B(), hw::SystemParams::TpuDefault());
  EXPECT_NEAR(b.ComputeTime(128).ToSeconds() / b.ComputeTime(512).ToSeconds(),
              4.0, 1e-6);
}

TEST(StepBuilderTest, StageBalancingRemovesEdgeLayers) {
  StepBuilder b(TransformerConfig::Decoder3B(), hw::SystemParams::TpuDefault());
  // 62 layers over 4 stages: paper took one layer out of first and last.
  const auto counts = b.StageLayerCounts(4);
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 62);
  EXPECT_LT(counts.front(), counts[1]);
  EXPECT_LT(counts.back(), counts[2]);
}

TEST(StepBuilderTest, StageCountsSumForAllS) {
  StepBuilder b(TransformerConfig::Decoder3B(), hw::SystemParams::TpuDefault());
  for (int s : {1, 2, 4, 8, 16}) {
    const auto counts = b.StageLayerCounts(s);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 62)
        << "stages=" << s;
  }
}

TEST(StepBuilderTest, SpmdFunctionCarriesCollective) {
  StepBuilder b(TransformerConfig::Decoder3B(), hw::SystemParams::TpuDefault());
  net::CollectiveModel coll{net::CollectiveParams{}};
  const auto f = b.SpmdStepFunction(128, coll);
  EXPECT_EQ(f.num_shards, 128);
  ASSERT_TRUE(f.collective.has_value());
  EXPECT_GT(f.collective_bytes_per_shard, 0);
  EXPECT_GT(f.pre_collective_time.nanos(), b.ComputeTime(128).nanos());
}

// Sharding the SPMD step over more cores shrinks each shard's device time:
// the FLOP roofline term divides by the shard count, on top of a
// model-parallel collective-latency floor that only appears once sharded.
class ShardingSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShardingSweep, PerShardTimeShrinksWithShards) {
  const int shards = GetParam();
  StepBuilder b(TransformerConfig::Decoder3B(), hw::SystemParams::TpuDefault());
  net::CollectiveModel coll{net::CollectiveParams{}};
  const auto whole = b.SpmdStepFunction(1, coll);
  const auto sharded = b.SpmdStepFunction(shards, coll);
  EXPECT_LE(sharded.total_compute_time().nanos(),
            whole.total_compute_time().nanos());
  const Duration floor =
      shards == 1 ? Duration::Zero()
                  : coll.Time(net::CollectiveKind::kAllReduce, 0, shards) *
                        (b.config().num_layers * kCollectivesPerLayer);
  const double expected =
      static_cast<double>(whole.total_compute_time().nanos()) / shards;
  EXPECT_NEAR(static_cast<double>((sharded.total_compute_time() - floor).nanos()),
              expected, expected * 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardingSweep, ::testing::Values(1, 2, 4, 8, 16));

// --------------------------------------------------- End-to-end training --

struct TrainWorld {
  explicit TrainWorld(int islands, int hosts_per_island, int devs_per_host) {
    hw::SystemParams params;
    params.host_jitter_frac = 0;
    cluster = std::make_unique<hw::Cluster>(&sim, params, islands,
                                            hosts_per_island, devs_per_host);
    runtime = std::make_unique<pathways::PathwaysRuntime>(
        cluster.get(), pathways::PathwaysOptions{});
    client = runtime->CreateClient();
  }
  sim::Simulator sim;
  std::unique_ptr<hw::Cluster> cluster;
  std::unique_ptr<pathways::PathwaysRuntime> runtime;
  pathways::Client* client;
};

TransformerConfig TinyModel() {
  TransformerConfig c = TransformerConfig::Decoder3B();
  c.name = "tiny";
  c.num_layers = 8;
  c.tokens_per_batch = 1 << 14;
  return c;
}

TEST(TrainingTest, SpmdStepRunsAndMeasures) {
  TrainWorld w(1, 2, 4);
  StepBuilder b(TinyModel(), w.cluster->params());
  const auto fn = b.SpmdStepFunction(8, w.cluster->island(0).collectives());
  auto slice = w.client->AllocateSlice(8).value();
  pathways::ProgramBuilder pb("spmd");
  pb.Call(fn, slice, {});
  auto program = std::move(pb).Build();
  const auto m = MeasureTraining(w.client, &program,
                                 b.config().tokens_per_batch, /*steps=*/3);
  EXPECT_GT(m.tokens_per_sec, 0);
  // Step time must be at least the compute roofline.
  EXPECT_GE(m.step_time.nanos(), b.ComputeTime(8).nanos());
}

TEST(TrainingTest, GPipeProgramHasExpectedShape) {
  TrainWorld w(1, 4, 2);
  StepBuilder b(TinyModel(), w.cluster->params());
  std::vector<pathways::VirtualSlice> slices;
  for (int s = 0; s < 4; ++s) {
    slices.push_back(w.client->AllocateSlice(2).value());
  }
  const auto prog = b.BuildGPipeProgram(slices, /*micro_batches=*/8,
                                        w.cluster->island(0).collectives());
  // 4 stages x 8 micro-batches x (fwd + bwd) + 4 updates.
  EXPECT_EQ(prog.num_nodes(), 4 * 8 * 2 + 4);
  EXPECT_EQ(prog.results().size(), 4u);
}

TEST(TrainingTest, GPipePipelinesAcrossStages) {
  TrainWorld w(1, 4, 2);
  StepBuilder b(TinyModel(), w.cluster->params());
  std::vector<pathways::VirtualSlice> slices;
  for (int s = 0; s < 4; ++s) {
    slices.push_back(w.client->AllocateSlice(2).value());
  }
  auto prog = b.BuildGPipeProgram(slices, 8, w.cluster->island(0).collectives());
  const auto m = MeasureTraining(w.client, &prog, b.config().tokens_per_batch, 3);
  EXPECT_GT(m.tokens_per_sec, 0);
  // With M=8, S=4 the GPipe step is at most ~(M+S-1)/M x ideal plus
  // overheads; it must beat 4x-serial execution by a wide margin.
  const double serial_bound =
      b.ComputeTime(8).ToSeconds() * 4;  // all stages strictly serial
  EXPECT_LT(m.step_time.ToSeconds(), serial_bound);
  EXPECT_FALSE(w.sim.Deadlocked());
}

TEST(TrainingTest, MultiIslandStepOverlapsDcn) {
  TrainWorld w(/*islands=*/2, 2, 4);
  TransformerConfig tiny = TinyModel();
  StepBuilder b(tiny, w.cluster->params());
  std::vector<pathways::VirtualSlice> slices;
  slices.push_back(w.client->AllocateSlice(8, hw::IslandId(0)).value());
  slices.push_back(w.client->AllocateSlice(8, hw::IslandId(1)).value());
  auto prog = b.BuildMultiIslandStep(slices, /*chunks=*/4,
                                     w.cluster->island(0).collectives());
  // 2 islands x 4 chunks + 2 applies.
  EXPECT_EQ(prog.num_nodes(), 2 * 4 + 2);
  const auto m = MeasureTraining(w.client, &prog, tiny.tokens_per_batch, 3);
  EXPECT_GT(m.tokens_per_sec, 0);
  EXPECT_GT(w.cluster->dcn().bytes_sent(), 0);  // gradients crossed islands
}

}  // namespace
}  // namespace pw::models
