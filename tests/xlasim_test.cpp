#include <gtest/gtest.h>

#include "xlasim/compiled_function.h"

namespace pw::xlasim {
namespace {

TEST(CompiledFunctionTest, SyntheticWithoutCollective) {
  auto f = CompiledFunction::Synthetic("tiny", 4, Duration::Millis(1));
  EXPECT_EQ(f.num_shards, 4);
  EXPECT_FALSE(f.collective.has_value());
  EXPECT_DOUBLE_EQ(f.total_compute_time().ToMillis(), 1.0);
}

TEST(CompiledFunctionTest, SyntheticWithCollectiveSplitsCompute) {
  auto f = CompiledFunction::Synthetic("ar", 8, Duration::Micros(10),
                                       net::CollectiveKind::kAllReduce, 4);
  ASSERT_TRUE(f.collective.has_value());
  EXPECT_EQ(*f.collective, net::CollectiveKind::kAllReduce);
  EXPECT_EQ(f.collective_bytes_per_shard, 4);
  EXPECT_DOUBLE_EQ((f.pre_collective_time + f.post_collective_time).ToMicros(), 10.0);
}

}  // namespace
}  // namespace pw::xlasim
