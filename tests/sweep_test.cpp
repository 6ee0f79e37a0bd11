// Tests for the sweep subsystem: grid expansion order, point accessors,
// thread-pool runner determinism (N threads == 1 thread == grid order),
// simulator integration, and JSON/CSV emission.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/future.h"
#include "sim/simulator.h"
#include "sweep/param_grid.h"
#include "sweep/result_table.h"
#include "sweep/sweep_runner.h"

namespace pw::sweep {
namespace {

// ----------------------------------------------------------- ParamGrid --

TEST(ParamGridTest, CartesianExpansionIsRowMajor) {
  ParamGrid grid;
  grid.AxisInts("a", {1, 2}).AxisStrings("b", {"x", "y", "z"});
  EXPECT_EQ(grid.size(), 6u);
  const auto points = grid.Points();
  ASSERT_EQ(points.size(), 6u);
  // First axis varies slowest.
  EXPECT_EQ(points[0].Label(), "a=1,b=x");
  EXPECT_EQ(points[1].Label(), "a=1,b=y");
  EXPECT_EQ(points[2].Label(), "a=1,b=z");
  EXPECT_EQ(points[3].Label(), "a=2,b=x");
  EXPECT_EQ(points[5].Label(), "a=2,b=z");
  EXPECT_EQ(points[4].index(), 4u);
}

TEST(ParamGridTest, EmptyGridHasOneEmptyPoint) {
  ParamGrid grid;
  EXPECT_EQ(grid.size(), 1u);
  const auto points = grid.Points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].entries().empty());
}

TEST(ParamGridTest, AccessorsAndTypePromotion) {
  ParamGrid grid;
  grid.AxisInts("n", {8}).AxisDoubles("frac", {0.5}).AxisStrings("mode", {"PW"});
  const auto p = grid.Points().at(0);
  EXPECT_TRUE(p.Has("n"));
  EXPECT_FALSE(p.Has("missing"));
  EXPECT_EQ(p.GetInt("n"), 8);
  EXPECT_DOUBLE_EQ(p.GetDouble("frac"), 0.5);
  EXPECT_DOUBLE_EQ(p.GetDouble("n"), 8.0);  // int promotes to double
  EXPECT_EQ(p.GetString("mode"), "PW");
}

TEST(ParamGridDeathTest, DuplicateAxisAndMissingNameDie) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  ParamGrid grid;
  grid.AxisInts("a", {1});
  EXPECT_DEATH(grid.AxisInts("a", {2}), "duplicate axis");
  const auto p = grid.Points().at(0);
  EXPECT_DEATH(p.Get("nope"), "no axis named");
  EXPECT_DEATH(p.GetString("a"), "not a string");
}

// --------------------------------------------------------- SweepRunner --

TEST(SweepRunnerTest, ResultsArriveInGridOrderRegardlessOfThreads) {
  ParamGrid grid;
  grid.AxisInts("i", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto fn = [](const ParamPoint& p) -> Metrics {
    return {{"twice", static_cast<double>(p.GetInt("i") * 2)}};
  };
  const ResultTable serial = SweepRunner({.threads = 1}).Run(grid, fn);
  const ResultTable pooled = SweepRunner({.threads = 8}).Run(grid, fn);
  ASSERT_EQ(serial.size(), 10u);
  ASSERT_EQ(pooled.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(std::get<std::int64_t>(serial.rows()[i].params[0].second),
              static_cast<std::int64_t>(i));
    EXPECT_EQ(serial.rows()[i].metrics[0].second, 2.0 * static_cast<double>(i));
    EXPECT_EQ(pooled.rows()[i].metrics[0].second, serial.rows()[i].metrics[0].second);
  }
}

TEST(SweepRunnerTest, SerializedOutputIsByteIdenticalAcrossThreadCounts) {
  ParamGrid grid;
  grid.AxisInts("n", {1, 2, 3, 4}).AxisStrings("kind", {"a", "b"});
  auto fn = [](const ParamPoint& p) -> Metrics {
    return {{"v", static_cast<double>(p.GetInt("n")) +
                      (p.GetString("kind") == "a" ? 0.25 : 0.75)}};
  };
  std::ostringstream csv1, csv4;
  SweepRunner({.threads = 1}).Run(grid, fn).WriteCsv(csv1);
  SweepRunner({.threads = 4}).Run(grid, fn).WriteCsv(csv4);
  EXPECT_EQ(csv1.str(), csv4.str());
  EXPECT_NE(csv1.str().find("n,kind,v"), std::string::npos);
}

TEST(SweepRunnerTest, EachPointRunsItsOwnDeterministicSimulator) {
  // The intended usage: every point builds a private single-threaded
  // Simulator; concurrency across points must not leak into results.
  ParamGrid grid;
  grid.AxisInts("events", {10, 100, 1000});
  auto fn = [](const ParamPoint& p) -> Metrics {
    sim::Simulator sim;
    const std::int64_t n = p.GetInt("events");
    for (std::int64_t i = 0; i < n; ++i) {
      sim.Schedule(Duration::Nanos(i % 97), [] {});
    }
    const std::int64_t ran = sim.Run();
    return {{"ran", static_cast<double>(ran)},
            {"final_ns", static_cast<double>(sim.now().nanos())}};
  };
  const ResultTable t1 = SweepRunner({.threads = 4}).Run(grid, fn);
  const ResultTable t2 = SweepRunner({.threads = 2}).Run(grid, fn);
  ASSERT_EQ(t1.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(t1.rows()[i].metrics[0].second, t2.rows()[i].metrics[0].second);
    EXPECT_EQ(t1.rows()[i].metrics[1].second, t2.rows()[i].metrics[1].second);
  }
  EXPECT_EQ(t1.rows()[2].metrics[0].second, 1000.0);
}

TEST(SweepRunnerTest, EffectiveThreadsClampsToWork) {
  SweepRunner runner({.threads = 16});
  EXPECT_EQ(runner.EffectiveThreads(3), 3);
  EXPECT_EQ(runner.EffectiveThreads(100), 16);
  SweepRunner one({.threads = 1});
  EXPECT_EQ(one.EffectiveThreads(100), 1);
}

TEST(SweepRunnerTest, AllPointsVisitedExactlyOnceConcurrently) {
  ParamGrid grid;
  grid.AxisInts("i", []{
    std::vector<std::int64_t> v;
    for (int i = 0; i < 64; ++i) v.push_back(i);
    return v;
  }());
  std::atomic<int> calls{0};
  const ResultTable t = SweepRunner({.threads = 8}).Run(grid, [&](const ParamPoint&) -> Metrics {
    calls.fetch_add(1);
    return {{"one", 1.0}};
  });
  EXPECT_EQ(calls.load(), 64);
  EXPECT_EQ(t.size(), 64u);
}

TEST(SweepRunnerTest, FutureStatesStayOnTheirThread) {
  // Future states and joins count their handles with a plain int, which is
  // sound only because every point's futures are created, copied, fired
  // and dropped on the one thread running that point's Simulator. Under
  // ThreadSanitizer a count shared across points' threads would race here.
  constexpr int kFutures = 10000;
  ParamGrid grid;
  grid.AxisInts("seed", {1, 2, 3, 4, 5, 6, 7, 8});
  auto fn = [](const ParamPoint& p) -> Metrics {
    const std::int64_t seed = p.GetInt("seed");
    sim::Simulator sim;
    std::int64_t sum = 0;
    std::int64_t joins = 0;
    std::vector<sim::SimFuture<std::int64_t>> held;
    for (int i = 0; i < kFutures; ++i) {
      sim::SimPromise<std::int64_t> value(&sim);
      sim::SimPromise<sim::Unit> signal(&sim);
      sim::SimFuture<std::int64_t> copy = value.future();
      copy.Then([&sum](const std::int64_t& v) { sum += v; });
      held.push_back(copy);
      // A join over both, one arrival registered, one called by hand.
      auto arrive = sim::JoinOf(&sim, 3, [&joins] { ++joins; });
      signal.future().Then(arrive);
      value.future().Then(
          [arrive](const std::int64_t&) mutable { arrive(sim::Unit{}); });
      arrive(sim::Unit{});
      value.Set(seed + i);
      signal.Set(sim::Unit{});
      if (held.size() == 64) held.clear();  // copies outlive their promises
      if (i % 256 == 0) sim.Run();
    }
    sim.Run();
    return {{"sum", static_cast<double>(sum)},
            {"joins", static_cast<double>(joins)},
            {"events", static_cast<double>(sim.events_executed())}};
  };
  const ResultTable pooled = SweepRunner({.threads = 4}).Run(grid, fn);
  const ResultTable serial = SweepRunner({.threads = 1}).Run(grid, fn);
  ASSERT_EQ(pooled.size(), 8u);
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    const double seed = static_cast<double>(i + 1);
    EXPECT_EQ(pooled.rows()[i].metrics[0].second,
              kFutures * seed + kFutures * (kFutures - 1) / 2.0);
    EXPECT_EQ(pooled.rows()[i].metrics[1].second, kFutures);
    for (std::size_t m = 0; m < 3; ++m) {
      EXPECT_EQ(pooled.rows()[i].metrics[m].second,
                serial.rows()[i].metrics[m].second);
    }
  }
}

// ------------------------------------------------------- serialization --

TEST(ResultTableTest, CsvUnionsColumnsInFirstSeenOrder) {
  ResultTable t;
  t.Add({{"hosts", std::int64_t{2}}}, {{"rate", 10.5}});
  t.Add({{"hosts", std::int64_t{4}}, {"mode", std::string("PW")}},
        {{"rate", 20.0}, {"util", 0.75}});
  std::ostringstream os;
  t.WriteCsv(os);
  EXPECT_EQ(os.str(),
            "hosts,mode,rate,util\n"
            "2,,10.5,\n"
            "4,PW,20,0.75\n");
}

TEST(ResultTableTest, BenchJsonHasSchemaFields) {
  ResultTable t;
  t.Add({{"workload", std::string("empty")}}, {{"events_per_sec", 1.25e6}});
  std::ostringstream os;
  WriteBenchJson(os, "simcore", {{"speedup_vs_legacy", 2.5}}, t);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\": \"simcore\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"speedup_vs_legacy\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"empty\""), std::string::npos);
  EXPECT_NE(json.find("\"events_per_sec\": 1250000"), std::string::npos);
}

TEST(ResultTableTest, JsonEscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string("x\x01y")), "x\\u0001y");
}

TEST(ResultTableTest, EmptySeriesSerializesAsEmptyArray) {
  ResultTable t;
  std::ostringstream os;
  WriteBenchJson(os, "nothing", {}, t);
  EXPECT_NE(os.str().find("\"series\": []"), std::string::npos);
}

}  // namespace
}  // namespace pw::sweep
