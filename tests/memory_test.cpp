// Unit coverage for the src/memory spill subsystem: host-DRAM accounting,
// the wait-for-graph deadlock detector, and the Spiller's stall-driven
// policy loop (against a scripted backend — the ObjectStore integration is
// covered end-to-end in oversub_test.cpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/units.h"
#include "memory/dram_allocator.h"
#include "memory/spiller.h"
#include "memory/wait_graph.h"
#include "sim/simulator.h"

namespace pw::memory {
namespace {

// ------------------------------------------------------------ DramAllocator

TEST(DramAllocatorTest, TracksUsageAndRefusesOvercommit) {
  DramAllocator dram(1000);
  EXPECT_TRUE(dram.TryAllocate(600));
  EXPECT_EQ(dram.used(), 600);
  EXPECT_FALSE(dram.TryAllocate(500));  // refused, nothing allocated
  EXPECT_EQ(dram.used(), 600);
  EXPECT_TRUE(dram.TryAllocate(400));
  EXPECT_EQ(dram.available(), 0);
  dram.Free(1000);
  EXPECT_EQ(dram.used(), 0);
  EXPECT_EQ(dram.peak_used(), 1000);
}

TEST(DramAllocatorDeathTest, OverFreeDies) {
  DramAllocator dram(100);
  ASSERT_TRUE(dram.TryAllocate(50));
  EXPECT_DEATH(dram.Free(60), "freeing more DRAM than allocated");
}

// ------------------------------------------------------------ WaitForGraph

TEST(WaitForGraphTest, AcyclicGraphReportsNoCycle) {
  WaitForGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  EXPECT_TRUE(g.FindCycle().empty());
  EXPECT_EQ(g.DescribeCycle(), "");
}

TEST(WaitForGraphTest, FindsTwoCycleAndNamesIt) {
  WaitForGraph g;
  g.AddEdge(5, 7, "dev0 HBM");
  g.AddEdge(7, 5, "dev1 HBM");
  const std::vector<std::int64_t> cycle = g.FindCycle();
  ASSERT_EQ(cycle.size(), 3u);
  EXPECT_EQ(cycle.front(), cycle.back());
  const std::string desc =
      g.DescribeCycle({{5, "exec 5"}, {7, "exec 7"}});
  EXPECT_NE(desc.find("exec 5"), std::string::npos);
  EXPECT_NE(desc.find("exec 7"), std::string::npos);
  EXPECT_NE(desc.find("dev0 HBM"), std::string::npos);
}

TEST(WaitForGraphTest, FindsLongerCycleBehindAcyclicPrefix) {
  WaitForGraph g;
  g.AddEdge(0, 1);  // dead end
  g.AddEdge(1, 9);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4, "via dev2");
  g.AddEdge(4, 2);
  const auto cycle = g.FindCycle();
  ASSERT_EQ(cycle.size(), 4u);  // 2 -> 3 -> 4 -> 2
  EXPECT_EQ(cycle.front(), cycle.back());
}

TEST(WaitForGraphTest, SelfLoopIsACycle) {
  WaitForGraph g;
  g.AddEdge(4, 4, "dev0 HBM");
  EXPECT_EQ(g.FindCycle().size(), 2u);
}

// ----------------------------------------------------------------- Spiller

// Scripted backend: a fixed number of stalled "bytes" per device that each
// StartSpill works off asynchronously (simulated PCIe delay).
class FakeBackend : public SpillBackend {
 public:
  FakeBackend(sim::Simulator* sim, Spiller** spiller)
      : sim_(sim), spiller_(spiller) {}

  bool HasStalledReservation(int device) const override {
    auto it = stalled_.find(device);
    return it != stalled_.end() && it->second > 0;
  }

  bool StartSpill(int device) override {
    ++spills_requested_;
    if (spillable_[device] <= 0) return false;
    --spillable_[device];
    sim_->Schedule(Duration::Micros(10), [this, device] {
      --stalled_[device];  // each landed spill relieves one stalled unit
      (*spiller_)->OnSpillComplete(device);
    });
    return true;
  }

  std::map<int, int> stalled_;
  std::map<int, int> spillable_;
  int spills_requested_ = 0;

 private:
  sim::Simulator* sim_;
  Spiller** spiller_;
};

TEST(SpillerTest, DrainsStallOneVictimAtATime) {
  sim::Simulator sim;
  Spiller* spiller = nullptr;
  FakeBackend backend(&sim, &spiller);
  Spiller s(&sim, &backend);
  spiller = &s;
  backend.stalled_[0] = 3;
  backend.spillable_[0] = 5;
  s.OnStall(0);
  sim.Run();
  EXPECT_EQ(s.spills_started(), 3);        // exactly the stalled amount
  EXPECT_EQ(backend.spillable_[0], 2);     // no over-eviction
  EXPECT_FALSE(backend.HasStalledReservation(0));
}

TEST(SpillerTest, StopsQuietlyWhenNothingIsSpillable) {
  sim::Simulator sim;
  Spiller* spiller = nullptr;
  FakeBackend backend(&sim, &spiller);
  Spiller s(&sim, &backend);
  spiller = &s;
  backend.stalled_[0] = 2;
  backend.spillable_[0] = 1;
  s.OnStall(0);
  sim.Run();
  // One victim migrated; the residual stall is left for future frees (or
  // the quiescence wedge check) — no spin, no crash.
  EXPECT_EQ(s.spills_started(), 1);
  EXPECT_TRUE(backend.HasStalledReservation(0));
}

TEST(SpillerTest, RepeatedStallNotificationsCoalesceIntoOneKick) {
  sim::Simulator sim;
  Spiller* spiller = nullptr;
  FakeBackend backend(&sim, &spiller);
  Spiller s(&sim, &backend);
  spiller = &s;
  backend.stalled_[0] = 1;
  backend.spillable_[0] = 1;
  s.OnStall(0);
  s.OnStall(0);  // same event: must not double-kick
  s.OnStall(0);
  sim.Run();
  EXPECT_EQ(s.spills_started(), 1);
}

TEST(SpillerTest, DevicesAreIndependent) {
  sim::Simulator sim;
  Spiller* spiller = nullptr;
  FakeBackend backend(&sim, &spiller);
  Spiller s(&sim, &backend);
  spiller = &s;
  backend.stalled_[0] = 1;
  backend.spillable_[0] = 1;
  backend.stalled_[3] = 2;
  backend.spillable_[3] = 2;
  s.OnStall(0);
  s.OnStall(3);
  sim.Run();
  EXPECT_EQ(s.spills_started(), 3);
  EXPECT_FALSE(backend.HasStalledReservation(0));
  EXPECT_FALSE(backend.HasStalledReservation(3));
}

}  // namespace
}  // namespace pw::memory
