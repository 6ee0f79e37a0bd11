#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/collective_model.h"
#include "net/dcn.h"
#include "net/link.h"
#include "sim/simulator.h"

namespace pw::net {
namespace {

// ------------------------------------------------------------------ Link --

TEST(LinkTest, LatencyPlusSerialization) {
  sim::Simulator sim;
  Link link(&sim, "l", Duration::Micros(10), /*bw=*/1e9);  // 1 GB/s
  double delivered_us = 0;
  link.Transfer(/*bytes=*/1000, [&] { delivered_us = sim.now().ToMicros(); });
  sim.Run();
  // 1000 B at 1 GB/s = 1 us serialization + 10 us latency.
  EXPECT_DOUBLE_EQ(delivered_us, 11.0);
}

TEST(LinkTest, BackToBackTransfersSerialize) {
  sim::Simulator sim;
  Link link(&sim, "l", Duration::Micros(5), 1e9);
  std::vector<double> arrivals;
  for (int i = 0; i < 3; ++i) {
    link.Transfer(2000, [&] { arrivals.push_back(sim.now().ToMicros()); });
  }
  sim.Run();
  // Serializations occupy [0,2],[2,4],[4,6]; arrivals at +5 latency each.
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_DOUBLE_EQ(arrivals[0], 7.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 9.0);
  EXPECT_DOUBLE_EQ(arrivals[2], 11.0);
}

TEST(LinkTest, IdleLinkDoesNotAccumulateBacklog) {
  sim::Simulator sim;
  Link link(&sim, "l", Duration::Micros(1), 1e9);
  link.Transfer(1000, [] {});
  sim.Run();  // first transfer delivered at t=2
  double arrival = 0;
  sim.Schedule(Duration::Micros(100), [&] {  // fires at t=102
    link.Transfer(1000, [&] { arrival = sim.now().ToMicros(); });
  });
  sim.Run();
  // Starts fresh at t=102 (1us serialization + 1us latency), not queued
  // behind the long-finished first transfer.
  EXPECT_DOUBLE_EQ(arrival, 104.0);
}

TEST(LinkTest, StatsAccumulate) {
  sim::Simulator sim;
  Link link(&sim, "l", Duration::Micros(1), 1e9);
  link.Transfer(100, [] {});
  link.Transfer(200, [] {});
  sim.Run();
  EXPECT_EQ(link.bytes_sent(), 300);
  EXPECT_EQ(link.transfers(), 2);
}

// ------------------------------------------------------ CollectiveModel --

TEST(CollectiveModelTest, SingleParticipantIsLaunchOnly) {
  CollectiveModel m;
  EXPECT_EQ(m.AllReduce(MiB(64), 1), m.params().launch_overhead);
}

TEST(CollectiveModelTest, LargePayloadIsBandwidthBound) {
  CollectiveParams p;
  p.hop_latency = Duration::Micros(1);
  p.link_bandwidth = 100e9;
  p.launch_overhead = Duration::Zero();
  CollectiveModel m(p);
  // 1 GiB all-reduce over 4: 2*(3/4)*1GiB / 100GB/s = 16.1 ms.
  const Duration t = m.AllReduce(GiB(1), 4);
  EXPECT_NEAR(t.ToMillis(), 16.1, 0.2);
}

TEST(CollectiveModelTest, TinyPayloadIsLatencyBoundTree) {
  CollectiveParams p;
  p.hop_latency = Duration::Micros(1);
  p.launch_overhead = Duration::Zero();
  p.topology = LatencyTopology::kTree;
  CollectiveModel m(p);
  // Scalar all-reduce over 1024 with a tree: 2*ceil(log2 1024) = 20 hops.
  EXPECT_DOUBLE_EQ(m.AllReduce(4, 1024).ToMicros(), 20.0);
}

TEST(CollectiveModelTest, Torus2DLatencyScalesWithSqrtN) {
  CollectiveParams p;
  p.hop_latency = Duration::Micros(1);
  p.launch_overhead = Duration::Zero();
  p.topology = LatencyTopology::kTorus2D;
  CollectiveModel m(p);
  // 2D torus over 64: 2*(sqrt(64)-1) = 14 base hops, x2 for all-reduce.
  EXPECT_DOUBLE_EQ(m.AllReduce(4, 64).ToMicros(), 28.0);
  // 2048 participants: 2*(ceil(sqrt(2048))-1) = 90 base hops, x2 = 180.
  EXPECT_DOUBLE_EQ(m.AllReduce(4, 2048).ToMicros(), 180.0);
}

TEST(CollectiveModelTest, RingLatency) {
  CollectiveParams p;
  p.hop_latency = Duration::Micros(1);
  p.launch_overhead = Duration::Zero();
  p.topology = LatencyTopology::kRing;
  CollectiveModel m(p);
  EXPECT_DOUBLE_EQ(m.AllReduce(4, 8).ToMicros(), 14.0);  // 2*(8-1)
}

TEST(CollectiveModelTest, AllGatherCheaperThanAllReduce) {
  CollectiveModel m;
  EXPECT_LT(m.AllGather(MiB(256), 16).nanos(), m.AllReduce(MiB(256), 16).nanos());
}

// Property sweep: time is monotone in payload size and never below launch.
class CollectiveMonotonicity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CollectiveMonotonicity, TimeMonotoneInBytes) {
  const auto [n, kind_idx] = GetParam();
  CollectiveModel m;
  const auto kind = static_cast<CollectiveKind>(kind_idx);
  Duration prev = Duration::Zero();
  for (Bytes b : {Bytes{4}, KiB(1), MiB(1), MiB(64), GiB(1)}) {
    const Duration t = m.Time(kind, b, n);
    EXPECT_GE(t.nanos(), prev.nanos()) << "n=" << n << " bytes=" << b;
    EXPECT_GE(t.nanos(), m.params().launch_overhead.nanos());
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollectiveMonotonicity,
    ::testing::Combine(::testing::Values(1, 2, 8, 64, 512, 2048),
                       ::testing::Values(0, 1, 2, 3)));

// ------------------------------------------------------------------- DCN --

TEST(DcnTest, CrossHostLatency) {
  sim::Simulator sim;
  DcnParams params;
  params.latency = Duration::Micros(20);
  params.nic_bandwidth = 10e9;
  params.per_message_header = 0;
  DcnFabric dcn(&sim, params);
  dcn.AddHost(HostId(0));
  dcn.AddHost(HostId(1));
  double arrival = 0;
  dcn.Send(HostId(0), HostId(1), 10000, [&] { arrival = sim.now().ToMicros(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(arrival, 21.0);  // 1us serialization + 20us latency
}

TEST(DcnTest, LoopbackIsCheap) {
  sim::Simulator sim;
  DcnFabric dcn(&sim, DcnParams{});
  dcn.AddHost(HostId(0));
  double arrival = 0;
  dcn.Send(HostId(0), HostId(0), 1 << 20, [&] { arrival = sim.now().ToMicros(); });
  sim.Run();
  EXPECT_LT(arrival, 5.0);
}

TEST(DcnTest, NicEgressSerializesPerHost) {
  sim::Simulator sim;
  DcnParams params;
  params.latency = Duration::Micros(10);
  params.nic_bandwidth = 1e9;
  params.per_message_header = 0;
  DcnFabric dcn(&sim, params);
  for (int h = 0; h < 3; ++h) dcn.AddHost(HostId(h));
  std::vector<double> arrivals;
  // Two messages from host 0 contend on its NIC; one from host 1 does not.
  dcn.Send(HostId(0), HostId(2), 10000, [&] { arrivals.push_back(sim.now().ToMicros()); });
  dcn.Send(HostId(0), HostId(2), 10000, [&] { arrivals.push_back(sim.now().ToMicros()); });
  dcn.Send(HostId(1), HostId(2), 10000, [&] { arrivals.push_back(sim.now().ToMicros()); });
  sim.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_DOUBLE_EQ(arrivals[0], 20.0);  // host0 msg1: 10us ser + 10us lat
  EXPECT_DOUBLE_EQ(arrivals[1], 20.0);  // host1 msg: parallel NIC
  EXPECT_DOUBLE_EQ(arrivals[2], 30.0);  // host0 msg2 queued behind msg1
}

TEST(DcnTest, MessageAndByteStats) {
  sim::Simulator sim;
  DcnFabric dcn(&sim, DcnParams{});
  dcn.AddHost(HostId(0));
  dcn.AddHost(HostId(1));
  dcn.Send(HostId(0), HostId(1), 100, [] {});
  dcn.Send(HostId(1), HostId(0), 200, [] {});
  sim.Run();
  EXPECT_EQ(dcn.messages_sent(), 2);
  EXPECT_EQ(dcn.bytes_sent(), 300);
}

TEST(DcnFabricTest, HeldTrafficCountsAtSubmissionNotAtHeal) {
  // Partition-held messages are *offered* load: they must appear in
  // messages_sent()/bytes_sent() the moment Send() accepts them, or fault
  // telemetry sampled inside the outage window under-reports throughput and
  // the heal-time replay shows up as a phantom burst. held_bytes() exposes
  // the in-limbo amount separately.
  sim::Simulator sim;
  DcnFabric dcn(&sim, DcnParams{});
  dcn.AddHost(HostId(0));
  dcn.AddHost(HostId(1));
  dcn.SetPartitioned(HostId(1), true);
  int delivered = 0;
  dcn.Send(HostId(0), HostId(1), 1000, [&] { ++delivered; });
  dcn.Send(HostId(0), HostId(1), 500, [&] { ++delivered; });
  EXPECT_EQ(dcn.messages_sent(), 2);  // counted at submission
  EXPECT_EQ(dcn.bytes_sent(), 1500);
  EXPECT_EQ(dcn.messages_held(), 2u);
  EXPECT_EQ(dcn.held_bytes(), 1500);
  sim.Run();
  EXPECT_EQ(delivered, 0);  // still partitioned
  dcn.SetPartitioned(HostId(1), false);
  sim.Run();
  EXPECT_EQ(delivered, 2);
  // The heal-time replay must not double-count.
  EXPECT_EQ(dcn.messages_sent(), 2);
  EXPECT_EQ(dcn.bytes_sent(), 1500);
  EXPECT_EQ(dcn.messages_held(), 0u);
  EXPECT_EQ(dcn.held_bytes(), 0);
}

TEST(DcnFabricTest, ReplayThroughSecondPartitionStaysCountedOnce) {
  // A message healed out of one hold queue but re-held on the other
  // endpoint's queue is still the same offered message: counters must not
  // move on either transition.
  sim::Simulator sim;
  DcnFabric dcn(&sim, DcnParams{});
  for (int h = 0; h < 2; ++h) dcn.AddHost(HostId(h));
  dcn.SetPartitioned(HostId(0), true);
  dcn.SetPartitioned(HostId(1), true);
  int delivered = 0;
  dcn.Send(HostId(0), HostId(1), 256, [&] { ++delivered; });
  EXPECT_EQ(dcn.messages_sent(), 1);
  EXPECT_EQ(dcn.held_bytes(), 256);
  dcn.SetPartitioned(HostId(0), false);  // moves to host 1's hold queue
  EXPECT_EQ(dcn.messages_sent(), 1);
  EXPECT_EQ(dcn.messages_held(), 1u);
  EXPECT_EQ(dcn.held_bytes(), 256);
  dcn.SetPartitioned(HostId(1), false);
  sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(dcn.messages_sent(), 1);
  EXPECT_EQ(dcn.bytes_sent(), 256);
}

TEST(DcnFabricTest, DualPartitionReplayPreservesSendOrder) {
  // Regression for the dual-partition FIFO bug: message A (src1 -> dst, both
  // endpoints down) waits on src1's queue; message B (src2 -> dst, only dst
  // down) waits on dst's queue. Healing src1 re-routes A, which is re-held
  // on dst's queue — and must sort *ahead* of the later-submitted B, not be
  // appended behind it. Pre-fix, A was pushed to the back and delivered
  // after B, violating the documented "replayed in original send order"
  // contract.
  sim::Simulator sim;
  DcnParams params;
  params.per_message_header = 0;
  DcnFabric dcn(&sim, params);
  for (int h = 0; h < 3; ++h) dcn.AddHost(HostId(h));
  const HostId src1(0), src2(1), dst(2);

  dcn.SetPartitioned(src1, true);
  dcn.SetPartitioned(dst, true);
  std::vector<char> deliveries;
  // t0: A, blocked on both endpoints (held on src1's queue).
  dcn.Send(src1, dst, 1000, [&] { deliveries.push_back('A'); });
  // t1: B, blocked on dst only. Equal size, so NIC timing can't mask an
  // ordering violation.
  sim.RunFor(Duration::Micros(10));
  dcn.Send(src2, dst, 1000, [&] { deliveries.push_back('B'); });

  // Heal src1 first: A moves to dst's hold queue, where B already waits.
  dcn.SetPartitioned(src1, false);
  EXPECT_EQ(dcn.messages_held(), 2u);
  dcn.SetPartitioned(dst, false);
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 'A') << "older message must replay first";
  EXPECT_EQ(deliveries[1], 'B');
}

// ------------------------------------------------- Partition/degrade fuzz --

// Property: under any schedule of partitions and NIC degrades, every
// (src, dst) pair's messages deliver exactly once, in submission order.
// Runs against both the abstract per-NIC fabric and the flow-level Clos;
// messages share one size so fair-share completion ties cannot mask an
// ordering violation (a flow fabric may legitimately reorder different-size
// messages of one pair — smaller flows drain first — but never equal ones).
void RunPartitionDegradeFuzz(std::uint64_t seed, bool clos_mode) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed << " clos=" << clos_mode);
  sim::Simulator sim;
  DcnParams params;
  params.nic_bandwidth = 1e9;
  if (clos_mode) {
    params.clos.enabled = true;
    params.clos.hosts_per_leaf = 2;  // 4 hosts => 2 leaves, cross-leaf paths
    params.clos.num_spines = 2;
    params.clos.oversubscription = 2.0;
  }
  DcnFabric dcn(&sim, params);
  constexpr int kHosts = 4;
  for (int h = 0; h < kHosts; ++h) dcn.AddHost(HostId(h));

  Rng rng(seed);
  std::map<std::pair<int, int>, int> submitted;  // per-pair next sequence
  std::map<std::pair<int, int>, std::vector<int>> delivered;
  int total_sent = 0;
  constexpr std::int64_t kHorizonNs = 5'000'000;
  for (int op = 0; op < 120; ++op) {
    const auto at = TimePoint::FromNanos(
        static_cast<std::int64_t>(rng.NextBounded(kHorizonNs)));
    const int kind = static_cast<int>(rng.NextBounded(4));
    const int a = static_cast<int>(rng.NextBounded(kHosts));
    const int b = static_cast<int>(rng.NextBounded(kHosts));
    if (kind <= 1) {
      sim.ScheduleAt(at, [&, a, b] {
        const int seq = submitted[{a, b}]++;
        ++total_sent;
        dcn.Send(HostId(a), HostId(b), 1000,
                 [&, a, b, seq] { delivered[{a, b}].push_back(seq); });
      });
    } else if (kind == 2) {
      const bool on = rng.NextBounded(2) == 0;
      sim.ScheduleAt(at, [&, a, on] { dcn.SetPartitioned(HostId(a), on); });
    } else {
      const double scale = 0.25 + 0.25 * static_cast<double>(rng.NextBounded(4));
      sim.ScheduleAt(at, [&, a, scale] {
        dcn.SetNicBandwidthScale(HostId(a), scale);
      });
    }
  }
  // Heal everything after the horizon so every held message gets delivered.
  sim.ScheduleAt(TimePoint::FromNanos(kHorizonNs + 1), [&] {
    for (int h = 0; h < kHosts; ++h) {
      dcn.SetPartitioned(HostId(h), false);
      dcn.SetNicBandwidthScale(HostId(h), 1.0);
    }
  });
  sim.Run();

  EXPECT_EQ(dcn.messages_held(), 0u);
  int total_delivered = 0;
  for (const auto& [pair, seqs] : delivered) {
    total_delivered += static_cast<int>(seqs.size());
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      EXPECT_EQ(seqs[i], static_cast<int>(i))
          << "pair (" << pair.first << "," << pair.second
          << ") delivered out of submission order";
    }
    auto it = submitted.find(pair);
    ASSERT_NE(it, submitted.end());
    EXPECT_EQ(static_cast<int>(seqs.size()), it->second)
        << "lost or duplicated messages for pair (" << pair.first << ","
        << pair.second << ")";
  }
  EXPECT_EQ(total_delivered, total_sent);
}

TEST(DcnFabricFuzzTest, OrderedExactlyOnceUnderPartitionsAbstract) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RunPartitionDegradeFuzz(seed, /*clos_mode=*/false);
  }
}

TEST(DcnFabricFuzzTest, OrderedExactlyOnceUnderPartitionsClos) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RunPartitionDegradeFuzz(seed, /*clos_mode=*/true);
  }
}

}  // namespace
}  // namespace pw::net
