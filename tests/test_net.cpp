// Unit tests for the net module: event queue, latency stats, forwarding
// engine (queueing, drops), flow generation.
#include <gtest/gtest.h>

#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/net/flow_generator.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/net/forwarding.hpp>

namespace openspace {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.runAll(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, FifoTieBreakAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&, i] { order.push_back(i); });
  }
  q.runAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilBoundsTime) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(5.0, [&] { ++fired; });
  EXPECT_EQ(q.run(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  q.runAll();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 5) q.scheduleIn(1.0, next);
  };
  q.schedule(0.0, next);
  q.runAll();
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, PastSchedulingThrows) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.runAll();
  EXPECT_THROW(q.schedule(1.0, [] {}), InvalidArgumentError);
}

TEST(LatencyStats, SummaryStatistics) {
  LatencyStats s;
  for (const double v : {0.05, 0.01, 0.03, 0.02, 0.04}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_NEAR(s.meanS(), 0.03, 1e-12);
  EXPECT_DOUBLE_EQ(s.minS(), 0.01);
  EXPECT_DOUBLE_EQ(s.maxS(), 0.05);
  EXPECT_DOUBLE_EQ(s.p50S(), 0.03);
  EXPECT_DOUBLE_EQ(s.percentileS(1.0), 0.05);
  EXPECT_DOUBLE_EQ(s.percentileS(0.0), 0.01);
}

TEST(LatencyStats, LossAccounting) {
  LatencyStats s;
  s.add(0.01);
  s.addLoss();
  s.addLoss();
  EXPECT_EQ(s.losses(), 2u);
  EXPECT_NEAR(s.lossRate(), 2.0 / 3.0, 1e-12);
  LatencyStats empty;
  EXPECT_DOUBLE_EQ(empty.lossRate(), 0.0);
}

TEST(LatencyStats, ErrorsOnEmptyAndBadArgs) {
  LatencyStats s;
  EXPECT_THROW(s.meanS(), NotFoundError);
  EXPECT_THROW(s.p95S(), NotFoundError);
  EXPECT_THROW(s.add(-1.0), InvalidArgumentError);
  s.add(0.5);
  EXPECT_THROW(s.percentileS(1.5), InvalidArgumentError);
}

TEST(LatencyStats, AddAfterPercentileKeepsCorrectOrder) {
  LatencyStats s;
  s.add(0.3);
  EXPECT_DOUBLE_EQ(s.p50S(), 0.3);
  s.add(0.1);  // added after a sorted read
  EXPECT_DOUBLE_EQ(s.minS(), 0.1);
  EXPECT_DOUBLE_EQ(s.maxS(), 0.3);
}

// --- forwarding -------------------------------------------------------------

/// A 3-node line: src --(slow)--> mid --(fast)--> dst.
class LineGraph : public ::testing::Test {
 protected:
  LineGraph() {
    for (NodeId::rep_type idValue = 1; idValue <= 3; ++idValue) {
      const NodeId id{idValue};
      Node n;
      n.id = id;
      n.kind = NodeKind::Satellite;
      n.provider = ProviderId{idValue};
      n.name = "n" + std::to_string(idValue);
      n.satellite = SatelliteId{idValue};
      g_.addNode(std::move(n));
    }
    slow_ = addLink(NodeId{1}, NodeId{2}, 1e6);   // 1 Mbps
    fast_ = addLink(NodeId{2}, NodeId{3}, 100e6); // 100 Mbps
    route_ = RouteEngine(g_, latencyCost()).shortestPath(NodeId{1}, NodeId{3});
  }

  LinkId addLink(NodeId a, NodeId b, double cap) {
    Link l;
    l.a = a;
    l.b = b;
    l.distanceM = 1000e3;
    l.propagationDelayS = l.distanceM / kSpeedOfLightMps;
    l.capacityBps = cap;
    return g_.addLink(l);
  }

  Packet mkPacket(PacketId id, double bits = 12'000.0) {
    Packet p;
    p.id = id;
    p.src = NodeId{1};
    p.dst = NodeId{3};
    p.sizeBits = bits;
    p.createdAtS = 0.0;
    return p;
  }

  NetworkGraph g_;
  LinkId slow_ = {}, fast_ = LinkId{0};
  Route route_;
};

TEST_F(LineGraph, SinglePacketLatencyIsTransmitPlusPropagate) {
  EventQueue ev;
  ForwardingEngine engine(g_, ev);
  engine.send(mkPacket(1), route_);
  ev.runAll();
  ASSERT_EQ(engine.delivered(), 1u);
  const double expected = 12'000.0 / 1e6 + 12'000.0 / 100e6 +
                          2.0 * (1000e3 / kSpeedOfLightMps);
  EXPECT_NEAR(engine.stats().meanS(), expected, 1e-12);
}

TEST_F(LineGraph, BackToBackPacketsQueueOnSlowLink) {
  EventQueue ev;
  ForwardingEngine engine(g_, ev);
  engine.send(mkPacket(1), route_);
  engine.send(mkPacket(2), route_);  // same instant: must wait 12 ms
  ev.runAll();
  ASSERT_EQ(engine.delivered(), 2u);
  EXPECT_NEAR(engine.stats().maxS() - engine.stats().minS(), 0.012, 1e-9);
}

TEST_F(LineGraph, QueueOverflowDropsTail) {
  EventQueue ev;
  QueueConfig cfg;
  cfg.maxQueueBits = 30'000.0;  // room for ~2.5 packets
  ForwardingEngine engine(g_, ev, cfg);
  std::vector<DropReason> drops;
  engine.onComplete([&](const DeliveryRecord& rec) {
    if (!rec.delivered) drops.push_back(rec.drop);
  });
  for (PacketId i = 1; i <= 10; ++i) engine.send(mkPacket(i), route_);
  ev.runAll();
  EXPECT_GT(engine.dropped(), 0u);
  EXPECT_EQ(engine.delivered() + engine.dropped(), 10u);
  for (const DropReason r : drops) EXPECT_EQ(r, DropReason::QueueOverflow);
}

TEST_F(LineGraph, InvalidRouteCountsAsNoRoute) {
  EventQueue ev;
  ForwardingEngine engine(g_, ev);
  DeliveryRecord last;
  engine.onComplete([&](const DeliveryRecord& rec) { last = rec; });
  engine.send(mkPacket(1), Route{});
  EXPECT_EQ(engine.dropped(), 1u);
  EXPECT_EQ(last.drop, DropReason::NoRoute);
}

TEST_F(LineGraph, MismatchedEndpointsThrow) {
  EventQueue ev;
  ForwardingEngine engine(g_, ev);
  Packet p = mkPacket(1);
  p.dst = NodeId{2};  // route goes to 3
  EXPECT_THROW(engine.send(p, route_), InvalidArgumentError);
  Packet bad = mkPacket(2);
  bad.sizeBits = 0.0;
  EXPECT_THROW(engine.send(bad, route_), InvalidArgumentError);
}

TEST_F(LineGraph, CarriedBitsAccumulate) {
  EventQueue ev;
  ForwardingEngine engine(g_, ev);
  engine.send(mkPacket(1), route_);
  engine.send(mkPacket(2), route_);
  ev.runAll();
  EXPECT_DOUBLE_EQ(engine.bitsCarried(slow_), 24'000.0);
  EXPECT_DOUBLE_EQ(engine.bitsCarried(fast_), 24'000.0);
  EXPECT_DOUBLE_EQ(engine.bitsCarried(LinkId{999}), 0.0);
}

TEST_F(LineGraph, BacklogDrainsToZero) {
  EventQueue ev;
  ForwardingEngine engine(g_, ev);
  for (PacketId i = 1; i <= 5; ++i) engine.send(mkPacket(i), route_);
  ev.runAll();
  EXPECT_DOUBLE_EQ(engine.backlogBits(slow_, LinkDir::AtoB), 0.0);
  EXPECT_DOUBLE_EQ(engine.backlogBits(fast_, LinkDir::AtoB), 0.0);
}

TEST_F(LineGraph, ZeroQueueLimitRejected) {
  EventQueue ev;
  QueueConfig cfg;
  cfg.maxQueueBits = 0.0;
  EXPECT_THROW(ForwardingEngine(g_, ev, cfg), InvalidArgumentError);
}

// --- flows -------------------------------------------------------------------

TEST(FlowGenerator, EmitsApproximatelyConfiguredRate) {
  EventQueue ev;
  Rng rng(9);
  std::size_t count = 0;
  FlowGenerator gen(ev, rng, [&](const Packet&) { ++count; });
  FlowSpec flow;
  flow.src = NodeId{1};
  flow.dst = NodeId{2};
  flow.rateBps = 1e6;
  flow.packetBits = 10'000.0;
  flow.startS = 0.0;
  flow.stopS = 10.0;  // expect ~1000 packets
  gen.addFlow(flow);
  ev.runAll();
  EXPECT_EQ(gen.packetsEmitted(), count);
  EXPECT_NEAR(static_cast<double>(count), 1000.0, 120.0);
}

TEST(FlowGenerator, PacketsCarryFlowMetadata) {
  EventQueue ev;
  Rng rng(10);
  std::vector<Packet> seen;
  FlowGenerator gen(ev, rng, [&](const Packet& p) { seen.push_back(p); });
  FlowSpec flow;
  flow.src = NodeId{7};
  flow.dst = NodeId{8};
  flow.rateBps = 1e6;
  flow.packetBits = 12'000.0;
  flow.qos = QosClass::Premium;
  flow.homeProvider = ProviderId{3};
  flow.startS = 1.0;
  flow.stopS = 2.0;
  gen.addFlow(flow);
  ev.runAll();
  ASSERT_FALSE(seen.empty());
  PacketId prev = 0;
  for (const Packet& p : seen) {
    EXPECT_EQ(p.src, NodeId{7u});
    EXPECT_EQ(p.dst, NodeId{8u});
    EXPECT_EQ(p.qos, QosClass::Premium);
    EXPECT_EQ(p.homeProvider, ProviderId{3u});
    EXPECT_GE(p.createdAtS, 1.0);
    EXPECT_LT(p.createdAtS, 2.0);
    EXPECT_GT(p.id, prev);  // ids ascend
    prev = p.id;
  }
}

TEST(FlowGenerator, DegenerateAndInvalidFlows) {
  EventQueue ev;
  Rng rng(11);
  FlowGenerator gen(ev, rng, [](const Packet&) {});
  FlowSpec flow;
  flow.rateBps = 1e6;
  flow.packetBits = 1e4;
  flow.startS = 5.0;
  flow.stopS = 5.0;  // empty interval: no packets, no throw
  gen.addFlow(flow);
  ev.runAll();
  EXPECT_EQ(gen.packetsEmitted(), 0u);
  flow.stopS = 10.0;
  flow.rateBps = 0.0;
  EXPECT_THROW(gen.addFlow(flow), InvalidArgumentError);
  flow.rateBps = 1e6;
  flow.packetBits = 0.0;
  EXPECT_THROW(gen.addFlow(flow), InvalidArgumentError);
  EXPECT_THROW(FlowGenerator(ev, rng, nullptr), InvalidArgumentError);
}

TEST(FlowGenerator, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    EventQueue ev;
    Rng rng(seed);
    std::vector<double> times;
    FlowGenerator gen(ev, rng,
                      [&](const Packet& p) { times.push_back(p.createdAtS); });
    FlowSpec flow;
    flow.rateBps = 1e6;
    flow.packetBits = 1e4;
    flow.stopS = 3.0;
    gen.addFlow(flow);
    ev.runAll();
    return times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace openspace
