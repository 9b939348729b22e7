// Tests for the flow-simulation stack: the hierarchical timer wheel (firing
// order, cancellation, cascades — property-tested against EventQueue, the
// executable spec), the LinkDir typed direction API, exclusive stopS flow
// semantics, and FlowSimulator itself (bit-for-bit equivalence with the
// legacy FlowGenerator + ForwardingEngine stack, analytic zero-load and
// M/D/1 pins, serial==parallel city-flow determinism).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/net/flow_generator.hpp>
#include <openspace/net/forwarding.hpp>
#include <openspace/net/link_dir.hpp>
#include <openspace/net/scheduler.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/sim/flow_sim.hpp>
#include <openspace/sim/flow_sweep.hpp>
#include <openspace/topology/builder.hpp>
#include <openspace/topology/delta.hpp>
#include <openspace/topology/reference_snapshot.hpp>

namespace openspace {
namespace {

struct Tag {
  int v = 0;
};

// --- timer wheel ----------------------------------------------------------

TEST(TimerWheel, FiresInTimeOrder) {
  TimerWheel<Tag> w;
  std::vector<int> order;
  w.schedule(3.0, Tag{3});
  w.schedule(1.0, Tag{1});
  w.schedule(2.0, Tag{2});
  EXPECT_EQ(w.runAll([&](double, const Tag& t) { order.push_back(t.v); }), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(w.now(), 3.0);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, FifoTieBreakAtSameTime) {
  TimerWheel<Tag> w;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) w.schedule(1.0, Tag{i});
  w.runAll([&](double, const Tag& t) { order.push_back(t.v); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerWheel, OrdersByExactTimestampWithinOneTick) {
  // Tick = 1 s, all events inside tick 0: the due buffer must order by the
  // exact double timestamp, not by insertion or bucketing.
  TimerWheel<Tag> w(1.0);
  std::vector<int> order;
  w.schedule(0.3, Tag{3});
  w.schedule(0.1, Tag{1});
  w.schedule(0.2, Tag{2});
  w.runAll([&](double, const Tag& t) { order.push_back(t.v); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, FarFutureEventsCascadeAcrossLevels) {
  // With a 1 µs tick these spread over every wheel level (1e7 s ~ 2^43
  // ticks) and must still fire in global time order.
  TimerWheel<Tag> w(1e-6);
  const std::vector<double> times = {1e7, 3.0,  1e-5, 4000.0, 0.5,
                                     1e6, 60.0, 1e-3, 86400.0};
  for (std::size_t i = 0; i < times.size(); ++i) {
    w.schedule(times[i], Tag{static_cast<int>(i)});
  }
  std::vector<double> fired;
  w.runAll([&](double tS, const Tag&) { fired.push_back(tS); });
  std::vector<double> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(fired, sorted);
}

TEST(TimerWheel, EventsCanScheduleEvents) {
  TimerWheel<Tag> w;
  int chain = 0;
  const std::size_t n = w.runAll([&](double tS, const Tag&) {
    if (++chain < 5) w.schedule(tS + 1.0, Tag{});
  });
  EXPECT_EQ(n, 0u);  // nothing scheduled yet
  w.schedule(0.0, Tag{});
  w.runAll([&](double tS, const Tag&) {
    if (++chain < 6) w.schedule(tS + 1.0, Tag{});
  });
  EXPECT_EQ(chain, 6);
  EXPECT_DOUBLE_EQ(w.now(), 5.0);
}

TEST(TimerWheel, PastSchedulingThrows) {
  TimerWheel<Tag> w;
  w.schedule(5.0, Tag{});
  w.runAll([](double, const Tag&) {});
  EXPECT_THROW(w.schedule(1.0, Tag{}), InvalidArgumentError);
  w.schedule(5.0, Tag{});  // exactly now() is allowed
}

TEST(TimerWheel, RunUntilBoundsTimeAndResumes) {
  TimerWheel<Tag> w;
  int fired = 0;
  w.schedule(1.0, Tag{});
  w.schedule(5.0, Tag{});
  auto count = [&](double, const Tag&) { ++fired; };
  EXPECT_EQ(w.run(2.0, count), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(w.now(), 2.0);
  EXPECT_EQ(w.pending(), 1u);
  w.schedule(3.0, Tag{});  // between now and the parked event
  w.runAll(count);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(w.now(), 5.0);
}

TEST(TimerWheel, CancelSemantics) {
  TimerWheel<Tag> w;
  const TimerEventId a = w.schedule(1.0, Tag{1});
  const TimerEventId b = w.schedule(2.0, Tag{2});
  EXPECT_TRUE(w.cancel(b));
  EXPECT_FALSE(w.cancel(b));           // double cancel
  EXPECT_FALSE(w.cancel(TimerEventId{}));  // unset handle
  std::vector<int> order;
  w.runAll([&](double, const Tag& t) { order.push_back(t.v); });
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_FALSE(w.cancel(a));  // already fired
}

TEST(TimerWheel, StaleHandleAfterRecycleIsRejected) {
  TimerWheel<Tag> w;
  const TimerEventId a = w.schedule(1.0, Tag{1});
  w.runAll([](double, const Tag&) {});
  // The fired record's slab slot is recycled by this schedule; the old
  // handle's generation no longer matches.
  w.schedule(2.0, Tag{2});
  EXPECT_FALSE(w.cancel(a));
  int fired = 0;
  w.runAll([&](double, const Tag&) { ++fired; });
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, HandlerCanCancelPendingEvent) {
  TimerWheel<Tag> w;
  TimerEventId victim = w.schedule(2.0, Tag{2});
  w.schedule(1.0, Tag{1});
  std::vector<int> order;
  w.runAll([&](double, const Tag& t) {
    order.push_back(t.v);
    if (t.v == 1) EXPECT_TRUE(w.cancel(victim));
  });
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, NaNTimeThrows) {
  TimerWheel<Tag> w;
  EXPECT_THROW(w.schedule(std::numeric_limits<double>::quiet_NaN(), Tag{1}),
               InvalidArgumentError);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, RejectsNonPositiveTick) {
  EXPECT_THROW(TimerWheel<Tag>(0.0), InvalidArgumentError);
  EXPECT_THROW(TimerWheel<Tag>(-1.0), InvalidArgumentError);
}

// The property test: the wheel's firing order must equal the legacy
// EventQueue's on an identical randomized workload — duplicate timestamps
// (FIFO ties), pre-run cancellations, and events scheduled from handlers.
TEST(TimerWheel, MatchesEventQueueOrderOnRandomWorkload) {
  constexpr int kEvents = 3000;
  Rng rng(2024);
  std::vector<double> times(kEvents);
  std::vector<bool> cancelled(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    // Quantize to 1 ms so many events collide exactly (tie-break coverage).
    times[i] = std::floor(rng.uniform(0.0, 10.0) * 1000.0) / 1000.0;
    cancelled[i] = (i % 7) == 3;
  }
  // A fired base event with id % 3 == 1 schedules one child; the child id
  // and delay are pure functions of the parent so both systems agree.
  const auto childDelay = [](int id) { return 0.25 + 0.125 * (id % 5); };

  std::vector<std::pair<double, int>> legacy;
  {
    EventQueue q;
    std::vector<EventId> ids(kEvents);
    std::function<void(int, double)> onFire = [&](int id, double tS) {
      legacy.emplace_back(tS, id);
      if (id < kEvents && id % 3 == 1) {
        const int child = id + 1'000'000;
        q.schedule(tS + childDelay(id), [&, child, tS, id] {
          onFire(child, tS + childDelay(id));
        });
      }
    };
    for (int i = 0; i < kEvents; ++i) {
      ids[static_cast<std::size_t>(i)] =
          q.schedule(times[static_cast<std::size_t>(i)],
                     [&, i] { onFire(i, q.now()); });
    }
    for (int i = 0; i < kEvents; ++i) {
      if (cancelled[static_cast<std::size_t>(i)]) {
        EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
      }
    }
    q.runAll();
  }

  std::vector<std::pair<double, int>> wheel;
  {
    TimerWheel<Tag> w(1e-4);  // several events per tick on average
    std::vector<TimerEventId> ids(kEvents);
    for (int i = 0; i < kEvents; ++i) {
      ids[static_cast<std::size_t>(i)] =
          w.schedule(times[static_cast<std::size_t>(i)], Tag{i});
    }
    for (int i = 0; i < kEvents; ++i) {
      if (cancelled[static_cast<std::size_t>(i)]) {
        EXPECT_TRUE(w.cancel(ids[static_cast<std::size_t>(i)]));
      }
    }
    w.runAll([&](double tS, const Tag& t) {
      wheel.emplace_back(tS, t.v);
      if (t.v < kEvents && t.v % 3 == 1) {
        w.schedule(tS + childDelay(t.v), Tag{t.v + 1'000'000});
      }
    });
  }

  ASSERT_EQ(legacy.size(), wheel.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i], wheel[i]) << "diverged at event " << i;
  }
}

// --- event queue cancellation ---------------------------------------------

TEST(EventQueueCancel, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(1.0, [&] { ++fired; });
  const EventId b = q.schedule(2.0, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(b));
  EXPECT_FALSE(q.cancel(b));
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.runAll(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.cancel(a));  // already fired
}

TEST(EventQueueCancel, CancelledHeadDoesNotStallRun) {
  EventQueue q;
  std::vector<int> order;
  const EventId head = q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.cancel(head);
  EXPECT_FALSE(q.empty());
  q.runAll();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_TRUE(q.empty());
}

// --- typed link directions -------------------------------------------------

TEST(LinkDirApi, DirectionFromEndpoints) {
  Link l;
  l.id = LinkId{9};
  l.a = NodeId{1};
  l.b = NodeId{2};
  EXPECT_EQ(directionFrom(l, NodeId{1}), LinkDir::AtoB);
  EXPECT_EQ(directionFrom(l, NodeId{2}), LinkDir::BtoA);
  EXPECT_THROW((void)directionFrom(l, NodeId{3}), InvalidArgumentError);
  EXPECT_EQ(reverse(LinkDir::AtoB), LinkDir::BtoA);
  EXPECT_EQ(reverse(LinkDir::BtoA), LinkDir::AtoB);

  const DirectedLinkId fwd = directedFrom(l, NodeId{1});
  const DirectedLinkId rev = fwd.reversed();
  EXPECT_EQ(fwd.link, LinkId{9u});
  EXPECT_EQ(fwd.dir, LinkDir::AtoB);
  EXPECT_EQ(rev.dir, LinkDir::BtoA);
  EXPECT_NE(fwd, rev);
  EXPECT_EQ(rev.reversed(), fwd);
  EXPECT_NE(fwd.key(), rev.key());
  EXPECT_NE(std::hash<DirectedLinkId>{}(fwd), std::hash<DirectedLinkId>{}(rev));
}

// --- shared fixture: the 3-node line graph ---------------------------------

/// src --(1 Mbps)--> mid --(100 Mbps)--> dst, 1000 km per hop.
class FlowSimLine : public ::testing::Test {
 protected:
  FlowSimLine() {
    for (NodeId::rep_type idValue = 1; idValue <= 3; ++idValue) {
      Node n;
      n.id = NodeId{idValue};
      n.kind = NodeKind::Satellite;
      n.provider = ProviderId{1};
      n.name = "n" + std::to_string(idValue);
      n.satellite = SatelliteId{idValue};
      g_.addNode(std::move(n));
    }
    addLink(NodeId{1}, NodeId{2}, 1e6);
    addLink(NodeId{2}, NodeId{3}, 100e6);
    route_ = RouteEngine(g_, latencyCost()).shortestPath(NodeId{1}, NodeId{3});
    graph_ = std::make_shared<const CompactGraph>(
        compileGraph(g_, latencyCost()));
  }

  void addLink(NodeId a, NodeId b, double cap) {
    Link l;
    l.a = a;
    l.b = b;
    l.distanceM = 1000e3;
    l.propagationDelayS = l.distanceM / kSpeedOfLightMps;
    l.capacityBps = cap;
    g_.addLink(l);
  }

  FlowSpec mkFlow(double rateBps, double stopS, double startS = 0.0) {
    FlowSpec f;
    f.src = NodeId{1};
    f.dst = NodeId{3};
    f.rateBps = rateBps;
    f.packetBits = 12'000.0;
    f.startS = startS;
    f.stopS = stopS;
    return f;
  }

  NetworkGraph g_;
  Route route_;
  std::shared_ptr<const CompactGraph> graph_;
};

// --- stopS exclusive-bound semantics (generator and simulator) -------------

TEST_F(FlowSimLine, GeneratorStopAtExactEmissionTimeExcludesIt) {
  // Capture the first would-be emission time, then rerun with stopS set to
  // exactly that time: the bound is exclusive, so nothing may be emitted.
  double firstT = -1.0;
  {
    EventQueue ev;
    Rng rng(77);
    FlowGenerator gen(ev, rng, [&](const Packet& p) {
      if (firstT < 0.0) firstT = p.createdAtS;
    });
    gen.addFlow(mkFlow(1e5, 50.0));
    ev.runAll();
    ASSERT_GT(firstT, 0.0);
  }
  EventQueue ev;
  Rng rng(77);  // same seed: same first draw
  std::size_t count = 0;
  FlowGenerator gen(ev, rng, [&](const Packet&) { ++count; });
  gen.addFlow(mkFlow(1e5, firstT));
  ev.runAll();
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(gen.packetsEmitted(), 0u);
}

TEST_F(FlowSimLine, SimulatorStopSemanticsMatchGenerator) {
  // stopS == startS: registered, but no packets and no RNG draw.
  {
    FlowSimulator sim(graph_, FlowSimConfig{}.withSeed(77));
    sim.addFlow(mkFlow(1e5, 2.0, 2.0), route_);
    const FlowSimReport rep = sim.run();
    EXPECT_EQ(rep.packetsOffered, 0u);
    ASSERT_EQ(rep.flows.size(), 1u);
    EXPECT_EQ(rep.flows[0].offered, 0u);
  }
  // stopS exactly at the first arrival time: excluded.
  double firstT = -1.0;
  {
    FlowSimulator sim(graph_, FlowSimConfig{}.withSeed(77));
    sim.addFlow(mkFlow(1e5, 50.0), route_);
    sim.onComplete([&](const DeliveryRecord& rec) {
      if (firstT < 0.0) firstT = rec.packet.createdAtS;
    });
    sim.run();
    ASSERT_GT(firstT, 0.0);
  }
  FlowSimulator sim(graph_, FlowSimConfig{}.withSeed(77));
  sim.addFlow(mkFlow(1e5, firstT), route_);
  const FlowSimReport rep = sim.run();
  EXPECT_EQ(rep.packetsOffered, 0u);
}

// --- simulator == legacy, bit for bit --------------------------------------

std::vector<DeliveryRecord> runLegacy(const NetworkGraph& g, const Route& route,
                                      const std::vector<FlowSpec>& flows,
                                      std::uint64_t seed, double queueBits) {
  EventQueue ev;
  Rng rng(seed);
  QueueConfig qc;
  qc.maxQueueBits = queueBits;
  ForwardingEngine engine(g, ev, qc);
  std::vector<DeliveryRecord> records;
  engine.onComplete([&](const DeliveryRecord& r) { records.push_back(r); });
  FlowGenerator gen(ev, rng, [&](const Packet& p) {
    // Route by source: NodeId{1} flows ride the line route, everything else
    // is deliberately unroutable (NoRoute parity coverage).
    engine.send(p, p.src == NodeId{1} ? route : Route{});
  });
  for (const FlowSpec& f : flows) gen.addFlow(f);
  ev.runAll();
  return records;
}

void expectRecordsEqual(const std::vector<DeliveryRecord>& legacy,
                        const std::vector<DeliveryRecord>& sim) {
  ASSERT_EQ(legacy.size(), sim.size());
  std::uint64_t hLegacy = kFnvOffsetBasis;
  std::uint64_t hSim = kFnvOffsetBasis;
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    const DeliveryRecord& a = legacy[i];
    const DeliveryRecord& b = sim[i];
    EXPECT_EQ(a.packet.id, b.packet.id) << "record " << i;
    EXPECT_EQ(a.packet.src, b.packet.src) << "record " << i;
    EXPECT_EQ(a.packet.dst, b.packet.dst) << "record " << i;
    EXPECT_EQ(a.packet.sizeBits, b.packet.sizeBits) << "record " << i;
    EXPECT_EQ(a.packet.createdAtS, b.packet.createdAtS) << "record " << i;
    EXPECT_EQ(a.delivered, b.delivered) << "record " << i;
    EXPECT_EQ(a.drop, b.drop) << "record " << i;
    EXPECT_EQ(a.deliveredAtS, b.deliveredAtS) << "record " << i;
    EXPECT_EQ(a.latencyS, b.latencyS) << "record " << i;
    EXPECT_EQ(a.hops, b.hops) << "record " << i;
    hLegacy = mixDeliveryRecord(hLegacy, a);
    hSim = mixDeliveryRecord(hSim, b);
  }
  EXPECT_EQ(hLegacy, hSim);
}

TEST_F(FlowSimLine, MatchesLegacyUnderCongestionDropsAndNoRoute) {
  // Three flows on one RNG stream: a slow-link-saturating flow (queueing +
  // overflow drops against a small buffer), a background flow, and an
  // unroutable flow. Record streams must match bit for bit.
  std::vector<FlowSpec> flows;
  flows.push_back(mkFlow(1.5e6, 2.0));  // 150% of the slow link
  flows.push_back(mkFlow(2e5, 2.0, 0.5));
  FlowSpec lost = mkFlow(1e5, 2.0);
  lost.src = NodeId{2};
  lost.dst = NodeId{3};
  flows.push_back(lost);
  const double kQueueBits = 60'000.0;  // ~5 packets: forces overflow

  const std::vector<DeliveryRecord> legacy =
      runLegacy(g_, route_, flows, 42, kQueueBits);

  FlowSimulator sim(graph_,
                    FlowSimConfig{}.withSeed(42).withQueueBits(kQueueBits));
  std::vector<DeliveryRecord> records;
  sim.onComplete([&](const DeliveryRecord& r) { records.push_back(r); });
  sim.addFlow(flows[0], route_);
  sim.addFlow(flows[1], route_);
  sim.addFlow(flows[2], Route{});  // kNoPath
  const FlowSimReport rep = sim.run();

  expectRecordsEqual(legacy, records);
  // The report aggregates the same stream it checksummed.
  std::size_t drops = 0;
  std::size_t deliveries = 0;
  for (const DeliveryRecord& r : legacy) {
    r.delivered ? ++deliveries : ++drops;
  }
  EXPECT_GT(drops, 0u);      // congestion actually happened
  EXPECT_GT(deliveries, 0u);
  EXPECT_EQ(rep.packetsDelivered, deliveries);
  EXPECT_EQ(rep.packetsDropped, drops);
  EXPECT_EQ(rep.packetsOffered, legacy.size());
}

TEST(FlowSimIridium, MatchesLegacyOnConstellationRoutes) {
  // Same contract at constellation scale: Iridium plus-grid, two gateways,
  // multiple sat->gateway flows hot enough to queue on shared GSLs.
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) {
    eph.publish(ProviderId{1}, el);
  }
  TopologyBuilder topo(eph);
  const NodeId gwA = topo.nodeOf(topo.addGroundStation(
      {"paris", Geodetic::fromDegrees(48.86, 2.35), ProviderId{1}}));
  const NodeId gwB = topo.nodeOf(topo.addGroundStation(
      {"jburg", Geodetic::fromDegrees(-26.20, 28.05), ProviderId{1}}));
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);
  const NetworkGraph g = topo.snapshot(0.0, opt);

  RouteEngine engine(g, latencyCost());
  std::vector<FlowSpec> flows;
  std::vector<Route> routes;
  for (std::uint32_t s = 0; s < 16; ++s) {
    const NodeId src = topo.nodeOf(SatelliteId{s * 4 + 1});
    const NodeId dst = (s % 2 == 0) ? gwA : gwB;
    const Route r = engine.shortestPath(src, dst);
    ASSERT_TRUE(r.valid());
    FlowSpec f;
    f.src = src;
    f.dst = dst;
    f.rateBps = 30e6;  // 16 x 30 Mbps into two gateways: real contention
    f.packetBits = 12'000.0;
    f.stopS = 0.25;
    flows.push_back(f);
    routes.push_back(r);
  }

  std::vector<DeliveryRecord> legacy;
  {
    EventQueue ev;
    Rng rng(7);
    ForwardingEngine fwd(g, ev);
    fwd.onComplete([&](const DeliveryRecord& r) { legacy.push_back(r); });
    FlowGenerator gen(ev, rng, [&](const Packet& p) {
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (flows[i].src == p.src && flows[i].dst == p.dst) {
          fwd.send(p, routes[i]);
          return;
        }
      }
      FAIL() << "packet from unknown flow";
    });
    for (const FlowSpec& f : flows) gen.addFlow(f);
    ev.runAll();
  }

  FlowSimulator sim(engine.sharedGraph(), FlowSimConfig{}.withSeed(7));
  std::vector<DeliveryRecord> records;
  sim.onComplete([&](const DeliveryRecord& r) { records.push_back(r); });
  for (std::size_t i = 0; i < flows.size(); ++i) {
    sim.addFlow(flows[i], routes[i]);
  }
  const FlowSimReport rep = sim.run();

  ASSERT_FALSE(legacy.empty());
  expectRecordsEqual(legacy, records);
  EXPECT_GT(rep.eventsExecuted, legacy.size());  // emits + txdones + arrivals
}

// --- analytic pins ----------------------------------------------------------

TEST_F(FlowSimLine, ZeroLoadLatencyIsPropagationPlusSerialization) {
  // At negligible load the minimum latency is the analytic fig2b value:
  // route propagation delay plus per-hop serialization. Exact to an ulp.
  FlowSimulator sim(graph_, FlowSimConfig{}.withSeed(5).withDuration(100.0));
  sim.addFlow(mkFlow(1e3, 100.0), route_);  // ~1 packet / 12 s
  const FlowSimReport rep = sim.run();
  ASSERT_GT(rep.packetsDelivered, 0u);
  double expected = route_.propagationDelayS;
  for (const LinkId lid : route_.links) {
    expected += 12'000.0 / g_.link(lid).capacityBps;
  }
  EXPECT_NEAR(rep.latency.minS(), expected, 1e-12);
  ASSERT_EQ(rep.flows.size(), 1u);
  EXPECT_NEAR(rep.flows[0].minLatencyS, expected, 1e-12);
}

TEST(FlowSimAnalytic, MD1MeanWaitMatchesClosedForm) {
  // Poisson arrivals into one fixed-capacity link are an M/D/1 queue:
  // mean wait W = rho * D / (2 (1 - rho)). Pin the simulator against the
  // closed form at rho = 0.7.
  NetworkGraph g;
  for (NodeId::rep_type idValue = 1; idValue <= 2; ++idValue) {
    Node n;
    n.id = NodeId{idValue};
    n.kind = NodeKind::Satellite;
    n.provider = ProviderId{1};
    n.name = "m" + std::to_string(idValue);
    n.satellite = SatelliteId{idValue};
    g.addNode(std::move(n));
  }
  Link l;
  l.a = NodeId{1};
  l.b = NodeId{2};
  l.distanceM = 1000e3;
  l.propagationDelayS = l.distanceM / kSpeedOfLightMps;
  l.capacityBps = 1e6;
  g.addLink(l);
  const Route route =
      RouteEngine(g, latencyCost()).shortestPath(NodeId{1}, NodeId{2});

  const double rho = 0.7;
  const double bits = 1'000.0;
  const double horizonS = 200.0;  // ~140k packets
  FlowSpec f;
  f.src = NodeId{1};
  f.dst = NodeId{2};
  f.rateBps = rho * l.capacityBps;
  f.packetBits = bits;
  f.stopS = horizonS;

  auto graph = std::make_shared<const CompactGraph>(
      compileGraph(g, latencyCost()));
  FlowSimulator sim(graph, FlowSimConfig{}
                               .withSeed(13)
                               .withDuration(horizonS)
                               .withQueueBits(1e9));  // no drops
  sim.addFlow(f, route);
  const FlowSimReport rep = sim.run();
  ASSERT_EQ(rep.packetsDropped, 0u);
  ASSERT_GT(rep.packetsDelivered, 100'000u);

  const double serviceD = bits / l.capacityBps;
  const double analyticW = rho * serviceD / (2.0 * (1.0 - rho));
  const double simW = rep.latency.meanS() - serviceD - l.propagationDelayS;
  EXPECT_NEAR(simW, analyticW, 0.08 * analyticW);
}

// --- API contract ------------------------------------------------------------

TEST_F(FlowSimLine, ConfigBuilderAndValidation) {
  const FlowSimConfig cfg = FlowSimConfig{}
                                .withStart(5.0)
                                .withDuration(30.0)
                                .withQueueBits(1e6)
                                .withTick(1e-5)
                                .withSeed(99);
  EXPECT_DOUBLE_EQ(cfg.startS, 5.0);
  EXPECT_DOUBLE_EQ(cfg.durationS, 30.0);
  EXPECT_DOUBLE_EQ(cfg.maxQueueBits, 1e6);
  EXPECT_DOUBLE_EQ(cfg.tickS, 1e-5);
  EXPECT_EQ(cfg.seed, 99u);

  EXPECT_THROW(FlowSimulator(nullptr), InvalidArgumentError);
  EXPECT_THROW(FlowSimulator(graph_, FlowSimConfig{}.withQueueBits(0.0)),
               InvalidArgumentError);
  EXPECT_THROW(FlowSimulator(graph_, FlowSimConfig{}.withTick(0.0)),
               InvalidArgumentError);

  FlowSimulator sim(graph_);
  EXPECT_THROW(sim.addFlow(mkFlow(0.0, 1.0), route_), InvalidArgumentError);
  EXPECT_THROW(sim.addFlow(mkFlow(1e5, 1.0), 7u), InvalidArgumentError);
  FlowSpec wrongDst = mkFlow(1e5, 1.0);
  wrongDst.dst = NodeId{2};  // route_ ends at 3
  const std::uint32_t path = sim.addPath(route_);
  EXPECT_THROW(sim.addFlow(wrongDst, path), InvalidArgumentError);
  EXPECT_THROW(sim.addPath(Route{}), InvalidArgumentError);
  sim.addFlow(mkFlow(1e5, 0.01), path);
  EXPECT_EQ(sim.flowCount(), 1u);
  sim.run();
  EXPECT_THROW(sim.run(), StateError);  // single-shot
}

TEST_F(FlowSimLine, NonFiniteConfigThrows) {
  // A NaN queue limit would disable drop-tail silently, and a zero or NaN
  // duration would make every edgeUtilization read 0.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FlowSimulator(graph_, FlowSimConfig{}.withQueueBits(kNaN)),
               InvalidArgumentError);
  EXPECT_THROW(FlowSimulator(graph_, FlowSimConfig{}.withQueueBits(kInf)),
               InvalidArgumentError);
  EXPECT_THROW(FlowSimulator(graph_, FlowSimConfig{}.withDuration(0.0)),
               InvalidArgumentError);
  EXPECT_THROW(FlowSimulator(graph_, FlowSimConfig{}.withDuration(-1.0)),
               InvalidArgumentError);
  EXPECT_THROW(FlowSimulator(graph_, FlowSimConfig{}.withDuration(kNaN)),
               InvalidArgumentError);
  EXPECT_THROW(FlowSimulator(graph_, FlowSimConfig{}.withDuration(kInf)),
               InvalidArgumentError);
  EXPECT_THROW(FlowSimulator(graph_, FlowSimConfig{}.withStart(kNaN)),
               InvalidArgumentError);
}

TEST_F(FlowSimLine, NonFiniteFlowInputsThrow) {
  // A NaN rate or stop time would keep run() emitting forever.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  FlowSimulator sim(graph_);
  const std::uint32_t path = sim.addPath(route_);
  FlowSpec f = mkFlow(kNaN, 1.0);
  EXPECT_THROW(sim.addFlow(f, path), InvalidArgumentError);
  f = mkFlow(kInf, 1.0);
  EXPECT_THROW(sim.addFlow(f, path), InvalidArgumentError);
  f = mkFlow(1e5, 1.0);
  f.packetBits = kNaN;
  EXPECT_THROW(sim.addFlow(f, path), InvalidArgumentError);
  f.packetBits = kInf;
  EXPECT_THROW(sim.addFlow(f, path), InvalidArgumentError);
  EXPECT_THROW(sim.addFlow(mkFlow(1e5, kNaN), path), InvalidArgumentError);
  EXPECT_THROW(sim.addFlow(mkFlow(1e5, kInf), path), InvalidArgumentError);
  EXPECT_THROW(sim.addFlow(mkFlow(1e5, 1.0, kNaN), path), InvalidArgumentError);
  EXPECT_THROW(sim.addFlow(mkFlow(1e5, 1.0, -kInf), path), InvalidArgumentError);
  EXPECT_EQ(sim.flowCount(), 0u);
}

// --- city flows --------------------------------------------------------------

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(parallelThreadCount()) {}
  ~ThreadCountGuard() { setParallelThreadCount(saved_); }

 private:
  int saved_;
};

class CityFlowsFixture : public ::testing::Test {
 protected:
  CityFlowsFixture() {
    for (const auto& el : makeWalkerStar(iridiumConfig())) {
      eph_.publish(ProviderId{1}, el);
    }
    topo_ = std::make_unique<TopologyBuilder>(eph_);
    gateways_.push_back(topo_->nodeOf(topo_->addGroundStation(
        {"paris", Geodetic::fromDegrees(48.86, 2.35), ProviderId{1}})));
    gateways_.push_back(topo_->nodeOf(topo_->addGroundStation(
        {"denver", Geodetic::fromDegrees(39.74, -104.99), ProviderId{1}})));
    SnapshotOptions opt;
    opt.wiring = IslWiring::PlusGrid;
    opt.planes = 6;
    opt.minElevationRad = deg2rad(10.0);
    g_ = topo_->snapshot(0.0, opt);
    engine_ = std::make_unique<RouteEngine>(g_, latencyCost());
    snapshot_ = std::make_shared<const ConstellationSnapshot>(eph_, 0.0);
    for (const SatelliteId sid : eph_.satellites()) {
      satNodes_.push_back(topo_->nodeOf(sid));
    }
  }

  CityFlowConfig cfg(int users) const {
    CityFlowConfig c;
    c.users = users;
    c.meanRateBps = 64e3;
    c.durationS = 0.25;
    c.minElevationRad = deg2rad(10.0);
    c.seed = 31;
    return c;
  }

  EphemerisService eph_;
  std::unique_ptr<TopologyBuilder> topo_;
  std::vector<NodeId> gateways_;
  NetworkGraph g_;
  std::unique_ptr<RouteEngine> engine_;
  std::shared_ptr<const ConstellationSnapshot> snapshot_;
  std::vector<NodeId> satNodes_;
};

TEST_F(CityFlowsFixture, SerialAndParallelBuildsAreBitIdentical) {
  ThreadCountGuard guard;
  setParallelThreadCount(1);
  const CityFlows serial =
      buildCityFlows(cfg(9000), snapshot_, satNodes_, gateways_, *engine_);
  setParallelThreadCount(4);
  const CityFlows parallel =
      buildCityFlows(cfg(9000), snapshot_, satNodes_, gateways_, *engine_);
  EXPECT_EQ(serial.checksum, parallel.checksum);
  EXPECT_EQ(serial.specs.size(), parallel.specs.size());
  EXPECT_EQ(serial.unservedUsers, parallel.unservedUsers);
  ASSERT_FALSE(serial.specs.empty());
  for (std::size_t i = 0; i < serial.specs.size(); ++i) {
    EXPECT_EQ(serial.specs[i].rateBps, parallel.specs[i].rateBps);
    EXPECT_EQ(serial.specs[i].src, parallel.specs[i].src);
  }
}

TEST_F(CityFlowsFixture, CityTrafficDrivesTheSimulator) {
  const CityFlows flows =
      buildCityFlows(cfg(1500), snapshot_, satNodes_, gateways_, *engine_);
  ASSERT_FALSE(flows.specs.empty());

  FlowSimulator sim(engine_->sharedGraph(),
                    FlowSimConfig{}.withSeed(31).withDuration(0.25));
  // One compiled path per serving satellite, shared by its flows.
  std::vector<std::uint32_t> pathOf(flows.routes.size(),
                                    FlowSimulator::kNoPath);
  for (std::size_t i = 0; i < flows.specs.size(); ++i) {
    const std::uint32_t sat = flows.routeOf[i];
    if (pathOf[sat] == FlowSimulator::kNoPath) {
      pathOf[sat] = sim.addPath(flows.routes[sat]);
    }
    sim.addFlow(flows.specs[i], pathOf[sat]);
  }
  const FlowSimReport rep = sim.run();
  EXPECT_EQ(rep.packetsOffered, rep.packetsDelivered + rep.packetsDropped);
  EXPECT_GT(rep.packetsDelivered, 0u);
  EXPECT_EQ(rep.flows.size(), flows.specs.size());
  EXPECT_EQ(rep.edgeUtilization.size(), engine_->graph().edgeCount());
  double maxUtil = 0.0;
  for (const double u : rep.edgeUtilization) {
    EXPECT_GE(u, 0.0);
    maxUtil = std::max(maxUtil, u);
  }
  EXPECT_GT(maxUtil, 0.0);
  EXPECT_GT(rep.latency.minS(), 0.0);
}

TEST_F(CityFlowsFixture, RejectsBadInputs) {
  EXPECT_THROW(
      buildCityFlows(cfg(100), nullptr, satNodes_, gateways_, *engine_),
      InvalidArgumentError);
  EXPECT_THROW(buildCityFlows(cfg(100), snapshot_, {}, gateways_, *engine_),
               InvalidArgumentError);
  EXPECT_THROW(buildCityFlows(cfg(100), snapshot_, satNodes_, {}, *engine_),
               InvalidArgumentError);
  CityFlowConfig bad = cfg(100);
  bad.meanRateBps = 0.0;
  EXPECT_THROW(buildCityFlows(bad, snapshot_, satNodes_, gateways_, *engine_),
               InvalidArgumentError);
}

// --- multi-snapshot flow sweeps over the delta path -------------------------

/// runFlowSweep's loop rebuilt from the executable specs: each step's graph
/// is a compile of the reference snapshot (spec/topology/), every source
/// gets a fresh Dijkstra tree, and the same FlowSimulator slice runs over
/// the selected routes. Folds the same checksum runFlowSweep does.
FlowSweepReport referenceFlowSweep(const TopologyBuilder& builder,
                                   const SnapshotOptions& opt,
                                   const std::vector<FlowSweepDemand>& demands,
                                   const FlowSweepConfig& cfg) {
  const CompactGraph::CostFn delayCost = delayCostModel().link;
  FlowSweepReport out;
  const double endS = cfg.t0S + cfg.horizonS;
  std::size_t stepIdx = 0;
  for (double t = cfg.t0S; t < endS; t += cfg.stepS, ++stepIdx) {
    const auto graph = std::make_shared<const CompactGraph>(
        compileGraph(referenceSnapshot(builder, t, opt), delayCost));
    const RouteEngine engine(graph);
    FlowSimConfig simCfg = cfg.sim;
    simCfg.startS = t;
    simCfg.durationS = std::min(t + cfg.stepS, endS) - t;
    simCfg.seed = fnv1a(cfg.sim.seed, stepIdx);
    FlowSimulator sim(graph, simCfg);
    for (const FlowSweepDemand& d : demands) {
      const Route r = engine.shortestPathTree(d.src).routeTo(d.dst);
      out.checksum = fnv1a(out.checksum, r.nodes.size());
      for (const NodeId n : r.nodes) out.checksum = fnv1a(out.checksum, n.value());
      if (!r.valid()) continue;
      FlowSpec spec;
      spec.src = d.src;
      spec.dst = d.dst;
      spec.rateBps = d.rateBps;
      spec.packetBits = d.packetBits;
      spec.startS = simCfg.startS;
      spec.stopS = simCfg.startS + simCfg.durationS;
      sim.addFlow(spec, r);
    }
    const FlowSimReport rep = sim.run();
    FlowSweepStep step;
    step.tS = t;
    step.packetsOffered = rep.packetsOffered;
    step.packetsDelivered = rep.packetsDelivered;
    step.packetsDropped = rep.packetsDropped;
    step.recordChecksum = rep.recordChecksum;
    out.checksum = fnv1a(out.checksum, rep.recordChecksum);
    out.packetsOffered += rep.packetsOffered;
    out.packetsDelivered += rep.packetsDelivered;
    out.packetsDropped += rep.packetsDropped;
    out.steps.push_back(step);
  }
  return out;
}

class FlowSweepFixture : public ::testing::Test {
 protected:
  FlowSweepFixture() {
    for (const auto& el : makeWalkerStar(iridiumConfig())) {
      eph_.publish(ProviderId{1}, el);
    }
    topo_ = std::make_unique<TopologyBuilder>(eph_);
    gwA_ = topo_->nodeOf(topo_->addGroundStation(
        {"paris", Geodetic::fromDegrees(48.86, 2.35), ProviderId{1}}));
    gwB_ = topo_->nodeOf(topo_->addGroundStation(
        {"jburg", Geodetic::fromDegrees(-26.20, 28.05), ProviderId{1}}));
    for (std::uint32_t s = 0; s < 8; ++s) {
      FlowSweepDemand d;
      d.src = topo_->nodeOf(SatelliteId{s * 8 + 1});
      d.dst = (s % 2 == 0) ? gwA_ : gwB_;
      d.rateBps = 10e6;
      demands_.push_back(d);
    }
  }
  static SnapshotOptions opts() {
    SnapshotOptions opt;
    opt.wiring = IslWiring::PlusGrid;
    opt.planes = 6;
    opt.minElevationRad = deg2rad(10.0);
    return opt;
  }
  static FlowSweepConfig sweep() {
    FlowSweepConfig cfg;
    cfg.t0S = 0.0;
    cfg.horizonS = 2.0;
    cfg.stepS = 0.5;
    cfg.sim = FlowSimConfig{}.withSeed(11);
    return cfg;
  }
  EphemerisService eph_;
  std::unique_ptr<TopologyBuilder> topo_;
  NodeId gwA_{}, gwB_{};
  std::vector<FlowSweepDemand> demands_;
};

TEST_F(FlowSweepFixture, DeltaAndFreshSweepsAreBitIdentical) {
  const FlowSweepReport delta = runFlowSweep(*topo_, opts(), demands_, sweep());
  const FlowSweepReport fresh =
      referenceFlowSweep(*topo_, opts(), demands_, sweep());
  ASSERT_EQ(delta.steps.size(), 4u);
  ASSERT_EQ(fresh.steps.size(), 4u);
  EXPECT_GT(delta.packetsOffered, 0u);
  EXPECT_GT(delta.packetsDelivered, 0u);
  // The delta path's graphs are bit-identical to reference compiles and
  // repaired trees equal fresh trees, so the whole simulated packet
  // stream matches record-for-record.
  EXPECT_EQ(delta.checksum, fresh.checksum);
  EXPECT_EQ(delta.packetsOffered, fresh.packetsOffered);
  EXPECT_EQ(delta.packetsDelivered, fresh.packetsDelivered);
  EXPECT_EQ(delta.packetsDropped, fresh.packetsDropped);
  for (std::size_t i = 0; i < delta.steps.size(); ++i) {
    EXPECT_EQ(delta.steps[i].recordChecksum, fresh.steps[i].recordChecksum)
        << "step " << i;
  }
  // The delta path compiled step 0 and patched the short-interval
  // follow-ups (link payload drift only).
  EXPECT_GE(delta.structuralSteps, 1u);
  EXPECT_LT(delta.structuralSteps, delta.steps.size());
}

TEST_F(FlowSweepFixture, SweepValidation) {
  FlowSweepConfig bad = sweep();
  bad.stepS = 0.0;
  EXPECT_THROW(runFlowSweep(*topo_, opts(), demands_, bad),
               InvalidArgumentError);
  bad = sweep();
  bad.horizonS = -1.0;
  EXPECT_THROW(runFlowSweep(*topo_, opts(), demands_, bad),
               InvalidArgumentError);
  std::vector<FlowSweepDemand> unset(1);
  EXPECT_THROW(runFlowSweep(*topo_, opts(), unset, sweep()),
               InvalidArgumentError);
  FlowSweepDemand unknown;
  unknown.src = NodeId{999'999};
  unknown.dst = gwA_;
  EXPECT_THROW(runFlowSweep(*topo_, opts(), {unknown},
                            sweep()),
               NotFoundError);
}

}  // namespace
}  // namespace openspace
