// Integration tests: cross-module flows that exercise the whole stack the
// way the paper's architecture intends — discovery + pairing feeding the
// topology, association + handover + routing + forwarding + settlement
// composing into end-to-end service.
#include <gtest/gtest.h>

#include <openspace/geo/units.hpp>
#include <openspace/handover/handover.hpp>
#include <openspace/isl/fleet.hpp>
#include <openspace/net/forwarding.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/routing/ondemand.hpp>
#include <openspace/routing/proactive.hpp>
#include <openspace/sim/scenario.hpp>

namespace openspace {
namespace {

TEST(Integration, FleetDiscoveryMatchesGeometricWiring) {
  // The protocol-level fleet (pairing, power, capacity limits) must produce
  // a link set consistent with pure geometry: every protocol link is also
  // geometrically feasible.
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  IslFleet fleet(eph, FleetConfig{});
  const auto links = fleet.runDiscoveryRound(0.0);
  ASSERT_FALSE(links.empty());
  for (const auto& l : links) {
    const Vec3 pa = eph.positionEci(l.a, 0.0);
    const Vec3 pb = eph.positionEci(l.b, 0.0);
    EXPECT_LE(pa.distanceTo(pb), FleetConfig{}.rfDiscoveryRangeM + 1.0);
    EXPECT_TRUE(lineOfSightClear(pa, pb, FleetConfig{}.losClearanceM));
  }
}

TEST(Integration, EndToEndPacketOverSnapshotRoute) {
  // Build a full scenario, associate the user, route to the home gateway,
  // and push real packets through the forwarding engine over that route.
  ScenarioConfig cfg;
  cfg.providers = {{"alpha", 33, 0.0, 0.08}, {"beta", 33, 0.3, 0.04}};
  cfg.coordinatedWalker = true;
  cfg.stations = {{"gw-a", Geodetic::fromDegrees(47.0, -122.0), 0},
                  {"gw-b", Geodetic::fromDegrees(52.5, 13.4), 1}};
  cfg.users = {{"u", Geodetic::fromDegrees(40.44, -79.99), 0}};
  cfg.seed = 21;
  Scenario s(cfg);

  const AssociationResult assoc = s.associateUser(0, 0.0);
  ASSERT_TRUE(assoc.success) << assoc.failureReason;

  const NetworkGraph g = s.snapshot(0.0);
  const OnDemandRouter router(g, latencyCost());
  const Route r = router.route(s.userNode(0), s.homeGatewayOf(0));
  ASSERT_TRUE(r.valid());

  EventQueue ev;
  ForwardingEngine engine(g, ev);
  for (PacketId i = 1; i <= 50; ++i) {
    Packet p;
    p.id = i;
    p.src = s.userNode(0);
    p.dst = s.homeGatewayOf(0);
    p.createdAtS = ev.now();
    p.homeProvider = s.providerId(0);
    engine.send(p, r);
  }
  ev.runAll();
  EXPECT_EQ(engine.delivered(), 50u);
  // Measured latency is at least the route's propagation delay.
  EXPECT_GE(engine.stats().minS(), r.propagationDelayS - 1e-9);
}

TEST(Integration, HandoverPreservesServiceAndRoutes) {
  // Follow a user across one predictive handover and verify a valid route
  // to its gateway exists through the new serving satellite's snapshot.
  ScenarioConfig cfg;
  cfg.providers = {{"alpha", 66, 0.0, 0.08}};
  cfg.coordinatedWalker = true;
  cfg.stations = {{"gw", Geodetic::fromDegrees(47.0, -122.0), 0}};
  cfg.users = {{"u", Geodetic::fromDegrees(40.44, -79.99), 0}};
  cfg.seed = 31;
  Scenario s(cfg);

  const HandoverPlanner planner(s.ephemeris(), cfg.minElevationRad);
  const Geodetic userLoc = cfg.users[0].location;
  const auto serving = planner.bestSatelliteAt(userLoc, 0.0);
  ASSERT_TRUE(serving.has_value());
  const HandoverPlan plan = planner.plan(*serving, userLoc, 0.0);
  ASSERT_TRUE(plan.found);

  // After the switch, the successor still routes to the gateway.
  const double after = plan.serviceEndsAtS + 0.1;
  const NetworkGraph g = s.snapshot(after);
  const NodeId succNode = s.topology().nodeOf(plan.successor);
  const Route r =
      RouteEngine(g, latencyCost()).shortestPath(succNode, s.stationNode(0));
  EXPECT_TRUE(r.valid());
}

TEST(Integration, SettlementMatchesForwardedBytes) {
  // Whatever the forwarding engine delivers must equal what the ledgers
  // record, byte for byte.
  ScenarioConfig cfg;
  cfg.providers = {{"alpha", 22, 0.0, 0.10}, {"beta", 22, 0.0, 0.10},
                   {"gamma", 22, 0.0, 0.10}};
  cfg.coordinatedWalker = true;
  cfg.stations = {{"gw-a", Geodetic::fromDegrees(47.0, -122.0), 0},
                  {"gw-b", Geodetic::fromDegrees(1.35, 103.82), 1},
                  {"gw-c", Geodetic::fromDegrees(-1.29, 36.82), 2}};
  cfg.users = {{"u-a", Geodetic::fromDegrees(40.44, -79.99), 0},
               {"u-b", Geodetic::fromDegrees(-33.87, 151.21), 1}};
  cfg.seed = 41;
  Scenario s(cfg);
  const TrafficReport rep = s.runTrafficEpoch(0.0, 2.0, 2e6);
  ASSERT_GT(rep.packetsDelivered, 0u);
  EXPECT_TRUE(rep.ledgersCrossVerified);
  // Total settled bytes <= delivered bytes * max path hops (each hop can
  // bill once); and settlement amounts are consistent with tariffs.
  for (const auto& item : rep.settlement) {
    EXPECT_GT(item.bytes, 0.0);
    const double rate =
        s.settlement().tariffUsdPerGb(item.payee, item.payer);
    EXPECT_NEAR(item.amountUsd, item.bytes / 1e9 * rate, 1e-9);
  }
}

TEST(Integration, CongestionShiftsTrafficToIdleGateway) {
  // §5(2) end to end: saturate the near gateway's GSLs with real traffic,
  // refresh queueing state from the forwarding engine's counters, and show
  // the on-demand router detours while the clean-graph route does not.
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  const NodeId user =
      topo.addUser({"u", Geodetic::fromDegrees(-1.29, 36.82), ProviderId{1}});
  const NodeId nearGs = topo.nodeOf(topo.addGroundStation(
      {"near", Geodetic::fromDegrees(-4.04, 39.67), ProviderId{2}}));
  const NodeId farGs = topo.nodeOf(topo.addGroundStation(
      {"far", Geodetic::fromDegrees(-26.20, 28.05), ProviderId{3}}));
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);
  NetworkGraph g = topo.snapshot(0.0, opt);

  const OnDemandRouter cleanRouter(g, latencyCost());
  const Route before = cleanRouter.selectGroundStation(user);
  ASSERT_TRUE(before.valid());
  ASSERT_EQ(before.nodes.back(), nearGs);  // nearby gateway wins when idle

  // Saturate every GSL into the near gateway.
  for (const LinkId lid : g.links()) {
    Link& l = g.link(lid);
    if (l.type == LinkType::Gsl && (l.a == nearGs || l.b == nearGs)) {
      l.queueingDelayS = estimateQueueingDelayS(0.999, l.capacityBps);
    }
  }
  const OnDemandRouter congestedRouter(g, latencyCost());
  const Route after = congestedRouter.selectGroundStation(user);
  ASSERT_TRUE(after.valid());
  EXPECT_EQ(after.nodes.back(), farGs);
  EXPECT_LT(after.totalDelayS(),
            before.totalDelayS() + 2.0);  // detour beats the saturated queue
}

TEST(Integration, ProactiveAndOnDemandAgreeOnQuietNetwork) {
  // With zero congestion the precomputed route and the live route coincide
  // (same cost function, same topology).
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  const NodeId user =
      topo.addUser({"u", Geodetic::fromDegrees(40.44, -79.99), ProviderId{1}});
  const NodeId gs =
      topo.nodeOf(topo.addGroundStation({"gw", Geodetic::fromDegrees(48.86, 2.35), ProviderId{2}}));
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);

  const ProactiveRouter proactive(topo, opt, 0.0, 600.0, 60.0);
  const NetworkGraph live = topo.snapshot(120.0, opt);
  const OnDemandRouter onDemand(live, latencyCost());

  const Route pre = proactive.route(user, gs, 120.0);
  const Route now = onDemand.route(user, gs);
  ASSERT_TRUE(pre.valid());
  ASSERT_TRUE(now.valid());
  EXPECT_EQ(pre.nodes, now.nodes);
  EXPECT_NEAR(pre.cost, now.cost, 1e-12);
}

TEST(Integration, MultiProviderPathCrossesOwnershipDomains) {
  // The OpenSpace premise: packets traverse satellites owned by different
  // firms "several times prior to being received on the ground".
  ScenarioConfig cfg;
  cfg.providers = {{"a", 16, 0.0, 0.1}, {"b", 17, 0.0, 0.1},
                   {"c", 16, 0.0, 0.1}, {"d", 17, 0.0, 0.1}};
  cfg.coordinatedWalker = true;
  cfg.stations = {{"gw", Geodetic::fromDegrees(48.86, 2.35), 0}};
  cfg.users = {{"u", Geodetic::fromDegrees(-33.87, 151.21), 0}};
  cfg.seed = 51;
  Scenario s(cfg);
  const NetworkGraph g = s.snapshot(0.0);
  const Route r = RouteEngine(g, latencyCost())
                      .shortestPath(s.userNode(0), s.stationNode(0));
  ASSERT_TRUE(r.valid());
  std::set<ProviderId> owners;
  for (const NodeId n : r.nodes) owners.insert(g.node(n).provider);
  // Sydney -> Paris over interleaved 4-provider planes crosses domains.
  EXPECT_GE(owners.size(), 2u);
}

}  // namespace
}  // namespace openspace
