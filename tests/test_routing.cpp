// Unit tests for the routing module: cost models, the RouteEngine's point,
// tree and Yen queries and their error contract, proactive tables,
// congestion-aware on-demand routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/routing/ondemand.hpp>
#include <openspace/routing/proactive.hpp>

namespace openspace {
namespace {

/// A hand-built diamond topology:
///        2
///   1 <     > 4 --- 5(gs)
///        3
/// Top path (via 2) is shorter; bottom path (via 3) has more capacity.
class DiamondGraph : public ::testing::Test {
 protected:
  DiamondGraph() {
    for (NodeId::rep_type idValue = 1; idValue <= 4; ++idValue) {
      const NodeId id{idValue};
      Node n;
      n.id = id;
      n.kind = NodeKind::Satellite;
      n.provider = ProviderId{(idValue % 2 == 0) ? 20u : 10u};
      n.name = "sat" + std::to_string(idValue);
      n.satellite = SatelliteId{idValue};
      g_.addNode(std::move(n));
    }
    Node gs;
    gs.id = NodeId{5};
    gs.kind = NodeKind::GroundStation;
    gs.provider = ProviderId{30};
    gs.name = "gs";
    gs.location = Geodetic::fromDegrees(0, 0);
    g_.addNode(std::move(gs));

    top1_ = addLink(NodeId{1}, NodeId{2}, 1000e3, 10e6);
    top2_ = addLink(NodeId{2}, NodeId{4}, 1000e3, 10e6);
    bot1_ = addLink(NodeId{1}, NodeId{3}, 2000e3, 100e6);
    bot2_ = addLink(NodeId{3}, NodeId{4}, 2000e3, 100e6);
    gsl_ = addLink(NodeId{4}, NodeId{5}, 1500e3, 500e6, LinkType::Gsl);
  }

  LinkId addLink(NodeId a, NodeId b, double dist, double cap,
                 LinkType type = LinkType::IslRf) {
    Link l;
    l.a = a;
    l.b = b;
    l.type = type;
    l.distanceM = dist;
    l.propagationDelayS = dist / kSpeedOfLightMps;
    l.capacityBps = cap;
    return g_.addLink(l);
  }

  NetworkGraph g_;
  LinkId top1_, top2_, bot1_, bot2_, gsl_;
};

TEST_F(DiamondGraph, ShortestPathPicksLowLatency) {
  const Route r = RouteEngine(g_, latencyCost()).shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{4}, NodeId{5}}));
  EXPECT_EQ(r.hops(), 3);
  EXPECT_NEAR(r.propagationDelayS, 3500e3 / kSpeedOfLightMps, 1e-12);
  EXPECT_DOUBLE_EQ(r.bottleneckBps, 10e6);
}

TEST_F(DiamondGraph, BandwidthWeightFlipsChoice) {
  CostWeights w;
  w.latencyWeight = 1.0;
  w.bandwidthWeight = 1e6;  // 0.1 cost on 10 Mbps links vs 0.01 on 100 Mbps
  const Route r =
      RouteEngine(g_, makeCostFunction(w)).shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
  EXPECT_DOUBLE_EQ(r.bottleneckBps, 100e6);
}

TEST_F(DiamondGraph, TariffWeightAvoidsExpensiveLinks) {
  g_.link(top1_).tariffUsdPerGb = 10.0;
  g_.link(top2_).tariffUsdPerGb = 10.0;
  CostWeights w;
  w.latencyWeight = 1.0;
  w.tariffWeight = 50.0;
  const Route r =
      RouteEngine(g_, makeCostFunction(w)).shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
}

TEST_F(DiamondGraph, QueueingDelayStealsTraffic) {
  g_.link(top1_).queueingDelayS = 0.050;  // hot link
  const Route r = RouteEngine(g_, latencyCost()).shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
  EXPECT_DOUBLE_EQ(r.queueingDelayS, 0.0);
}

TEST_F(DiamondGraph, ForeignPenaltySteersTowardHomeAssets) {
  // Provider 10 owns odd satellites (1, 3); via-3 keeps one endpoint home
  // on every hop, via-2 does not (hop 2-4 is fully foreign).
  CostWeights w;
  w.latencyWeight = 1.0;
  w.foreignPenalty = 0.1;
  const RouteEngine engine(g_, makeCostFunction(w), /*home=*/ProviderId{10});
  const Route r = engine.shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
}

TEST_F(DiamondGraph, PremiumRequiresLaser) {
  // All links are RF: a Premium flow that mandates laser finds no path.
  const RouteEngine engine(
      g_, makeCostFunction(CostWeights::forQos(QosClass::Premium)));
  EXPECT_FALSE(engine.shortestPath(NodeId{1}, NodeId{5}).valid());
}

TEST_F(DiamondGraph, SameSourceAndDestination) {
  const Route r = RouteEngine(g_, latencyCost()).shortestPath(NodeId{3}, NodeId{3});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.hops(), 0);
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{3}}));
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  EXPECT_DOUBLE_EQ(r.propagationDelayS, 0.0);
  EXPECT_TRUE(std::isinf(r.bottleneckBps));
}

TEST_F(DiamondGraph, UnknownEndpointsThrow) {
  const RouteEngine engine(g_, latencyCost());
  EXPECT_THROW(engine.shortestPath(NodeId{1}, NodeId{99}), NotFoundError);
  EXPECT_THROW(engine.shortestPath(NodeId{99}, NodeId{1}), NotFoundError);
  EXPECT_THROW(engine.shortestPathTree(NodeId{99}), NotFoundError);
  EXPECT_THROW(engine.kShortestPaths(NodeId{1}, NodeId{99}, 3), NotFoundError);
  EXPECT_THROW(engine.kShortestPaths(NodeId{99}, NodeId{1}, 3), NotFoundError);
}

TEST_F(DiamondGraph, BadCostThrowsBeforeEndpointLookup) {
  // The engine validates the cost model when it compiles, before any query
  // looks up an endpoint: a bad cost wins over an unknown node.
  const LinkCostFn bad = [](const NetworkGraph&, const Link&, ProviderId) {
    return -1.0;
  };
  EXPECT_THROW(RouteEngine(g_, bad).shortestPath(NodeId{1}, NodeId{99}),
               InvalidArgumentError);
  EXPECT_THROW(RouteEngine(g_, bad).shortestPathTree(NodeId{99}),
               InvalidArgumentError);
  EXPECT_THROW(RouteEngine(g_, bad).kShortestPaths(NodeId{99}, NodeId{1}, 0),
               InvalidArgumentError);
}

TEST_F(DiamondGraph, UnreachableGivesInvalidRoute) {
  Node lonely;
  lonely.id = NodeId{42};
  lonely.kind = NodeKind::User;
  lonely.provider = ProviderId{1};
  lonely.name = "lonely";
  lonely.location = Geodetic::fromDegrees(0, 0);
  g_.addNode(std::move(lonely));
  const RouteEngine engine(g_, latencyCost());
  EXPECT_FALSE(engine.shortestPath(NodeId{1}, NodeId{42}).valid());
  const PathTree tree = engine.shortestPathTree(NodeId{1});
  EXPECT_FALSE(tree.reaches(NodeId{42}));
  EXPECT_FALSE(tree.routeTo(NodeId{42}).valid());
}

TEST_F(DiamondGraph, ShortestPathTreeCoversComponent) {
  const PathTree tree = RouteEngine(g_, latencyCost()).shortestPathTree(NodeId{1});
  const auto& dist = tree.distByIndex();
  EXPECT_EQ(std::count_if(dist.begin(), dist.end(),
                          [](double d) { return std::isfinite(d); }),
            5);  // all five nodes reachable
  const Route r4 = tree.routeTo(NodeId{4});
  const Route r5 = tree.routeTo(NodeId{5});
  EXPECT_EQ(r5.nodes.front(), NodeId{1u});
  EXPECT_EQ(r5.nodes.back(), NodeId{5u});
  // Subpath optimality: the tree's route to 4 is a prefix of the one to 5.
  ASSERT_EQ(r5.nodes.size(), r4.nodes.size() + 1);
  EXPECT_TRUE(std::equal(r4.nodes.begin(), r4.nodes.end(), r5.nodes.begin()));
}

TEST_F(DiamondGraph, KShortestFindsBothDiamondArms) {
  const auto routes =
      RouteEngine(g_, latencyCost()).kShortestPaths(NodeId{1}, NodeId{5}, 3);
  ASSERT_EQ(routes.size(), 2u);  // only two simple paths exist
  EXPECT_EQ(routes[0].nodes, (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{4}, NodeId{5}}));
  EXPECT_EQ(routes[1].nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
  EXPECT_LE(routes[0].cost, routes[1].cost);
}

TEST_F(DiamondGraph, KShortestValidation) {
  EXPECT_THROW(
      RouteEngine(g_, latencyCost()).kShortestPaths(NodeId{1}, NodeId{5}, 0),
      InvalidArgumentError);
  // Unreachable destination: empty result, not a throw.
  Node lonely;
  lonely.id = NodeId{42};
  lonely.kind = NodeKind::User;
  lonely.provider = ProviderId{1};
  lonely.name = "l";
  lonely.location = Geodetic::fromDegrees(0, 0);
  g_.addNode(std::move(lonely));
  const RouteEngine engine(g_, latencyCost());
  EXPECT_TRUE(engine.kShortestPaths(NodeId{1}, NodeId{42}, 3).empty());
  // k < 1 is rejected before the endpoints are looked up.
  EXPECT_THROW(engine.kShortestPaths(NodeId{1}, NodeId{99}, -1),
               InvalidArgumentError);
}

TEST_F(DiamondGraph, NegativeCostRejected) {
  const LinkCostFn bad = [](const NetworkGraph&, const Link&, ProviderId) {
    return -1.0;
  };
  EXPECT_THROW(RouteEngine(g_, bad), InvalidArgumentError);
  const LinkCostFn nan = [](const NetworkGraph&, const Link&, ProviderId) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  EXPECT_THROW(RouteEngine(g_, nan), InvalidArgumentError);
}

TEST_F(DiamondGraph, InfiniteCostForbidsLink) {
  const LinkCostFn noTop = [this](const NetworkGraph& gr, const Link& l,
                                  ProviderId) {
    if (l.id == top1_) return std::numeric_limits<double>::infinity();
    return l.totalDelayS();
  };
  const Route r = RouteEngine(g_, noTop).shortestPath(NodeId{1}, NodeId{5});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}, NodeId{5}}));
}

TEST(QosPresets, PremiumWeighsLatencyHarder) {
  const CostWeights bulk = CostWeights::forQos(QosClass::Bulk);
  const CostWeights prem = CostWeights::forQos(QosClass::Premium);
  EXPECT_GT(prem.latencyWeight, bulk.latencyWeight);
  EXPECT_GT(bulk.tariffWeight, prem.tariffWeight);
  EXPECT_TRUE(prem.requireLaserForPremium);
}

// --- proactive router --------------------------------------------------------

class ProactiveTest : public ::testing::Test {
 protected:
  ProactiveTest() {
    for (const auto& el : makeWalkerStar(iridiumConfig())) eph_.publish(ProviderId{1}, el);
    builder_ = std::make_unique<TopologyBuilder>(eph_);
    gs_ = builder_->nodeOf(builder_->addGroundStation(
        {"gs", Geodetic::fromDegrees(48.86, 2.35), ProviderId{2}}));
    user_ = builder_->addUser({"u", Geodetic::fromDegrees(40.44, -79.99), ProviderId{3}});
    opt_.wiring = IslWiring::PlusGrid;
    opt_.planes = 6;
    opt_.minElevationRad = deg2rad(10.0);
  }
  EphemerisService eph_;
  std::unique_ptr<TopologyBuilder> builder_;
  NodeId gs_ = {}, user_ = NodeId{0};
  SnapshotOptions opt_;
};

TEST_F(ProactiveTest, PrecomputesSnapshotGrid) {
  const ProactiveRouter router(*builder_, opt_, 0.0, 300.0, 60.0);
  EXPECT_EQ(router.snapshotCount(), 6u);
  const auto grid = router.gridTimes();
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.back(), 300.0);
}

TEST_F(ProactiveTest, RoutesFromCachedSnapshots) {
  const ProactiveRouter router(*builder_, opt_, 0.0, 600.0, 120.0);
  const Route r = router.route(user_, gs_, 30.0);
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes.front(), user_);
  EXPECT_EQ(r.nodes.back(), gs_);
  // Repeat lookups hit the cached tree and agree.
  const Route r2 = router.route(user_, gs_, 30.0);
  EXPECT_EQ(r.nodes, r2.nodes);
  EXPECT_DOUBLE_EQ(r.cost, r2.cost);
}

TEST_F(ProactiveTest, SnapshotSelectionIsFloor) {
  // Grid: {0, 300}.
  const ProactiveRouter router(*builder_, opt_, 0.0, 300.0, 300.0);
  ASSERT_EQ(router.snapshotCount(), 2u);
  // t=299 uses snapshot 0; t=301 uses snapshot 300.
  const NetworkGraph& s0 = router.snapshotAt(299.0);
  const NetworkGraph& s1 = router.snapshotAt(301.0);
  EXPECT_NE(&s0, &s1);
  EXPECT_EQ(&router.snapshotAt(0.0), &s0);
  EXPECT_EQ(&router.snapshotAt(-50.0), &s0);  // before grid -> first snapshot
  EXPECT_EQ(&router.snapshotAt(1e9), &s1);    // after grid -> last snapshot
}

TEST_F(ProactiveTest, ValidationThrows) {
  EXPECT_THROW(ProactiveRouter(*builder_, opt_, 0.0, 0.0, 60.0),
               InvalidArgumentError);
  EXPECT_THROW(ProactiveRouter(*builder_, opt_, 0.0, 600.0, 0.0),
               InvalidArgumentError);
  const ProactiveRouter router(*builder_, opt_, 0.0, 300.0, 300.0);
  EXPECT_THROW(router.route(user_, NodeId{9999}, 0.0), NotFoundError);
}

// --- on-demand router --------------------------------------------------------

TEST_F(ProactiveTest, OnDemandSelectsBestGroundStation) {
  const NodeId gs2 = builder_->nodeOf(builder_->addGroundStation(
      {"gs2", Geodetic::fromDegrees(40.0, -80.5), ProviderId{2}}));  // right by the user
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  const OnDemandRouter router(g, latencyCost());
  const Route best = router.selectGroundStation(user_);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(best.nodes.back(), gs2);  // the nearby gateway wins
}

TEST_F(ProactiveTest, AlternativesAreDistinctAndOrdered) {
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  const OnDemandRouter router(g, latencyCost());
  const auto alts = router.alternatives(user_, gs_, 4);
  ASSERT_GE(alts.size(), 2u);
  for (std::size_t i = 1; i < alts.size(); ++i) {
    EXPECT_GE(alts[i].cost, alts[i - 1].cost);
    EXPECT_NE(alts[i].nodes, alts[i - 1].nodes);
  }
}

TEST(QueueEstimate, Mm1Shape) {
  const double cap = 10e6;
  EXPECT_DOUBLE_EQ(estimateQueueingDelayS(0.0, cap), 0.0);
  const double half = estimateQueueingDelayS(0.5, cap);
  const double ninety = estimateQueueingDelayS(0.9, cap);
  EXPECT_GT(ninety, half);
  EXPECT_NEAR(half, (12'000.0 / cap) * 1.0, 1e-12);  // rho/(1-rho) = 1
  EXPECT_DOUBLE_EQ(estimateQueueingDelayS(1.5, cap), 2.0);  // saturated cap
  EXPECT_THROW(estimateQueueingDelayS(-0.1, cap), InvalidArgumentError);
  EXPECT_THROW(estimateQueueingDelayS(0.5, 0.0), InvalidArgumentError);
}

}  // namespace
}  // namespace openspace
