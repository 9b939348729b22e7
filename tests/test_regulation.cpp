// Unit tests for the regulation module (§5(3)): region geometry, spectrum
// policy, privacy egress rules, compliance-constrained routing.
#include <gtest/gtest.h>

#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/regulation/regime.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/topology/builder.hpp>

namespace openspace {
namespace {

TEST(RegionExtent, SimpleBoxContainment) {
  RegionExtent box{deg2rad(-10.0), deg2rad(10.0), deg2rad(20.0), deg2rad(40.0)};
  EXPECT_TRUE(box.contains(Geodetic::fromDegrees(0.0, 30.0)));
  EXPECT_FALSE(box.contains(Geodetic::fromDegrees(11.0, 30.0)));
  EXPECT_FALSE(box.contains(Geodetic::fromDegrees(0.0, 41.0)));
  EXPECT_TRUE(box.contains(Geodetic::fromDegrees(-10.0, 20.0)));  // inclusive
}

TEST(RegionExtent, AntimeridianWrap) {
  // Box from 170E to -170E (spans the dateline).
  RegionExtent box{deg2rad(-10.0), deg2rad(10.0), deg2rad(170.0),
                   deg2rad(-170.0)};
  EXPECT_TRUE(box.contains(Geodetic::fromDegrees(0.0, 175.0)));
  EXPECT_TRUE(box.contains(Geodetic::fromDegrees(0.0, -175.0)));
  EXPECT_FALSE(box.contains(Geodetic::fromDegrees(0.0, 0.0)));
}

TEST(Regime, RegistrationAndLookup) {
  const RegulatoryRegime regime = exampleGlobalRegime();
  EXPECT_EQ(regime.regionCount(), 3u);
  EXPECT_EQ(regime.regionOf(Geodetic::fromDegrees(40.44, -79.99)),
            std::optional<RegionId>(1));  // Pittsburgh -> Americas
  EXPECT_EQ(regime.regionOf(Geodetic::fromDegrees(48.86, 2.35)),
            std::optional<RegionId>(2));  // Paris -> EMEA
  EXPECT_EQ(regime.regionOf(Geodetic::fromDegrees(35.68, 139.69)),
            std::optional<RegionId>(3));  // Tokyo -> APAC
  EXPECT_EQ(regime.regionOf(Geodetic::fromDegrees(-80.0, 0.0)), std::nullopt);
  EXPECT_EQ(regime.policy(2).name, "EMEA");
  EXPECT_THROW(regime.policy(9), NotFoundError);
}

TEST(Regime, DuplicateAndInvertedRejected) {
  RegulatoryRegime regime;
  RegionPolicy p;
  p.id = 1;
  p.extent = {0.0, 0.5, 0.0, 0.5};
  regime.addRegion(p);
  EXPECT_THROW(regime.addRegion(p), InvalidArgumentError);
  RegionPolicy bad;
  bad.id = 2;
  bad.extent = {0.5, 0.0, 0.0, 0.5};  // latMin > latMax
  EXPECT_THROW(regime.addRegion(bad), InvalidArgumentError);
}

TEST(Regime, SpectrumPolicy) {
  const RegulatoryRegime regime = exampleGlobalRegime();
  EXPECT_TRUE(regime.groundBandAllowed(1, Band::Ka));   // Americas: Ku+Ka
  EXPECT_FALSE(regime.groundBandAllowed(2, Band::Ka));  // EMEA: Ku only
  EXPECT_TRUE(regime.groundBandAllowed(2, Band::Ku));
}

TEST(Regime, EgressTrust) {
  const RegulatoryRegime regime = exampleGlobalRegime();
  EXPECT_TRUE(regime.egressAllowed(1, 1));   // self always trusted
  EXPECT_TRUE(regime.egressAllowed(1, 2));   // Americas trusts EMEA
  EXPECT_FALSE(regime.egressAllowed(1, 3));  // but not APAC
  EXPECT_FALSE(regime.egressAllowed(3, 1));  // APAC localizes strictly
  EXPECT_TRUE(regime.egressAllowed(3, 3));
}

TEST(Regime, LandingFees) {
  const RegulatoryRegime regime = exampleGlobalRegime();
  EXPECT_NEAR(regime.totalLandingFeesUsd(10),
              10 * (12'145.0 + 9'500.0 + 15'000.0), 1e-6);
  EXPECT_DOUBLE_EQ(regime.totalLandingFeesUsd(0), 0.0);
  EXPECT_THROW(regime.totalLandingFeesUsd(-1), InvalidArgumentError);
}

// --- compliance-constrained routing ------------------------------------------

class ComplianceRouting : public ::testing::Test {
 protected:
  ComplianceRouting() : regime_(exampleGlobalRegime()) {
    for (const auto& el : makeWalkerStar(iridiumConfig())) eph_.publish(ProviderId{1}, el);
    topo_ = std::make_unique<TopologyBuilder>(eph_);
    // A user in APAC (Tokyo) and gateways in all three regions.
    user_ = topo_->addUser({"tokyo-user", Geodetic::fromDegrees(35.68, 139.69), ProviderId{1}});
    gwAmericas_ = topo_->nodeOf(topo_->addGroundStation(
        {"seattle-gw", Geodetic::fromDegrees(47.61, -122.33), ProviderId{2}}));
    gwEmea_ = topo_->nodeOf(topo_->addGroundStation(
        {"paris-gw", Geodetic::fromDegrees(48.86, 2.35), ProviderId{2}}));
    gwApac_ = topo_->nodeOf(topo_->addGroundStation(
        {"osaka-gw", Geodetic::fromDegrees(34.69, 135.50), ProviderId{2}}));
    SnapshotOptions opt;
    opt.wiring = IslWiring::PlusGrid;
    opt.planes = 6;
    opt.minElevationRad = deg2rad(10.0);
    graph_ = topo_->snapshot(0.0, opt);
  }

  EphemerisService eph_;
  std::unique_ptr<TopologyBuilder> topo_;
  RegulatoryRegime regime_;
  NodeId user_ = {}, gwAmericas_ = NodeId{0}, gwEmea_ = NodeId{0}, gwApac_ = NodeId{0};
  NetworkGraph graph_;
};

TEST_F(ComplianceRouting, ApacUserMayOnlyEgressLocally) {
  const RouteEngine engine(
      graph_, complianceConstrainedCost(latencyCost(), regime_, /*userRegion=*/3));
  // Route to the local gateway exists.
  const Route local = engine.shortestPath(user_, gwApac_);
  EXPECT_TRUE(local.valid());
  // Foreign gateways are unreachable under APAC's localization rule.
  EXPECT_FALSE(engine.shortestPath(user_, gwAmericas_).valid());
  EXPECT_FALSE(engine.shortestPath(user_, gwEmea_).valid());
}

TEST_F(ComplianceRouting, AmericasUserMayUseEmeaGateways) {
  const RouteEngine engine(
      graph_, complianceConstrainedCost(latencyCost(), regime_, /*userRegion=*/1));
  EXPECT_TRUE(engine.shortestPath(user_, gwAmericas_).valid());
  EXPECT_TRUE(engine.shortestPath(user_, gwEmea_).valid());
  EXPECT_FALSE(engine.shortestPath(user_, gwApac_).valid());
}

TEST_F(ComplianceRouting, ComplianceNeverBeatsUnconstrainedLatency) {
  const Route constrained =
      RouteEngine(graph_,
                  complianceConstrainedCost(latencyCost(), regime_, /*userRegion=*/3))
          .shortestPath(user_, gwApac_);
  const Route free =
      RouteEngine(graph_, latencyCost()).shortestPath(user_, gwApac_);
  ASSERT_TRUE(constrained.valid());
  ASSERT_TRUE(free.valid());
  EXPECT_GE(constrained.propagationDelayS, free.propagationDelayS - 1e-12);
}

TEST_F(ComplianceRouting, BandPolicyBlocksUnlicensedGroundLinks) {
  // Force all GSLs to Ka: EMEA (Ku-only) gateways become unusable even for
  // users whose region trusts EMEA.
  NetworkGraph kaGraph = graph_;
  for (const LinkId lid : kaGraph.links()) {
    Link& l = kaGraph.link(lid);
    if (l.type == LinkType::Gsl) l.band = Band::Ka;
  }
  const RouteEngine engine(
      kaGraph, complianceConstrainedCost(latencyCost(), regime_, /*userRegion=*/1));
  EXPECT_FALSE(engine.shortestPath(user_, gwEmea_).valid());
  // Americas licenses Ka, so its gateway still works.
  EXPECT_TRUE(engine.shortestPath(user_, gwAmericas_).valid());
}

TEST_F(ComplianceRouting, IslsAreNeverRegulated) {
  // Compliance rules touch ground links only; the space segment is free.
  const LinkCostFn cost =
      complianceConstrainedCost(latencyCost(), regime_, /*userRegion=*/3);
  for (const LinkId lid : graph_.links()) {
    const Link& l = graph_.link(lid);
    if (l.type == LinkType::IslRf || l.type == LinkType::IslLaser) {
      EXPECT_FALSE(std::isinf(cost(graph_, l, ProviderId{})));
    }
  }
}

}  // namespace
}  // namespace openspace
