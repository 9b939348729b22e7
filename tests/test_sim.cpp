// Unit tests for the sim module: the §4 Figure 2 engine and the
// multi-provider scenario orchestrator.
#include <gtest/gtest.h>

#include <limits>

#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/sim/scenario.hpp>

namespace openspace {
namespace {

TEST(Fig2Trial, ZeroSatellitesDisconnected) {
  Rng rng(1);
  const Fig2Trial t = runFig2Trial(0, Fig2Config{}, rng);
  EXPECT_FALSE(t.userCovered);
  EXPECT_FALSE(t.connected);
}

TEST(Fig2Trial, ConnectedTrialHasConsistentFields) {
  Fig2Config cfg;
  Rng rng(2);
  // With 120 satellites virtually every trial connects; find one.
  for (int i = 0; i < 10; ++i) {
    const Fig2Trial t = runFig2Trial(120, cfg, rng);
    if (!t.connected) continue;
    EXPECT_TRUE(t.userCovered);
    EXPECT_TRUE(t.stationCovered);
    EXPECT_GT(t.pathLengthM, 0.0);
    EXPECT_NEAR(t.latencyS, t.pathLengthM / kSpeedOfLightMps, 1e-15);
    EXPECT_GT(t.endToEndLatencyS, t.latencyS);  // adds up/down legs
    EXPECT_GE(t.islHops, 1);
    return;
  }
  FAIL() << "no connected trial in 10 attempts at N=120";
}

TEST(Fig2Trial, SameSatelliteServesBothEndsMeansZeroPath) {
  // User and station co-located: the same satellite picks both up.
  Fig2Config cfg;
  cfg.user = Geodetic::fromDegrees(10.0, 10.0);
  cfg.groundStation = Geodetic::fromDegrees(10.1, 10.1);
  Rng rng(3);
  bool sawZeroHop = false;
  for (int i = 0; i < 20 && !sawZeroHop; ++i) {
    const Fig2Trial t = runFig2Trial(40, cfg, rng);
    if (t.connected && t.islHops == 0) {
      EXPECT_DOUBLE_EQ(t.pathLengthM, 0.0);
      EXPECT_GT(t.endToEndLatencyS, 0.0);
      sawZeroHop = true;
    }
  }
  EXPECT_TRUE(sawZeroHop);
}

TEST(Fig2Sweep, ConnectivityImprovesWithFleetSize) {
  const auto sweep = fig2LatencySweep({5, 40, 100}, 40, Fig2Config{}, 7);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_LE(sweep[0].connectivity, sweep[1].connectivity);
  EXPECT_LE(sweep[1].connectivity, sweep[2].connectivity);
  EXPECT_GT(sweep[2].connectivity, 0.8);
}

TEST(Fig2Sweep, PaperPlateauAnchor) {
  // Past ~25 satellites the paper reports latency flattening around 30 ms.
  const auto sweep = fig2LatencySweep({30, 60, 90}, 60, Fig2Config{}, 2024);
  for (const auto& pt : sweep) {
    ASSERT_GT(pt.connectedTrials, 0);
    EXPECT_GT(toMilliseconds(pt.meanLatencyS), 10.0);
    EXPECT_LT(toMilliseconds(pt.meanLatencyS), 60.0);
  }
}

TEST(Fig2Sweep, DeterministicGivenSeed) {
  const auto a = fig2LatencySweep({20}, 30, Fig2Config{}, 99);
  const auto b = fig2LatencySweep({20}, 30, Fig2Config{}, 99);
  EXPECT_DOUBLE_EQ(a[0].meanLatencyS, b[0].meanLatencyS);
  EXPECT_EQ(a[0].connectedTrials, b[0].connectedTrials);
}

TEST(Fig2Sweep, Validation) {
  EXPECT_THROW(fig2LatencySweep({}, 10, Fig2Config{}, 1), InvalidArgumentError);
  EXPECT_THROW(fig2LatencySweep({10}, 0, Fig2Config{}, 1),
               InvalidArgumentError);
  EXPECT_THROW(fig2CoverageSweep({}, 10, Fig2Config{}, 1),
               InvalidArgumentError);
  EXPECT_THROW(fig2CoverageSweep({10}, 0, Fig2Config{}, 1),
               InvalidArgumentError);
}

TEST(Fig2Coverage, MonotoneGrowthAndSaturation) {
  Fig2Config cfg;
  cfg.minElevationRad = deg2rad(10.0);
  const auto sweep = fig2CoverageSweep({5, 30, 90}, 10, cfg, 5);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_LT(sweep[0].worstCaseCoverage, sweep[1].worstCaseCoverage);
  EXPECT_LT(sweep[1].worstCaseCoverage, sweep[2].worstCaseCoverage);
  EXPECT_GT(sweep[2].worstCaseCoverage, 0.9);  // near total at N=90
  // Effective satellites never exceed actual satellites.
  for (const auto& pt : sweep) {
    EXPECT_LE(pt.meanEffectiveSatellites, pt.satellites);
    EXPECT_GT(pt.meanEffectiveSatellites, 0.0);
  }
}

// --- scenario ----------------------------------------------------------------

ScenarioConfig smallScenario() {
  ScenarioConfig cfg;
  cfg.providers = {{"alpha", 33, 0.0, 0.10}, {"beta", 33, 0.5, 0.05}};
  cfg.coordinatedWalker = true;
  cfg.stations = {{"gw-a", Geodetic::fromDegrees(47.0, -122.0), 0},
                  {"gw-b", Geodetic::fromDegrees(1.35, 103.82), 1}};
  cfg.users = {{"u-a", Geodetic::fromDegrees(40.44, -79.99), 0},
               {"u-b", Geodetic::fromDegrees(-33.87, 151.21), 1}};
  cfg.seed = 5;
  return cfg;
}

TEST(Scenario, BuildsAllPieces) {
  Scenario s(smallScenario());
  EXPECT_EQ(s.ephemeris().size(), 66u);
  EXPECT_EQ(s.topology().groundStationCount(), 2u);
  EXPECT_EQ(s.topology().userCount(), 2u);
  EXPECT_EQ(s.providerId(0), ProviderId{1u});
  EXPECT_EQ(s.providerId(1), ProviderId{2u});
  EXPECT_THROW(s.providerId(5), InvalidArgumentError);
  EXPECT_EQ(s.beaconsAt(0.0).size(), 66u);
}

TEST(Scenario, OwnershipSplitMatchesConfig) {
  Scenario s(smallScenario());
  EXPECT_EQ(s.ephemeris().satellitesOf(ProviderId{1}).size(), 33u);
  EXPECT_EQ(s.ephemeris().satellitesOf(ProviderId{2}).size(), 33u);
}

TEST(Scenario, ValidationRejectsBadConfigs) {
  ScenarioConfig empty;
  EXPECT_THROW(Scenario{empty}, InvalidArgumentError);
  ScenarioConfig zeroSats = smallScenario();
  zeroSats.providers[0].satellites = 0;
  EXPECT_THROW(Scenario{zeroSats}, InvalidArgumentError);
  ScenarioConfig badStation = smallScenario();
  badStation.stations[0].ownerProviderIndex = 9;
  EXPECT_THROW(Scenario{badStation}, InvalidArgumentError);
  ScenarioConfig badUser = smallScenario();
  badUser.users[0].homeProviderIndex = 9;
  EXPECT_THROW(Scenario{badUser}, InvalidArgumentError);
}

TEST(Scenario, HomeGatewayResolution) {
  Scenario s(smallScenario());
  EXPECT_EQ(s.homeGatewayOf(0), s.stationNode(0));
  EXPECT_EQ(s.homeGatewayOf(1), s.stationNode(1));
  EXPECT_THROW(s.homeGatewayOf(9), InvalidArgumentError);
  ScenarioConfig cfg = smallScenario();
  cfg.stations.pop_back();  // beta loses its gateway
  Scenario s2(cfg);
  EXPECT_THROW(s2.homeGatewayOf(1), NotFoundError);
}

TEST(Scenario, UserAssociationSucceeds) {
  Scenario s(smallScenario());
  const AssociationResult res = s.associateUser(0, 0.0);
  EXPECT_TRUE(res.success) << res.failureReason;
  EXPECT_EQ(res.certificate.homeProvider, ProviderId{1u});
}

TEST(Scenario, TrafficEpochDeliversAndSettles) {
  Scenario s(smallScenario());
  const TrafficReport rep = s.runTrafficEpoch(0.0, 3.0, 1e6);
  EXPECT_GT(rep.packetsOffered, 0u);
  EXPECT_GT(rep.packetsDelivered, 0u);
  EXPECT_TRUE(rep.ledgersCrossVerified);
  EXPECT_GT(rep.meanLatencyS, 0.0);
  EXPECT_GE(rep.p95LatencyS, rep.meanLatencyS * 0.5);
  EXPECT_THROW(s.runTrafficEpoch(0.0, 0.0, 1e6), InvalidArgumentError);
  EXPECT_THROW(s.runTrafficEpoch(0.0, 1.0, 0.0), InvalidArgumentError);
}

TEST(Scenario, RandomOrbitsModeWorks) {
  ScenarioConfig cfg = smallScenario();
  cfg.coordinatedWalker = false;
  Scenario s(cfg);
  EXPECT_EQ(s.ephemeris().size(), 66u);
  const NetworkGraph g = s.snapshot(0.0);
  EXPECT_GT(g.linkCount(), 10u);
}

TEST(Scenario, NodeAccessorsValidate) {
  Scenario s(smallScenario());
  EXPECT_NO_THROW(s.userNode(0));
  EXPECT_NO_THROW(s.stationNode(1));
  EXPECT_THROW(s.userNode(9), InvalidArgumentError);
  EXPECT_THROW(s.stationNode(9), InvalidArgumentError);
}

TEST(Scenario, AdaptiveEpochsRunAndReport) {
  Scenario s(smallScenario());
  const AdaptiveReport rep = s.runAdaptiveEpochs(0.0, 3, 2.0, 1e6);
  ASSERT_EQ(rep.epochMeanLatencyS.size(), 3u);
  ASSERT_EQ(rep.epochLossRate.size(), 3u);
  EXPECT_GT(rep.totalDelivered, 0u);
  for (const double lat : rep.epochMeanLatencyS) EXPECT_GE(lat, 0.0);
  EXPECT_THROW(s.runAdaptiveEpochs(0.0, 0, 1.0, 1e6), InvalidArgumentError);
  EXPECT_THROW(s.runAdaptiveEpochs(0.0, 1, 0.0, 1e6), InvalidArgumentError);
  EXPECT_THROW(s.runAdaptiveEpochs(0.0, 1, 1.0, 0.0), InvalidArgumentError);
}

TEST(Scenario, NonFiniteTrafficInputsThrow) {
  // NaN passes a `<= 0` guard, and a NaN stop time never ends the packet
  // emitter, so each case must throw rather than run.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Scenario s(smallScenario());
  EXPECT_THROW(s.runTrafficEpoch(0.0, kNaN, 1e6), InvalidArgumentError);
  EXPECT_THROW(s.runTrafficEpoch(0.0, 1.0, kNaN), InvalidArgumentError);
  EXPECT_THROW(s.runTrafficEpoch(0.0, kInf, 1e6), InvalidArgumentError);
  EXPECT_THROW(s.runTrafficEpoch(0.0, 1.0, kInf), InvalidArgumentError);
  EXPECT_THROW(s.runTrafficEpoch(kNaN, 1.0, 1e6), InvalidArgumentError);
  EXPECT_THROW(s.runAdaptiveEpochs(0.0, 2, kNaN, 1e6), InvalidArgumentError);
  EXPECT_THROW(s.runAdaptiveEpochs(0.0, 2, 1.0, kNaN), InvalidArgumentError);
  EXPECT_THROW(s.runAdaptiveEpochs(0.0, 2, kInf, 1e6), InvalidArgumentError);
  EXPECT_THROW(s.runAdaptiveEpochs(0.0, 2, 1.0, kInf), InvalidArgumentError);
  EXPECT_THROW(s.runAdaptiveEpochs(kInf, 2, 1.0, 1e6), InvalidArgumentError);
}

TEST(Scenario, AdaptiveFeedbackDoesNotDegradeService) {
  // After congestion feedback, later epochs must not lose more packets than
  // epoch 0 (route choices only get better-informed).
  Scenario s(smallScenario());
  const AdaptiveReport rep = s.runAdaptiveEpochs(0.0, 4, 2.0, 5e6);
  for (std::size_t e = 1; e < rep.epochLossRate.size(); ++e) {
    EXPECT_LE(rep.epochLossRate[e], rep.epochLossRate[0] + 0.05);
  }
}

}  // namespace
}  // namespace openspace
