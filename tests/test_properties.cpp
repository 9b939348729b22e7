// Property-based tests: parameterized sweeps asserting invariants across
// broad input ranges rather than single examples.
#include <gtest/gtest.h>

#include <numbers>
#include <set>

#include <openspace/coverage/coverage.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/visibility.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/topology/builder.hpp>

namespace openspace {
namespace {

// --- Property: geodetic <-> ECEF round trip over random points -------------

class RandomGeodeticRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGeodeticRoundTrip, Holds) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Geodetic g = rng.surfacePoint();
    g.altitudeM = rng.uniform(0.0, 2000e3);
    const Geodetic back = ecefToGeodetic(geodeticToEcef(g));
    ASSERT_NEAR(back.latitudeRad, g.latitudeRad, 1e-8);
    ASSERT_NEAR(back.longitudeRad, g.longitudeRad, 1e-8);
    ASSERT_NEAR(back.altitudeM, g.altitudeM, 1e-2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGeodeticRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- Property: orbital energy and angular momentum conserved ----------------

class OrbitConservation
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(OrbitConservation, EnergyAndMomentumConstant) {
  const auto [altKm, incDeg, ecc] = GetParam();
  OrbitalElements el;
  el.semiMajorAxisM = wgs84::kMeanRadiusM + km(altKm);
  el.eccentricity = ecc;
  el.inclinationRad = deg2rad(incDeg);
  el.raanRad = 0.7;
  el.argPerigeeRad = 0.4;

  const StateVector sv0 = propagate(el, 0.0);
  const double e0 = sv0.velocityMps.normSquared() / 2.0 -
                    wgs84::kMuM3PerS2 / sv0.positionM.norm();
  const double h0 = sv0.positionM.cross(sv0.velocityMps).norm();
  for (double t = 0.0; t <= el.periodS(); t += el.periodS() / 13.0) {
    const StateVector sv = propagate(el, t);
    const double e = sv.velocityMps.normSquared() / 2.0 -
                     wgs84::kMuM3PerS2 / sv.positionM.norm();
    const double h = sv.positionM.cross(sv.velocityMps).norm();
    ASSERT_NEAR(e / e0, 1.0, 1e-9) << "t=" << t;
    ASSERT_NEAR(h / h0, 1.0, 1e-9) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orbits, OrbitConservation,
    ::testing::Combine(::testing::Values(400.0, 780.0, 1400.0),
                       ::testing::Values(0.0, 53.0, 86.4, 97.8),
                       ::testing::Values(0.0, 0.05, 0.2)));

// --- Property: footprint shrinks monotonically with the elevation mask ------

class FootprintMonotone : public ::testing::TestWithParam<double> {};

TEST_P(FootprintMonotone, Holds) {
  const double altM = km(GetParam());
  double prev = std::numbers::pi;
  for (double maskDeg = 0.0; maskDeg <= 60.0; maskDeg += 5.0) {
    const double lam = footprintHalfAngleRad(altM, deg2rad(maskDeg));
    ASSERT_LT(lam, prev) << "mask " << maskDeg;
    ASSERT_GT(lam, 0.0);
    prev = lam;
  }
}

INSTANTIATE_TEST_SUITE_P(Altitudes, FootprintMonotone,
                         ::testing::Values(340.0, 550.0, 780.0, 1200.0, 2000.0));

// --- Property: Walker constellations are valid and evenly distributed -------

class WalkerShape
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WalkerShape, StructureHolds) {
  const auto [total, planes, phasing] = GetParam();
  WalkerConfig cfg;
  cfg.totalSatellites = total;
  cfg.planes = planes;
  cfg.phasing = phasing;
  cfg.altitudeM = km(780.0);
  cfg.inclinationRad = deg2rad(86.4);
  for (const auto make : {makeWalkerStar, makeWalkerDelta}) {
    const auto sats = make(cfg);
    ASSERT_EQ(sats.size(), static_cast<std::size_t>(total));
    std::set<long> raans;
    for (const auto& el : sats) {
      raans.insert(std::lround(el.raanRad * 1e9));
      ASSERT_NEAR(el.perigeeAltitudeM(), 780e3, 1e-3);
      ASSERT_DOUBLE_EQ(el.eccentricity, 0.0);
    }
    ASSERT_EQ(raans.size(), static_cast<std::size_t>(planes));
    // No two satellites share an orbit slot: crossing-plane pairs may
    // coincide at one instant (planes intersect), but only identical
    // orbits coincide at two generic instants.
    for (std::size_t i = 0; i < sats.size(); ++i) {
      for (std::size_t j = i + 1; j < sats.size(); ++j) {
        const double d0 =
            positionEci(sats[i], 0.0).distanceTo(positionEci(sats[j], 0.0));
        const double d1 = positionEci(sats[i], 137.77)
                              .distanceTo(positionEci(sats[j], 137.77));
        ASSERT_GT(std::max(d0, d1), 1e3)
            << "satellites " << i << "," << j << " share an orbit";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, WalkerShape,
                         ::testing::Values(std::make_tuple(12, 3, 1),
                                           std::make_tuple(24, 4, 2),
                                           std::make_tuple(66, 6, 2),
                                           std::make_tuple(72, 6, 1),
                                           std::make_tuple(60, 12, 5)));

// --- Property: coverage estimators are monotone in fleet size ---------------

class CoverageMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoverageMonotone, UnionCoverageNeverDropsWhenAddingSatellites) {
  Rng rng(GetParam());
  auto sats = makeRandomConstellation(10, km(780.0), rng);
  Rng sampler(99);  // fixed sample set across increments
  double prev = 0.0;
  for (int round = 0; round < 4; ++round) {
    Rng s2(99);  // same points each time: strict monotonicity holds
    const double cov =
        monteCarloCoverage(sats, 0.0, deg2rad(10.0), 3000, s2).coverageFraction;
    ASSERT_GE(cov, prev - 1e-12);
    prev = cov;
    const auto more = makeRandomConstellation(10, km(780.0), rng);
    sats.insert(sats.end(), more.begin(), more.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageMonotone,
                         ::testing::Values(11, 22, 33, 44));

// --- Property: Dijkstra optimality vs brute force on small graphs ------------

class DijkstraOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraOptimality, MatchesBruteForceEnumeration) {
  Rng rng(GetParam());
  // Random connected-ish graph of 8 satellites.
  NetworkGraph g;
  const int n = 8;
  for (NodeId::rep_type idValue = 1; idValue <= static_cast<NodeId::rep_type>(n);
       ++idValue) {
    const NodeId id{idValue};
    Node node;
    node.id = id;
    node.kind = NodeKind::Satellite;
    node.provider = ProviderId{1};
    node.name = std::to_string(idValue);
    node.satellite = SatelliteId{idValue};
    g.addNode(std::move(node));
  }
  for (NodeId::rep_type av = 1; av <= static_cast<NodeId::rep_type>(n); ++av) {
    for (NodeId::rep_type bv = av + 1; bv <= static_cast<NodeId::rep_type>(n);
         ++bv) {
      if (rng.chance(0.45)) {
        const NodeId a{av}, b{bv};
        Link l;
        l.a = a;
        l.b = b;
        l.capacityBps = 1e6;
        l.distanceM = rng.uniform(100e3, 5000e3);
        l.propagationDelayS = l.distanceM / kSpeedOfLightMps;
        g.addLink(l);
      }
    }
  }

  // Brute force: DFS enumeration of all simple paths 1 -> n.
  double best = std::numeric_limits<double>::infinity();
  std::vector<NodeId> stack{NodeId{1}};
  std::set<NodeId> visited{NodeId{1}};
  std::function<void(NodeId, double)> dfs = [&](NodeId u, double cost) {
    if (u == NodeId{static_cast<NodeId::rep_type>(n)}) {
      best = std::min(best, cost);
      return;
    }
    for (const LinkId lid : g.linksOf(u)) {
      const Link& l = g.link(lid);
      const NodeId v = l.otherEnd(u);
      if (visited.contains(v)) continue;
      visited.insert(v);
      dfs(v, cost + l.totalDelayS());
      visited.erase(v);
    }
  };
  dfs(NodeId{1}, 0.0);

  const Route r = RouteEngine(g, latencyCost())
                      .shortestPath(NodeId{1}, NodeId{static_cast<NodeId::rep_type>(n)});
  if (std::isinf(best)) {
    ASSERT_FALSE(r.valid());
  } else {
    ASSERT_TRUE(r.valid());
    ASSERT_NEAR(r.cost, best, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraOptimality,
                         ::testing::Range<std::uint64_t>(100, 115));

// --- Property: Yen's k paths are loop-free, distinct and sorted -------------

class YenProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(YenProperties, Holds) {
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  const NetworkGraph g = topo.snapshot(0.0, opt);
  Rng rng(GetParam());
  const auto sats = g.nodesOfKind(NodeKind::Satellite);
  const NodeId src = sats[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(sats.size()) - 1))];
  const NodeId dst = sats[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(sats.size()) - 1))];
  if (src == dst) return;
  const auto routes = RouteEngine(g, latencyCost()).kShortestPaths(src, dst, 5);
  ASSERT_FALSE(routes.empty());
  std::set<std::vector<NodeId>> unique;
  double prevCost = 0.0;
  for (const Route& r : routes) {
    ASSERT_TRUE(r.valid());
    ASSERT_EQ(r.nodes.front(), src);
    ASSERT_EQ(r.nodes.back(), dst);
    // Loop-free.
    const std::set<NodeId> distinct(r.nodes.begin(), r.nodes.end());
    ASSERT_EQ(distinct.size(), r.nodes.size());
    // Sorted by cost, all distinct.
    ASSERT_GE(r.cost, prevCost - 1e-12);
    prevCost = r.cost;
    ASSERT_TRUE(unique.insert(r.nodes).second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, YenProperties,
                         ::testing::Values(7, 17, 27, 37, 47, 57));

// --- Property: contact windows respect the elevation mask -------------------

class ContactWindowProperty : public ::testing::TestWithParam<double> {};

TEST_P(ContactWindowProperty, ElevationAboveMaskInsideWindows) {
  const double maskDeg = GetParam();
  const auto el = OrbitalElements::circular(km(780.0), deg2rad(86.4), 0.3, 0.0);
  const Geodetic site = Geodetic::fromDegrees(40.0, -80.0);
  const auto windows =
      contactWindows(el, site, 0.0, 2 * el.periodS(), deg2rad(maskDeg), 10.0);
  for (const auto& w : windows) {
    // Probe the interior of each window.
    for (double f = 0.1; f < 1.0; f += 0.2) {
      const double t = w.startS + f * w.durationS();
      ASSERT_GE(elevationFrom(positionEci(el, t), site, t),
                deg2rad(maskDeg) - 1e-3)
          << "window [" << w.startS << "," << w.endS << "] t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Masks, ContactWindowProperty,
                         ::testing::Values(0.0, 5.0, 10.0, 25.0, 40.0));

}  // namespace
}  // namespace openspace
