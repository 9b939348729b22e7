// Property tests for the incremental temporal topology pipeline
// (topology/delta.hpp) and the link enumerator it shares with
// TopologyBuilder::snapshot() (topology/link_enumerator.hpp): delta-built
// CompactGraphs must be bit-identical to compileGraph() of the test-side
// reference snapshot (spec/topology/reference_snapshot.hpp), across all
// three ISL wiring policies, over randomized constellations and sweeps;
// builder.snapshot() must equal the reference link for link.
// contentChecksum() is the witness.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <thread>

#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/topology/delta.hpp>
#include <openspace/topology/reference_snapshot.hpp>

namespace openspace {
namespace {

LinkCapabilities laserCaps() {
  LinkCapabilities c;
  c.islBands = {Band::S};  // RF interoperability minimum
  c.hasLaserTerminal = true;
  return c;
}

/// A builder over a randomized Walker star with ground stations, users, and
/// a random subset of laser-capable satellites.
struct Scenario {
  EphemerisService eph;
  std::unique_ptr<TopologyBuilder> topo;
};

std::unique_ptr<Scenario> makeScenario(Rng& rng, int planes, int perPlane,
                                       int stations, int users) {
  auto sc = std::make_unique<Scenario>();
  WalkerConfig cfg;
  cfg.totalSatellites = planes * perPlane;
  cfg.planes = planes;
  cfg.phasing = static_cast<int>(rng.uniformInt(0, planes - 1));
  cfg.altitudeM = rng.uniform(km(500.0), km(1200.0));
  cfg.inclinationRad = rng.uniform(deg2rad(50.0), deg2rad(90.0));
  for (const auto& el : makeWalkerStar(cfg)) {
    sc->eph.publish(ProviderId{1}, el);
  }
  sc->topo = std::make_unique<TopologyBuilder>(sc->eph);
  for (const SatelliteId sid : sc->eph.satellites()) {
    if (rng.chance(0.5)) sc->topo->setCapabilities(sid, laserCaps());
  }
  for (int i = 0; i < stations; ++i) {
    sc->topo->addGroundStation(
        {"gw" + std::to_string(i), rng.surfacePoint(), ProviderId{2}});
  }
  for (int i = 0; i < users; ++i) {
    sc->topo->addUser({"u" + std::to_string(i), rng.surfacePoint(), ProviderId{1}});
  }
  return sc;
}

SnapshotOptions optsFor(IslWiring wiring, int planes, Rng& rng) {
  SnapshotOptions opt;
  opt.wiring = wiring;
  opt.planes = planes;
  opt.nearestK = static_cast<int>(rng.uniformInt(2, 5));
  opt.maxIslRangeM = rng.uniform(km(3000.0), km(6000.0));
  opt.minElevationRad = deg2rad(rng.uniform(5.0, 25.0));
  opt.interPlaneSeam = rng.chance(0.5);
  opt.preferLaser = rng.chance(0.8);
  return opt;
}

/// Fleet shape of a randomized scenario: 24 satellites by default, so the
/// snapshot's ISL adjacency takes its all-pairs path.
struct Fleet {
  int planes = 4;
  int perPlane = 6;
  /// Most 5-40 s steps keep the link set, so the sweep must patch.
  bool expectPatchedSteps = true;
};

/// 312 satellites, above kIslAllPairsMaxSats (256): the NearestNeighbors
/// candidates come from the grid-pruned adjacency, not the all-pairs scan.
/// Nearest-neighbor selection over this many satellites reorders on nearly
/// every 5-40 s step, so this fleet pins enumeration, not patching.
constexpr Fleet kLargeFleet{12, 26, false};
static_assert(static_cast<std::size_t>(kLargeFleet.planes * kLargeFleet.perPlane) >
              kIslAllPairsMaxSats);

/// One sweep: every step's delta graph checksums equal to a compile of the
/// reference snapshot under the same cost model.
void expectBitIdenticalSweep(IslWiring wiring, const TemporalCostModel& model,
                             std::uint64_t seed, Fleet fleet = {}) {
  Rng rng(seed);
  const auto sc = makeScenario(rng, fleet.planes, fleet.perPlane, 2, 3);
  const SnapshotOptions opt = optsFor(wiring, fleet.planes, rng);
  IncrementalTopology inc(*sc->topo, opt, model);

  std::size_t structuralSteps = 0;
  std::size_t patchedSteps = 0;
  double t = 0.0;
  for (int k = 0; k < 24; ++k) {
    const TopologyDelta& d = inc.step(t);
    const CompactGraph ref =
        compileGraph(referenceSnapshot(*sc->topo, t, opt), model.link);
    ASSERT_NE(inc.graph(), nullptr);
    ASSERT_EQ(inc.graph()->contentChecksum(), ref.contentChecksum())
        << "wiring=" << static_cast<int>(wiring) << " seed=" << seed
        << " t=" << t;
    if (d.structural) {
      ++structuralSteps;
    } else if (d.costChangedLinks > 0) {
      ++patchedSteps;
    }
    // Bookkeeping closes: every current link is added, changed, or kept.
    ASSERT_EQ(d.addedLinks + d.costChangedLinks + d.unchangedLinks, d.linkCount);
    t += rng.uniform(5.0, 40.0);
  }
  // The sweep exercised the patch path, not just rebuilds (step sizes are
  // small enough that most steps keep the link set).
  if (fleet.expectPatchedSteps) EXPECT_GT(patchedSteps, 0u) << "seed=" << seed;
  // The first step is always structural (nothing to patch against).
  EXPECT_GE(structuralSteps, 1u);
}

class DeltaBitIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaBitIdentity, PlusGridDelayCost) {
  expectBitIdenticalSweep(IslWiring::PlusGrid, delayCostModel(), GetParam());
}

TEST_P(DeltaBitIdentity, NearestNeighborsDelayCost) {
  expectBitIdenticalSweep(IslWiring::NearestNeighbors, delayCostModel(),
                          GetParam());
}

TEST_P(DeltaBitIdentity, NearestNeighborsLargeFleetDelayCost) {
  expectBitIdenticalSweep(IslWiring::NearestNeighbors, delayCostModel(),
                          GetParam(), kLargeFleet);
}

TEST_P(DeltaBitIdentity, AllInRangeDelayCost) {
  expectBitIdenticalSweep(IslWiring::AllInRange, delayCostModel(), GetParam());
}

TEST_P(DeltaBitIdentity, PlusGridHopCost) {
  expectBitIdenticalSweep(IslWiring::PlusGrid, hopCostModel(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaBitIdentity,
                         ::testing::Values(1u, 2u, 3u, 4u));

// --- builder.snapshot() == reference, link for link -------------------------

void expectSameLinks(const NetworkGraph& got, const NetworkGraph& ref,
                     const std::string& where) {
  ASSERT_EQ(got.nodes(), ref.nodes()) << where;
  const std::vector<LinkId> gotIds = got.links();
  const std::vector<LinkId> refIds = ref.links();
  ASSERT_EQ(gotIds.size(), refIds.size()) << where;
  for (std::size_t p = 0; p < gotIds.size(); ++p) {
    const Link& x = got.link(gotIds[p]);
    const Link& y = ref.link(refIds[p]);
    ASSERT_EQ(x.id, y.id) << where << " link " << p;
    ASSERT_EQ(x.a, y.a) << where << " link " << p;
    ASSERT_EQ(x.b, y.b) << where << " link " << p;
    ASSERT_EQ(x.type, y.type) << where << " link " << p;
    ASSERT_EQ(x.band, y.band) << where << " link " << p;
    ASSERT_EQ(bitsOf(x.distanceM), bitsOf(y.distanceM)) << where << " link " << p;
    ASSERT_EQ(bitsOf(x.propagationDelayS), bitsOf(y.propagationDelayS))
        << where << " link " << p;
    ASSERT_EQ(bitsOf(x.queueingDelayS), bitsOf(y.queueingDelayS))
        << where << " link " << p;
    ASSERT_EQ(bitsOf(x.capacityBps), bitsOf(y.capacityBps))
        << where << " link " << p;
  }
}

TEST(SnapshotReference, BuilderMatchesReferenceLinkForLink) {
  for (const IslWiring wiring : {IslWiring::PlusGrid, IslWiring::NearestNeighbors,
                                 IslWiring::AllInRange}) {
    for (const Fleet fleet : {Fleet{}, kLargeFleet}) {
      std::size_t links = 0;
      for (const std::uint64_t seed : {51u, 52u}) {
        Rng rng(seed);
        const auto sc = makeScenario(rng, fleet.planes, fleet.perPlane, 2, 3);
        const SnapshotOptions opt = optsFor(wiring, fleet.planes, rng);
        for (const double t : {0.0, 437.0, 2'900.0}) {
          const NetworkGraph got = sc->topo->snapshot(t, opt);
          links += got.linkCount();
          expectSameLinks(got, referenceSnapshot(*sc->topo, t, opt),
                          "wiring=" + std::to_string(static_cast<int>(wiring)) +
                              " sats=" +
                              std::to_string(fleet.planes * fleet.perPlane) +
                              " seed=" + std::to_string(seed) +
                              " t=" + std::to_string(t));
        }
      }
      EXPECT_GT(links, 0u) << "wiring=" << static_cast<int>(wiring)
                           << " sats=" << fleet.planes * fleet.perPlane;
    }
  }
}

TEST(SnapshotReference, ConcurrentSnapshotsMatchReference) {
  // snapshot() is const and keeps its enumeration scratch local to the
  // call, so concurrent callers on one builder need no synchronization.
  Rng rng(53);
  const auto sc = makeScenario(rng, 4, 6, 2, 3);
  const SnapshotOptions opt = optsFor(IslWiring::NearestNeighbors, 4, rng);
  const NetworkGraph ref = referenceSnapshot(*sc->topo, 300.0, opt);
  std::vector<NetworkGraph> got(4);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < got.size(); ++k) {
    threads.emplace_back([&, k] { got[k] = sc->topo->snapshot(300.0, opt); });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t k = 0; k < got.size(); ++k) {
    expectSameLinks(got[k], ref, "thread " + std::to_string(k));
  }
}

TEST(SnapshotReference, NearestNeighborsSelectsBeforeSightlineTest) {
  // A and B share a 500 km equatorial orbit 42 degrees apart: 4,925 km,
  // a chord the Earth blocks. C flies at 1,200 km 40 degrees behind A:
  // 4,983 km from A, in clear sight, and out of B's range. With k = 1, A's
  // one candidate is B, which the sightline test then rejects; A must not
  // fall back to C. The A-C link comes from C's own attempt (a = C). A ring
  // of 300 satellites at 20,000 km, far out of the trio's range, takes the
  // fleet past kIslAllPairsMaxSats onto the grid-pruned candidate path.
  for (const int filler : {0, 300}) {
    EphemerisService eph;
    eph.publish(ProviderId{1},
                OrbitalElements::circular(km(500.0), 0.0, 0.0, 0.0));
    eph.publish(ProviderId{1},
                OrbitalElements::circular(km(500.0), 0.0, 0.0, deg2rad(42.0)));
    eph.publish(ProviderId{1},
                OrbitalElements::circular(km(1200.0), 0.0, 0.0, deg2rad(320.0)));
    for (int f = 0; f < filler; ++f) {
      eph.publish(ProviderId{1}, OrbitalElements::circular(
                                     km(20'000.0), 0.0, 0.0,
                                     deg2rad(360.0 * f / filler)));
    }
    const TopologyBuilder topo(eph);
    SnapshotOptions opt;
    opt.wiring = IslWiring::NearestNeighbors;
    opt.nearestK = 1;
    opt.maxIslRangeM = km(6000.0);
    const NetworkGraph got = topo.snapshot(0.0, opt);
    const std::string where = "filler=" + std::to_string(filler);
    expectSameLinks(got, referenceSnapshot(topo, 0.0, opt), where);
    const std::vector<SatelliteId>& sats = eph.satellites();
    std::vector<LinkId> trioLinks;
    for (const std::size_t s : {0u, 1u, 2u}) {
      for (const LinkId l : got.linksOf(topo.nodeOf(sats[s]))) {
        if (std::find(trioLinks.begin(), trioLinks.end(), l) == trioLinks.end()) {
          trioLinks.push_back(l);
        }
      }
    }
    ASSERT_EQ(trioLinks.size(), 1u) << where;
    EXPECT_EQ(got.link(trioLinks[0]).a, topo.nodeOf(sats[2])) << where;
    EXPECT_EQ(got.link(trioLinks[0]).b, topo.nodeOf(sats[0])) << where;
  }
}

// --- Step/delta semantics --------------------------------------------------

TEST(IncrementalTopology, RepeatedTimestampSharesGraph) {
  Rng rng(11);
  const auto sc = makeScenario(rng, 4, 6, 1, 1);
  SnapshotOptions opt = optsFor(IslWiring::PlusGrid, 4, rng);
  IncrementalTopology inc(*sc->topo, opt);
  inc.step(100.0);
  const auto first = inc.graph();
  const TopologyDelta& d = inc.step(100.0);
  EXPECT_FALSE(d.structural);
  EXPECT_EQ(d.costChangedLinks, 0u);
  EXPECT_EQ(d.addedLinks, 0u);
  EXPECT_EQ(d.unchangedLinks, d.linkCount);
  // Bitwise-identical step: the graph object itself is reused, not copied.
  EXPECT_EQ(inc.graph().get(), first.get());
  EXPECT_EQ(inc.stepCount(), 2u);
}

TEST(IncrementalTopology, HopCostStepsAreNotStructuralUnderStaticLinks) {
  // Hop cost is constant, so a persisting link set patches zero payloads
  // only if the geometry payloads (delay, capacity) were also unchanged —
  // which they are not between distinct times. The delta must still notice
  // the payload drift even though the *cost* is static.
  Rng rng(12);
  const auto sc = makeScenario(rng, 4, 6, 0, 0);
  SnapshotOptions opt = optsFor(IslWiring::PlusGrid, 4, rng);
  opt.includeGroundStations = false;
  opt.includeUserLinks = false;
  IncrementalTopology inc(*sc->topo, opt, hopCostModel());
  inc.step(0.0);
  const TopologyDelta& d = inc.step(1.0);
  if (!d.structural) {
    EXPECT_EQ(d.costChangedLinks + d.unchangedLinks, d.linkCount);
    EXPECT_GT(d.costChangedLinks, 0u);
  }
}

TEST(IncrementalTopology, RegistryFreeze) {
  Rng rng(13);
  const auto sc = makeScenario(rng, 4, 6, 1, 1);
  const SnapshotOptions opt = optsFor(IslWiring::NearestNeighbors, 4, rng);
  IncrementalTopology inc(*sc->topo, opt);
  inc.step(0.0);
  sc->topo->addUser({"late", Geodetic::fromDegrees(0.0, 0.0), ProviderId{1}});
  EXPECT_THROW(inc.step(1.0), StateError);
}

TEST(IncrementalTopology, PlusGridValidation) {
  Rng rng(14);
  const auto sc = makeScenario(rng, 4, 6, 0, 0);
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 0;  // missing plane geometry
  EXPECT_THROW(IncrementalTopology(*sc->topo, opt), InvalidArgumentError);
  opt.planes = 5;  // does not divide 24
  EXPECT_THROW(IncrementalTopology(*sc->topo, opt), InvalidArgumentError);
}

TEST(IncrementalTopology, DegeneratePlusGridSelfPairThrows) {
  // Two planes of one slot each: the intra-plane ring neighbor of slot 0
  // is slot 0 itself. The shared link enumerator rejects the degenerate
  // grid eagerly, for the snapshot and the incremental pipeline alike,
  // instead of emitting a self-loop.
  EphemerisService eph;
  WalkerConfig cfg;
  cfg.totalSatellites = 2;
  cfg.planes = 2;
  cfg.altitudeM = km(780.0);
  cfg.inclinationRad = deg2rad(86.4);
  for (const auto& el : makeWalkerStar(cfg)) eph.publish(ProviderId{1}, el);
  const TopologyBuilder topo(eph);
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 2;
  const auto messageOf = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const InvalidArgumentError& e) {
      return e.what();
    }
    return "no InvalidArgumentError";
  };
  const std::string fromDelta =
      messageOf([&] { IncrementalTopology inc(topo, opt); });
  const std::string fromSnapshot = messageOf([&] { topo.snapshot(0.0, opt); });
  EXPECT_NE(fromDelta.find("wires a satellite to itself"), std::string::npos)
      << fromDelta;
  EXPECT_EQ(fromSnapshot, fromDelta);
}

TEST(SnapshotOptionsValidation, BadRangeOrMaskThrowsFromBothPaths) {
  Rng rng(16);
  const auto sc = makeScenario(rng, 4, 6, 1, 1);
  const auto expectBothThrow = [&](const SnapshotOptions& opt) {
    EXPECT_THROW(sc->topo->snapshot(100.0, opt), InvalidArgumentError);
    EXPECT_THROW(IncrementalTopology(*sc->topo, opt), InvalidArgumentError);
  };
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  SnapshotOptions nn;
  nn.wiring = IslWiring::NearestNeighbors;
  SnapshotOptions bad = nn;
  bad.maxIslRangeM = kNaN;  // every `dist > range` test would be false
  expectBothThrow(bad);
  bad = nn;
  bad.maxIslRangeM = -1.0;
  expectBothThrow(bad);
  bad = nn;
  bad.maxIslRangeM = 0.0;
  expectBothThrow(bad);
  SnapshotOptions grid;
  grid.wiring = IslWiring::PlusGrid;
  grid.planes = 4;
  bad = grid;
  bad.maxIslRangeM = kNaN;
  expectBothThrow(bad);
  bad = grid;
  bad.minElevationRad = kNaN;  // `elev < mask` would pass every satellite
  expectBothThrow(bad);
  bad = nn;
  bad.minElevationRad = kNaN;
  expectBothThrow(bad);
}

TEST(IncrementalTopology, NullCostModelThrows) {
  Rng rng(15);
  const auto sc = makeScenario(rng, 4, 6, 0, 0);
  const SnapshotOptions opt = optsFor(IslWiring::AllInRange, 4, rng);
  TemporalCostModel broken;  // default-constructed: null callbacks
  EXPECT_THROW(IncrementalTopology(*sc->topo, opt, std::move(broken)),
               InvalidArgumentError);
}

// --- Route repair ----------------------------------------------------------

/// Repaired trees must equal fresh trees node-for-node: bitwise-equal dist
/// arrays and identical parent edges. Run a delta sweep keeping one tree
/// alive per source and repairing it each step.
void expectRepairEqualsFresh(const TemporalCostModel& model, std::uint64_t seed,
                             std::size_t* repairedSteps) {
  Rng rng(seed);
  const auto sc = makeScenario(rng, 4, 6, 2, 2);
  SnapshotOptions opt = optsFor(IslWiring::PlusGrid, 4, rng);
  IncrementalTopology inc(*sc->topo, opt, model);

  const std::vector<NodeId> sources = {
      sc->topo->nodeOf(sc->eph.satellites().front()),
      sc->topo->stationSites().front().node,
      sc->topo->userSites().front().node,
  };
  std::vector<PathTree> trees(sources.size());
  double t = 0.0;
  for (int k = 0; k < 16; ++k) {
    inc.step(t);
    const RouteEngine engine(inc.graph());
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const PathTree fresh = engine.shortestPathTree(sources[s]);
      if (!trees[s].valid()) {
        trees[s] = fresh;
        continue;
      }
      TreeRepairStats stats;
      const PathTree repaired = engine.repairShortestPathTree(trees[s], &stats);
      if (stats.repaired) ++*repairedSteps;
      ASSERT_EQ(repaired.source(), fresh.source());
      ASSERT_EQ(repaired.distByIndex().size(), fresh.distByIndex().size());
      for (std::size_t i = 0; i < fresh.distByIndex().size(); ++i) {
        ASSERT_EQ(bitsOf(repaired.distByIndex()[i]),
                  bitsOf(fresh.distByIndex()[i]))
            << "seed=" << seed << " t=" << t << " src=" << s << " node=" << i;
        ASSERT_EQ(repaired.parentEdgeByIndex()[i], fresh.parentEdgeByIndex()[i])
            << "seed=" << seed << " t=" << t << " src=" << s << " node=" << i;
      }
      trees[s] = repaired;
    }
    t += rng.uniform(2.0, 20.0);
  }
}

class RepairBitIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepairBitIdentity, HopCostRepairsStructuralChurn) {
  // Hop cost is static per link, so persisting links never reseed the
  // repair: only actual link churn (contacts opening/closing) perturbs the
  // tree, and the repair path must actually engage.
  std::size_t repaired = 0;
  expectRepairEqualsFresh(hopCostModel(), GetParam(), &repaired);
  EXPECT_GT(repaired, 0u);
}

TEST_P(RepairBitIdentity, DelayCostStaysCorrectUnderSeedFlood) {
  // Delay costs drift on every edge every step, so most repairs exceed the
  // seed budget and fall back to fresh runs — the result must be identical
  // either way.
  std::size_t repaired = 0;
  expectRepairEqualsFresh(delayCostModel(), GetParam(), &repaired);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairBitIdentity, ::testing::Values(31u, 32u, 33u));

TEST(RouteRepair, SameGraphIsIdentityAndCheap) {
  Rng rng(41);
  const auto sc = makeScenario(rng, 4, 6, 1, 1);
  const SnapshotOptions opt = optsFor(IslWiring::PlusGrid, 4, rng);
  IncrementalTopology inc(*sc->topo, opt);
  inc.step(0.0);
  const RouteEngine engine(inc.graph());
  const NodeId src = sc->topo->userSites().front().node;
  const PathTree tree = engine.shortestPathTree(src);
  TreeRepairStats stats;
  const PathTree again = engine.repairShortestPathTree(tree, &stats);
  EXPECT_TRUE(stats.repaired);
  EXPECT_EQ(stats.seedNodes, 0u);
  EXPECT_EQ(stats.queuePops, 0u);
  EXPECT_EQ(again.distByIndex(), tree.distByIndex());
}

TEST(RouteRepair, NodeTemplateMismatchFallsBack) {
  Rng rng(42);
  const auto scA = makeScenario(rng, 4, 6, 1, 1);
  const SnapshotOptions opt = optsFor(IslWiring::PlusGrid, 4, rng);
  IncrementalTopology incA(*scA->topo, opt);
  incA.step(0.0);
  const RouteEngine engineA(incA.graph());
  const NodeId src = scA->topo->nodeOf(scA->eph.satellites().front());
  const PathTree treeA = engineA.shortestPathTree(src);

  Rng rng2(43);
  const auto scB = makeScenario(rng2, 4, 6, 2, 1);  // extra station
  SnapshotOptions optB = optsFor(IslWiring::PlusGrid, 4, rng2);
  IncrementalTopology incB(*scB->topo, optB);
  incB.step(0.0);
  const RouteEngine engineB(incB.graph());
  TreeRepairStats stats;
  const PathTree repaired = engineB.repairShortestPathTree(treeA, &stats);
  EXPECT_FALSE(stats.repaired);
  EXPECT_STREQ(stats.fallbackReason, "node-set-changed");
  // Fallback result is still a correct fresh tree over engineB's graph.
  const PathTree fresh = engineB.shortestPathTree(src);
  EXPECT_EQ(repaired.distByIndex(), fresh.distByIndex());
}

TEST(RouteRepair, InvalidPreviousThrows) {
  Rng rng(44);
  const auto sc = makeScenario(rng, 4, 6, 0, 1);
  const SnapshotOptions opt = optsFor(IslWiring::AllInRange, 4, rng);
  IncrementalTopology inc(*sc->topo, opt);
  inc.step(0.0);
  const RouteEngine engine(inc.graph());
  EXPECT_THROW(engine.repairShortestPathTree(PathTree{}), InvalidArgumentError);
}

}  // namespace
}  // namespace openspace
