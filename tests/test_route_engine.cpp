// Property tests for the CSR RouteEngine against the legacy reference
// implementations (openspace::legacy), which serve as the executable
// specification: across randomized constellation snapshots and all three
// ISL wiring policies, engine routes must match legacy routes node-for-node
// and bit-for-bit in every accumulated QoS field, and the parallel batch
// API must be bit-identical to serial execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/routing/legacy.hpp>
#include <openspace/topology/builder.hpp>

namespace openspace {
namespace {

std::uint64_t bitsOf(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

/// Bit-exact route equality: identical node/link sequences and identical
/// IEEE bit patterns in every accumulated QoS field. EXPECT_* based so a
/// failure reports which field diverged.
void expectRoutesIdentical(const Route& got, const Route& want) {
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.links, want.links);
  EXPECT_EQ(bitsOf(got.cost), bitsOf(want.cost));
  EXPECT_EQ(bitsOf(got.propagationDelayS), bitsOf(want.propagationDelayS));
  EXPECT_EQ(bitsOf(got.queueingDelayS), bitsOf(want.queueingDelayS));
  EXPECT_EQ(bitsOf(got.bottleneckBps), bitsOf(want.bottleneckBps));
}

/// A randomized constellation snapshot: Walker geometry varied by seed,
/// ground stations and users scattered at random surface points, snapshot
/// taken at a random epoch. `wiring` selects the ISL policy; AllInRange
/// gets a smaller fleet to keep its O(n^2) closure tractable.
NetworkGraph randomSnapshot(IslWiring wiring, std::uint64_t seed,
                            EphemerisService& eph, Rng& rng) {
  WalkerConfig wc;
  wc.planes = 3 + static_cast<int>(seed % 4);  // 3..6 planes
  const int perPlane = wiring == IslWiring::AllInRange
                           ? 4
                           : 6 + static_cast<int>(seed % 6);  // 6..11
  wc.totalSatellites = wc.planes * perPlane;
  wc.phasing = static_cast<int>(seed % wc.planes);
  wc.altitudeM = km(rng.uniform(500.0, 1400.0));
  wc.inclinationRad = deg2rad(rng.uniform(53.0, 98.0));
  const auto els =
      (seed % 2 == 0) ? makeWalkerStar(wc) : makeWalkerDelta(wc);
  for (const auto& el : els) {
    eph.publish(ProviderId{1 + static_cast<std::uint32_t>(seed % 3)}, el);
  }

  TopologyBuilder topo(eph);
  for (int i = 0; i < 3; ++i) {
    GroundSite site;
    site.name = "gs" + std::to_string(i);
    site.location = rng.surfacePoint();
    site.provider = ProviderId{7};
    topo.addGroundStation(site);
  }
  for (int i = 0; i < 4; ++i) {
    GroundSite site;
    site.name = "user" + std::to_string(i);
    site.location = rng.surfacePoint();
    site.provider = ProviderId{8};
    topo.addUser(site);
  }

  SnapshotOptions opt;
  opt.wiring = wiring;
  opt.planes = wc.planes;
  opt.nearestK = 4;
  return topo.snapshot(rng.uniform(0.0, 6000.0), opt);
}

/// A cost model exercising every weight the compiled per-edge cost bakes in.
LinkCostFn richCost() {
  CostWeights w;
  w.latencyWeight = 1.0;
  w.bandwidthWeight = 1e5;
  w.hopPenalty = 1e-4;
  w.foreignPenalty = 2e-4;
  return makeCostFunction(w);
}

class EngineVsLegacy
    : public ::testing::TestWithParam<std::tuple<IslWiring, std::uint64_t>> {};

TEST_P(EngineVsLegacy, PointQueriesMatchBitForBit) {
  const auto [wiring, seed] = GetParam();
  EphemerisService eph;
  Rng rng(seed);
  const NetworkGraph g = randomSnapshot(wiring, seed, eph, rng);
  for (const LinkCostFn& cost : {latencyCost(), richCost()}) {
    const ProviderId home{1};
    const RouteEngine engine(g, cost, home);
    const auto& nodes = g.nodes();
    ASSERT_FALSE(nodes.empty());
    for (int q = 0; q < 40; ++q) {
      const NodeId src =
          nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
      const NodeId dst =
          nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
      const Route want = legacy::shortestPath(g, src, dst, cost, home);
      const Route got = engine.shortestPath(src, dst);
      ASSERT_EQ(got.valid(), want.valid())
          << "src=" << src.value() << " dst=" << dst.value();
      expectRoutesIdentical(got, want);
    }
  }
}

TEST_P(EngineVsLegacy, SingleSourceTreesMatch) {
  const auto [wiring, seed] = GetParam();
  EphemerisService eph;
  Rng rng(seed + 1000);
  const NetworkGraph g = randomSnapshot(wiring, seed, eph, rng);
  const auto cost = latencyCost();
  const RouteEngine engine(g, cost);
  const auto& nodes = g.nodes();
  for (int q = 0; q < 4; ++q) {
    const NodeId src =
        nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
    const auto want = legacy::shortestPathTree(g, src, cost);
    const PathTree tree = engine.shortestPathTree(src);
    ASSERT_TRUE(tree.valid());
    EXPECT_EQ(tree.source(), src);
    const auto& dist = tree.distByIndex();
    const auto reached = static_cast<std::size_t>(std::count_if(
        dist.begin(), dist.end(), [](double d) { return std::isfinite(d); }));
    ASSERT_EQ(reached, want.size());
    for (const auto& [dst, wantRoute] : want) {
      ASSERT_TRUE(tree.reaches(dst)) << "missing dst " << dst.value();
      EXPECT_EQ(bitsOf(tree.costTo(dst)), bitsOf(wantRoute.cost));
      expectRoutesIdentical(tree.routeTo(dst), wantRoute);
    }
  }
}

TEST_P(EngineVsLegacy, TrivialRoutesMatchBitForBit) {
  // src == dst is a special case in both implementations (an early return
  // in legacy, the dist-0 source in a tree); random pairs rarely draw it.
  const auto [wiring, seed] = GetParam();
  EphemerisService eph;
  Rng rng(seed + 4000);
  const NetworkGraph g = randomSnapshot(wiring, seed, eph, rng);
  const auto cost = richCost();
  const ProviderId home{1};
  const RouteEngine engine(g, cost, home);
  for (const NodeId n : g.nodes()) {
    const Route want = legacy::shortestPath(g, n, n, cost, home);
    ASSERT_TRUE(std::isinf(want.bottleneckBps));
    const Route got = engine.shortestPath(n, n);
    ASSERT_TRUE(got.valid());
    EXPECT_EQ(got.hops(), 0);
    expectRoutesIdentical(got, want);
    expectRoutesIdentical(engine.shortestPathTree(n).routeTo(n), want);
  }
}

TEST_P(EngineVsLegacy, YenKShortestMatch) {
  const auto [wiring, seed] = GetParam();
  EphemerisService eph;
  Rng rng(seed + 2000);
  const NetworkGraph g = randomSnapshot(wiring, seed, eph, rng);
  const auto cost = latencyCost();
  const RouteEngine engine(g, cost);
  const auto& nodes = g.nodes();
  for (int q = 0; q < 3; ++q) {
    const NodeId src =
        nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
    const NodeId dst =
        nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
    const auto want = legacy::kShortestPaths(g, src, dst, 5, cost);
    const auto got = engine.kShortestPaths(src, dst, 5);
    ASSERT_EQ(got.size(), want.size())
        << "src=" << src.value() << " dst=" << dst.value();
    for (std::size_t i = 0; i < want.size(); ++i) {
      expectRoutesIdentical(got[i], want[i]);
    }
  }
}

TEST_P(EngineVsLegacy, BatchParallelBitIdenticalToSerial) {
  const auto [wiring, seed] = GetParam();
  EphemerisService eph;
  Rng rng(seed + 3000);
  const NetworkGraph g = randomSnapshot(wiring, seed, eph, rng);
  const RouteEngine engine(g, latencyCost());
  const std::vector<NodeId> sources = g.nodesOfKind(NodeKind::Satellite);
  ASSERT_FALSE(sources.empty());

  const std::size_t pool = parallelThreadCount();
  setParallelThreadCount(1);
  const auto serial = engine.batchShortestPathTrees(sources);
  setParallelThreadCount(pool);
  const auto parallel = engine.batchShortestPathTrees(sources);

  ASSERT_EQ(serial.size(), sources.size());
  ASSERT_EQ(parallel.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(serial[i].source(), sources[i]);
    EXPECT_EQ(parallel[i].source(), sources[i]);
    const auto& ds = serial[i].distByIndex();
    const auto& dp = parallel[i].distByIndex();
    ASSERT_EQ(ds.size(), dp.size());
    for (std::size_t j = 0; j < ds.size(); ++j) {
      ASSERT_EQ(bitsOf(ds[j]), bitsOf(dp[j])) << "source " << i << " node " << j;
    }
    ASSERT_EQ(serial[i].parentEdgeByIndex(), parallel[i].parentEdgeByIndex());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Wirings, EngineVsLegacy,
    ::testing::Combine(::testing::Values(IslWiring::PlusGrid,
                                         IslWiring::NearestNeighbors,
                                         IslWiring::AllInRange),
                       ::testing::Values(1, 2, 3)));

// --- Arena reuse: repeated queries on one engine are stateless --------------

TEST(RouteEngineArena, RepeatedAndInterleavedQueriesAreStateless) {
  EphemerisService eph;
  Rng rng(42);
  const NetworkGraph g =
      randomSnapshot(IslWiring::NearestNeighbors, 4, eph, rng);
  const RouteEngine engine(g, latencyCost());
  const auto& nodes = g.nodes();
  const NodeId a = nodes.front();
  const NodeId b = nodes.back();
  const NodeId c = nodes[nodes.size() / 2];

  const Route first = engine.shortestPath(a, b);
  // Dirty every arena the engine owns: tree scratch, Yen's forbidden-node /
  // forbidden-edge masks, other point queries.
  (void)engine.shortestPathTree(c);
  (void)engine.kShortestPaths(b, c, 4);
  (void)engine.shortestPath(c, a);
  const Route again = engine.shortestPath(a, b);
  expectRoutesIdentical(again, first);

  // And a freshly-built engine agrees, so reuse leaks no state at all.
  const RouteEngine fresh(g, latencyCost());
  expectRoutesIdentical(fresh.shortestPath(a, b), first);
}

// --- Compile-time semantics -------------------------------------------------

TEST(RouteEngineCompile, ForbiddenEdgesMatchLegacyAvoidance) {
  EphemerisService eph;
  Rng rng(7);
  const NetworkGraph g = randomSnapshot(IslWiring::PlusGrid, 2, eph, rng);
  // Forbid RF ISLs outright (+inf): compiled out of the CSR, lazily skipped
  // by legacy — results must still agree.
  const LinkCostFn cost = [](const NetworkGraph& graph, const Link& l,
                             ProviderId) {
    if (l.type == LinkType::IslRf) {
      return std::numeric_limits<double>::infinity();
    }
    return l.totalDelayS();
  };
  const RouteEngine engine(g, cost);
  const auto& nodes = g.nodes();
  for (int q = 0; q < 20; ++q) {
    const NodeId src =
        nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
    const NodeId dst =
        nodes[static_cast<std::size_t>(rng.uniformInt(0, nodes.size() - 1))];
    expectRoutesIdentical(engine.shortestPath(src, dst),
                          legacy::shortestPath(g, src, dst, cost));
  }
}

TEST(RouteEngineCompile, NegativeCostThrowsAtCompile) {
  EphemerisService eph;
  Rng rng(9);
  const NetworkGraph g = randomSnapshot(IslWiring::PlusGrid, 2, eph, rng);
  const LinkCostFn bad = [](const NetworkGraph&, const Link&, ProviderId) {
    return -1.0;
  };
  EXPECT_THROW(RouteEngine(g, bad), InvalidArgumentError);
}

TEST(RouteEngineCompile, UnknownEndpointsThrow) {
  EphemerisService eph;
  Rng rng(11);
  const NetworkGraph g = randomSnapshot(IslWiring::PlusGrid, 2, eph, rng);
  const RouteEngine engine(g, latencyCost());
  const NodeId bogus{999'999};
  EXPECT_THROW((void)engine.shortestPath(g.nodes().front(), bogus),
               NotFoundError);
  EXPECT_THROW((void)engine.shortestPathTree(bogus), NotFoundError);
  EXPECT_THROW((void)engine.batchShortestPathTrees({g.nodes().front(), bogus}),
               NotFoundError);
  EXPECT_THROW((void)engine.kShortestPaths(bogus, g.nodes().front(), 2),
               NotFoundError);
  EXPECT_THROW((void)engine.kShortestPaths(g.nodes().front(),
                                           g.nodes().back(), 0),
               InvalidArgumentError);
}

}  // namespace
}  // namespace openspace
