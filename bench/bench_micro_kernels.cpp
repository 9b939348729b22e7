// Microbenchmarks of the hot kernels: orbit propagation, topology snapshot,
// Dijkstra, Monte-Carlo coverage, ISL fleet discovery.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include <openspace/coverage/coverage.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/isl/fleet.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/routing/legacy.hpp>
#include <openspace/topology/builder.hpp>

namespace {

using namespace openspace;

void BM_Propagate(benchmark::State& state) {
  const auto el = OrbitalElements::circular(km(780.0), deg2rad(86.4), 0.3, 0.7);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(positionEci(el, t));
    t += 1.0;
  }
}
BENCHMARK(BM_Propagate);

void BM_KeplerEccentric(benchmark::State& state) {
  double m = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solveKepler(m, 0.7));
    m += 0.01;
  }
}
BENCHMARK(BM_KeplerEccentric);

void BM_Snapshot(benchmark::State& state) {
  EphemerisService eph;
  WalkerConfig wc = iridiumConfig();
  wc.totalSatellites = static_cast<int>(state.range(0));
  wc.planes = 6;
  wc.totalSatellites -= wc.totalSatellites % 6;
  for (const auto& el : makeWalkerStar(wc)) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  SnapshotOptions opt;
  opt.wiring = IslWiring::NearestNeighbors;
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.snapshot(t, opt));
    t += 10.0;
  }
}
BENCHMARK(BM_Snapshot)->Arg(24)->Arg(66)->Arg(120);

NetworkGraph iridiumPlusGridSnapshot(EphemerisService& eph) {
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  return topo.snapshot(0.0, opt);
}

/// Fixed pseudo-random (src, dst) satellite pairs so the engine and legacy
/// point-query benchmarks run an identical query schedule with no per-
/// iteration index arithmetic in the timed loop.
std::vector<std::pair<NodeId, NodeId>> dijkstraQueryPairs(const NetworkGraph& g) {
  const auto nodes = g.nodesOfKind(NodeKind::Satellite);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    pairs.emplace_back(nodes[i], nodes[(i * 7 + 13) % nodes.size()]);
  }
  return pairs;
}

/// Point-to-point Dijkstra on the production path: the snapshot is compiled
/// once into a RouteEngine and every query reuses its scratch arena.
void BM_Dijkstra(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const RouteEngine engine(g, latencyCost());
  const auto pairs = dijkstraQueryPairs(g);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(engine.shortestPath(src, dst));
  }
}
BENCHMARK(BM_Dijkstra);

/// The pre-engine reference path: hash-map graph walk, cost callback per
/// edge, fresh allocations per query. Kept for the before/after ratio.
void BM_DijkstraLegacy(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const auto cost = latencyCost();
  const auto pairs = dijkstraQueryPairs(g);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(legacy::shortestPath(g, src, dst, cost));
  }
}
BENCHMARK(BM_DijkstraLegacy);

/// Single-source Dijkstra proper: the full tree from one satellite. The
/// engine returns a compact PathTree (two flat arrays); the legacy reference
/// materializes a Route per reachable destination. Same query
/// schedule for both.
void BM_ShortestPathTree(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const RouteEngine engine(g, latencyCost());
  const auto nodes = g.nodesOfKind(NodeKind::Satellite);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.shortestPathTree(nodes[i++ % nodes.size()]));
  }
}
BENCHMARK(BM_ShortestPathTree);

void BM_ShortestPathTreeLegacy(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const auto cost = latencyCost();
  const auto nodes = g.nodesOfKind(NodeKind::Satellite);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        legacy::shortestPathTree(g, nodes[i++ % nodes.size()], cost));
  }
}
BENCHMARK(BM_ShortestPathTreeLegacy);

/// One-shot CSR compilation cost: what a RouteEngine constructor pays, once
/// per (snapshot, cost model), before any number of queries.
void BM_RouteEngineCompile(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const auto cost = latencyCost();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RouteEngine(g, cost));
  }
}
BENCHMARK(BM_RouteEngineCompile);

/// All-source tree batch over the process thread pool (deterministic
/// fan-out; results bit-identical to serial).
void BM_BatchTrees(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const RouteEngine engine(g, latencyCost());
  const auto sources = g.nodesOfKind(NodeKind::Satellite);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.batchShortestPathTrees(sources));
  }
}
BENCHMARK(BM_BatchTrees);

void BM_MonteCarloCoverage(benchmark::State& state) {
  const auto sats = makeWalkerStar(iridiumConfig());
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        monteCarloCoverage(sats, 0.0, deg2rad(10.0),
                           static_cast<int>(state.range(0)), rng));
  }
}
BENCHMARK(BM_MonteCarloCoverage)->Arg(500)->Arg(5000);

void BM_FleetDiscovery(benchmark::State& state) {
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  for (auto _ : state) {
    state.PauseTiming();
    IslFleet fleet(eph, FleetConfig{});
    state.ResumeTiming();
    benchmark::DoNotOptimize(fleet.runDiscoveryRound(0.0));
  }
}
BENCHMARK(BM_FleetDiscovery);

}  // namespace

BENCHMARK_MAIN();
