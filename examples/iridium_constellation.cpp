// Figure 2(a) scenario as a runnable example: an Iridium-like Walker Star
// constellation whose six planes are owned by six independent providers,
// wired with +grid ISLs through the standardized pairing protocol, serving
// a globally distributed set of gateways.
//
//   $ ./iridium_constellation
#include <cstdio>

#include <openspace/coverage/coverage.hpp>
#include <openspace/econ/capex.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/isl/fleet.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/topology/builder.hpp>

int main() {
  using namespace openspace;

  // --- the democratized fleet: one provider per plane -------------------
  const WalkerConfig wc = iridiumConfig();
  const auto elements = makeWalkerStar(wc);
  const int perPlane = wc.totalSatellites / wc.planes;

  EphemerisService eph;
  for (std::size_t i = 0; i < elements.size(); ++i) {
    eph.publish(static_cast<ProviderId>(1 + static_cast<int>(i) / perPlane),
                elements[i]);
  }
  std::printf("constellation: %d satellites, %d planes, %.0f km, %d providers\n",
              wc.totalSatellites, wc.planes, wc.altitudeM / 1e3, wc.planes);

  // --- run the ISL establishment protocol fleet-wide ---------------------
  IslFleet fleet(eph, FleetConfig{});
  const auto established = fleet.runDiscoveryRound(0.0);
  int crossProvider = 0;
  for (const auto& l : established) {
    if (eph.record(l.a).owner != eph.record(l.b).owner) ++crossProvider;
  }
  std::printf("ISL discovery round: %zu links established (%d cross-provider)\n",
              established.size(), crossProvider);

  // --- topology + a trans-constellation route ---------------------------
  TopologyBuilder topo(eph);
  const NodeId tokyo = topo.nodeOf(topo.addGroundStation(
      {"tokyo-gw", Geodetic::fromDegrees(35.6762, 139.6503), ProviderId{1}}));
  const NodeId saoPaulo = topo.nodeOf(topo.addGroundStation(
      {"sao-paulo-gw", Geodetic::fromDegrees(-23.5505, -46.6333), ProviderId{4}}));

  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = wc.planes;
  opt.minElevationRad = deg2rad(10.0);
  const NetworkGraph g = topo.snapshot(0.0, opt);
  std::printf("snapshot: %zu nodes, %zu links\n", g.nodeCount(), g.linkCount());

  const Route r = RouteEngine(g, latencyCost()).shortestPath(tokyo, saoPaulo);
  if (r.valid()) {
    std::printf("Tokyo -> Sao Paulo: %d hops, %.2f ms propagation\n", r.hops(),
                toMilliseconds(r.propagationDelayS));
    int owners = 0;
    ProviderId prev{};
    for (const NodeId n : r.nodes) {
      const ProviderId p = g.node(n).provider;
      if (p != prev) {
        ++owners;
        prev = p;
      }
    }
    std::printf("path crosses %d ownership domains\n", owners);
  } else {
    std::printf("Tokyo -> Sao Paulo: no path at t=0\n");
  }

  // --- coverage + what the fleet costs each provider ---------------------
  Rng rng(3);
  const auto cov = monteCarloCoverage(elements, 0.0, deg2rad(10.0), 20'000, rng);
  std::printf("instantaneous coverage (10 deg mask): %.1f%%\n",
              100.0 * cov.coverageFraction);

  const auto costs = collaborationCosts(wc.planes, wc.totalSatellites, 6,
                                        rfOnlySatellite(), GroundStationCostModel{});
  std::printf("capex: monolith $%.0fM vs $%.0fM per collaborating provider\n",
              costs.monolithicCapexUsd / 1e6, costs.perProviderCapexUsd / 1e6);
  return 0;
}
