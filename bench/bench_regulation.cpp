// §5(3) study: the price of regulatory compliance.
//
// Users homed in three jurisdictions route to the Internet under (a) no
// constraints and (b) the example regime's spectrum + data-egress rules.
// The table reports reachable gateways and the latency penalty compliance
// imposes — the quantified version of the paper's "regulatory challenges"
// discussion.
#include <cstdio>

#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/regulation/regime.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/topology/builder.hpp>

int main() {
  using namespace openspace;

  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);

  struct UserSite {
    const char* name;
    Geodetic loc;
    RegionId region;
  };
  const UserSite users[] = {
      {"pittsburgh", Geodetic::fromDegrees(40.44, -79.99), 1},
      {"paris", Geodetic::fromDegrees(48.86, 2.35), 2},
      {"tokyo", Geodetic::fromDegrees(35.68, 139.69), 3},
  };
  std::vector<NodeId> userNodes;
  for (const auto& u : users) {
    userNodes.push_back(topo.addUser({u.name, u.loc, ProviderId{1}}));
  }
  // Gateways in all three regions.
  const std::vector<std::pair<const char*, Geodetic>> gateways = {
      {"seattle-gw", Geodetic::fromDegrees(47.61, -122.33)},
      {"saopaulo-gw", Geodetic::fromDegrees(-23.55, -46.63)},
      {"paris-gw", Geodetic::fromDegrees(48.86, 2.35)},
      {"nairobi-gw", Geodetic::fromDegrees(-1.29, 36.82)},
      {"osaka-gw", Geodetic::fromDegrees(34.69, 135.50)},
      {"sydney-gw", Geodetic::fromDegrees(-33.87, 151.21)},
  };
  std::vector<NodeId> gatewayNodes;
  for (const auto& [name, loc] : gateways) {
    gatewayNodes.push_back(topo.nodeOf(topo.addGroundStation({name, loc, ProviderId{2}})));
  }

  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);
  const NetworkGraph g = topo.snapshot(0.0, opt);
  const RegulatoryRegime regime = exampleGlobalRegime();

  std::printf("# Regulatory compliance study (Americas/EMEA/APAC regime)\n");
  std::printf("# Americas<->EMEA mutual trust; APAC strict localization\n\n");
  std::printf("%-12s %-16s %-16s %-16s %-16s\n", "user", "free_gateways",
              "legal_gateways", "free_ms", "compliant_ms");

  // One engine per (snapshot, cost model): the unconstrained one is shared
  // by every user, the compliant one depends on the user's region.
  const RouteEngine freeEngine(g, latencyCost());
  for (std::size_t u = 0; u < userNodes.size(); ++u) {
    const RouteEngine legalEngine(
        g, complianceConstrainedCost(latencyCost(), regime, users[u].region));

    int freeReach = 0, legalReach = 0;
    Route bestFree, bestLegal;
    for (const NodeId gw : gatewayNodes) {
      const Route rf = freeEngine.shortestPath(userNodes[u], gw);
      if (rf.valid()) {
        ++freeReach;
        if (rf.cost < bestFree.cost) bestFree = rf;
      }
      const Route rl = legalEngine.shortestPath(userNodes[u], gw);
      if (rl.valid()) {
        ++legalReach;
        if (rl.cost < bestLegal.cost) bestLegal = rl;
      }
    }
    if (bestLegal.valid()) {
      std::printf("%-12s %-16d %-16d %-16.2f %-16.2f\n", users[u].name,
                  freeReach, legalReach, toMilliseconds(bestFree.totalDelayS()),
                  toMilliseconds(bestLegal.totalDelayS()));
    } else {
      std::printf("%-12s %-16d %-16d %-16.2f %-16s\n", users[u].name, freeReach,
                  legalReach, toMilliseconds(bestFree.totalDelayS()),
                  "unreachable");
    }
  }

  std::printf("\n# landing fees for a 66-sat fleet across all regions: $%.0f\n",
              regime.totalLandingFeesUsd(66));
  std::printf("# Reading: compliance shrinks the gateway set (sharply for\n"
              "# data-localizing regions) and can only lengthen paths; the\n"
              "# fee line is the §3 licensing cost scaled across regimes.\n");
  return 0;
}
