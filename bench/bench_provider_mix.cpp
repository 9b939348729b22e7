// §5(1): "What is the precise mix of small and big satellite players that
// are needed to realize OpenSpace?" — the provider-diversity study the
// paper calls for. A fixed 72-satellite budget is split across K providers
// (from one monolith to 24 micro-operators); for each mix we report
// coverage, network connectivity, the capital any single participant must
// raise, and whether the revenue split makes the coalition self-enforcing.
#include <cstdio>

#include <openspace/coverage/coverage.hpp>
#include <openspace/econ/capex.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/econ/incentives.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/topology/builder.hpp>

int main() {
  using namespace openspace;
  const int totalSats = 72;
  const double altitude = km(780.0);
  const double mask = deg2rad(10.0);

  std::printf("# Provider-mix study: %d satellites split across K providers\n",
              totalSats);
  std::printf("# (uncoordinated random orbits per provider — the realistic\n"
              "#  multi-firm case; coverage via Monte Carlo)\n\n");
  std::printf("%-10s %-10s %-10s %-12s %-14s %-16s %-14s\n", "providers",
              "sats_each", "coverage", "conn_frac", "capex_$M_each",
              "coalition_$gain", "stable");

  for (const int k : {1, 2, 4, 6, 12, 24}) {
    const int satsEach = totalSats / k;
    Rng rng(static_cast<std::uint64_t>(k) * 101);

    // Build the pooled fleet and the coalition members.
    std::vector<CoalitionMember> members;
    EphemerisService eph;
    std::vector<OrbitalElements> all;
    for (int p = 0; p < k; ++p) {
      CoalitionMember m;
      m.name = "p" + std::to_string(p);
      m.fleet = makeRandomConstellation(satsEach, altitude, rng);
      for (const auto& el : m.fleet) {
        eph.publish(static_cast<ProviderId>(p + 1), el);
        all.push_back(el);
      }
      members.push_back(std::move(m));
    }

    // Coverage of the pooled fleet.
    Rng covRng(7);
    const double coverage =
        monteCarloCoverage(all, 0.0, mask, 8'000, covRng).coverageFraction;

    // Connectivity: fraction of satellite pairs with an ISL path at t=0.
    TopologyBuilder topo(eph);
    SnapshotOptions opt;
    opt.wiring = IslWiring::NearestNeighbors;
    opt.nearestK = 4;
    const NetworkGraph g = topo.snapshot(0.0, opt);
    const auto sats = g.nodesOfKind(NodeKind::Satellite);
    const PathTree tree =
        RouteEngine(g, latencyCost()).shortestPathTree(sats.front());
    double reachable = 0;
    for (const NodeId s : sats) {
      if (tree.reaches(s)) reachable += 1;
    }
    const double connFrac = reachable / static_cast<double>(sats.size());

    // Capital each provider must raise.
    const auto costs = collaborationCosts(k, totalSats, 6, rfOnlySatellite(),
                                          GroundStationCostModel{});

    // Incentive: coalition revenue gain over fragmented standalone revenue.
    Rng incRng(11);
    const auto analysis =
        analyzeCoalition(members, 100e6, 0.0, mask, 2'000, 30, incRng);
    const double gain =
        analysis.coalitionRevenueUsd - analysis.sumStandaloneRevenueUsd;

    std::printf("%-10d %-10d %-10.3f %-12.3f %-14.1f %-16.1f %-14s\n", k,
                satsEach, coverage, connFrac, costs.perProviderCapexUsd / 1e6,
                gain / 1e6, analysis.selfEnforcing() ? "yes" : "no");
  }

  std::printf("\n# Reading: pooled coverage/connectivity are independent of\n"
              "# the ownership split (the OpenSpace point), while per-provider\n"
              "# capital falls ~1/K and the coalition surplus (continuity\n"
              "# premium over patchwork fragments) grows with fragmentation —\n"
              "# small players gain most from interoperating.\n");
  return 0;
}
