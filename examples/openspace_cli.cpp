// openspace_cli — a small command-line front end over the library, the kind
// of tool an OpenSpace participant would script against.
//
//   $ ./openspace_cli generate 66 6 780 86.4 > fleet.txt
//   $ ./openspace_cli coverage fleet.txt 10
//   $ ./openspace_cli route fleet.txt 40.44 -79.99 48.86 2.35
//   $ ./openspace_cli flood fleet.txt
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include <openspace/coverage/coverage.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/io/ephemeris_io.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/routing/linkstate.hpp>
#include <openspace/topology/builder.hpp>

namespace {

using namespace openspace;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  openspace_cli generate <sats> <planes> <alt_km> <incl_deg>\n"
               "      emit a Walker Star ephemeris file on stdout\n"
               "  openspace_cli coverage <file> <mask_deg>\n"
               "      Monte-Carlo coverage of the fleet in <file>\n"
               "  openspace_cli route <file> <lat1> <lon1> <lat2> <lon2>\n"
               "      route between two ground sites over the fleet\n"
               "  openspace_cli flood <file>\n"
               "      LSA flood convergence over the fleet's ISL mesh\n");
  return 2;
}

EphemerisService loadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw NotFoundError("cannot open '" + path + "'");
  return loadEphemeris(in);
}

int cmdGenerate(int argc, char** argv) {
  if (argc != 6) return usage();
  WalkerConfig wc;
  wc.totalSatellites = std::atoi(argv[2]);
  wc.planes = std::atoi(argv[3]);
  wc.phasing = 1 % std::max(1, wc.planes);
  wc.altitudeM = km(std::atof(argv[4]));
  wc.inclinationRad = deg2rad(std::atof(argv[5]));
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(wc)) eph.publish(ProviderId{1}, el);
  saveEphemeris(eph, std::cout);
  return 0;
}

int cmdCoverage(int argc, char** argv) {
  if (argc != 4) return usage();
  const EphemerisService eph = loadFile(argv[2]);
  std::vector<OrbitalElements> sats;
  for (const SatelliteId sid : eph.satellites()) {
    sats.push_back(eph.record(sid).elements);
  }
  Rng rng(1);
  const auto cov = monteCarloCoverage(sats, 0.0, deg2rad(std::atof(argv[3])),
                                      20'000, rng);
  std::printf("satellites: %zu\ncoverage:   %.2f%%\n", sats.size(),
              100.0 * cov.coverageFraction);
  return 0;
}

int cmdRoute(int argc, char** argv) {
  if (argc != 7) return usage();
  const EphemerisService eph = loadFile(argv[2]);
  TopologyBuilder topo(eph);
  const NodeId a = topo.addUser(
      {"site-a", Geodetic::fromDegrees(std::atof(argv[3]), std::atof(argv[4])),
       ProviderId{1}});
  const NodeId b = topo.nodeOf(topo.addGroundStation(
      {"site-b", Geodetic::fromDegrees(std::atof(argv[5]), std::atof(argv[6])),
       ProviderId{2}}));
  SnapshotOptions opt;
  opt.wiring = IslWiring::NearestNeighbors;
  opt.nearestK = 4;
  opt.minElevationRad = deg2rad(10.0);
  const NetworkGraph g = topo.snapshot(0.0, opt);
  const Route r = RouteEngine(g, latencyCost()).shortestPath(a, b);
  if (!r.valid()) {
    std::printf("no path at t=0 (site out of coverage or mesh partitioned)\n");
    return 1;
  }
  std::printf("hops: %d\nlatency: %.2f ms\nbottleneck: %.1f Mbps\npath:", r.hops(),
              toMilliseconds(r.totalDelayS()), r.bottleneckBps / 1e6);
  for (const NodeId n : r.nodes) std::printf(" %s", g.node(n).name.c_str());
  std::printf("\n");
  return 0;
}

int cmdFlood(int argc, char** argv) {
  if (argc != 3) return usage();
  const EphemerisService eph = loadFile(argv[2]);
  TopologyBuilder topo(eph);
  SnapshotOptions opt;
  opt.wiring = IslWiring::NearestNeighbors;
  opt.nearestK = 4;
  const NetworkGraph g = topo.snapshot(0.0, opt);
  const auto sats = g.nodesOfKind(NodeKind::Satellite);
  if (sats.empty()) {
    std::printf("empty fleet\n");
    return 1;
  }
  const FloodReport rep = simulateLsaFlood(g, sats.front());
  std::printf("satellites reached: %d / %zu\nconvergence: %.1f ms\n"
              "messages: %d\n",
              rep.nodesReached, sats.size(),
              toMilliseconds(rep.convergenceTimeS), rep.messagesSent);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmdGenerate(argc, argv);
    if (cmd == "coverage") return cmdCoverage(argc, argv);
    if (cmd == "route") return cmdRoute(argc, argv);
    if (cmd == "flood") return cmdFlood(argc, argv);
  } catch (const openspace::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
