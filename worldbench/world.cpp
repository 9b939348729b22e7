#include "world.hpp"

#include <algorithm>
#include <string>

#include <openspace/auth/certificate.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/shells.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/sim/population.hpp>

namespace worldbench {

using namespace openspace;

namespace {

constexpr double kCertLifetimeS = 7.0 * 86'400.0;

ShellSpec shell(ShellKind kind, int t, int p, int f, double altM, double incDeg,
                double scale) {
  ShellSpec s;
  s.kind = kind;
  // Keep T a positive multiple of P (the Walker validity rule).
  const int scaled = static_cast<int>(static_cast<double>(t) * scale);
  s.walker = {std::max(p, scaled / p * p), p, f, altM, deg2rad(incDeg)};
  return s;
}

}  // namespace

ProviderId providerId(std::size_t index) {
  return ProviderId{static_cast<ProviderId::rep_type>(index + 1)};
}

std::size_t homeProviderOf(UserId user) {
  return static_cast<std::size_t>(user % kProviders);
}

std::size_t gatewayOwner(std::size_t gateway) { return gateway % kProviders; }

void publishIridium(EphemerisService& eph) {
  const WalkerConfig cfg = iridiumConfig();
  const std::vector<OrbitalElements> plan = makeWalkerStar(cfg);
  const PlaneGrid grid(plan.size(), cfg.planes);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto plane = static_cast<std::size_t>(grid.planeOf(i).value());
    eph.publish(providerId(plane % kProviders), plan[i]);
  }
}

void publishMegashell(EphemerisService& eph, double scale) {
  MultiShellConfig cfg;
  cfg.shells = {shell(ShellKind::Delta, 4320, 72, 25, km(550.0), 53.0, scale),
                shell(ShellKind::Delta, 3600, 60, 13, km(570.0), 70.0, scale),
                shell(ShellKind::Star, 2160, 36, 5, km(560.0), 86.4, scale)};
  const MultiShellFleet fleet(cfg);
  for (std::size_t s = 0; s < fleet.shellCount(); ++s) {
    const auto [begin, end] = fleet.shellRange(s);
    for (std::size_t i = begin; i < end; ++i) {
      eph.publish(providerId(s % kProviders), fleet.elements()[i]);
    }
  }
}

std::vector<NodeId> addGateways(TopologyBuilder& topo) {
  std::vector<NodeId> nodes;
  for (std::size_t g = 0; g < kGatewayCount; ++g) {
    const GatewaySite& site = kGatewaySites[g];
    nodes.push_back(topo.nodeOf(topo.addGroundStation(
        {site.name, Geodetic::fromDegrees(site.latDeg, site.lonDeg),
         providerId(gatewayOwner(g))})));
  }
  return nodes;
}

NetworkGraph ownershipGraph(const EphemerisService& eph, const TopologyBuilder& topo,
                            const std::vector<NodeId>& gateways) {
  NetworkGraph g;
  for (const SatelliteId sid : eph.satellites()) {
    Node n;
    n.id = topo.nodeOf(sid);
    n.kind = NodeKind::Satellite;
    n.provider = eph.record(sid).owner;
    n.satellite = sid;
    g.addNode(std::move(n));
  }
  for (std::size_t i = 0; i < gateways.size(); ++i) {
    const GatewaySite& site = kGatewaySites[i];
    Node n;
    n.id = gateways[i];
    n.kind = NodeKind::GroundStation;
    n.provider = providerId(gatewayOwner(i));
    n.name = site.name;
    n.location = Geodetic::fromDegrees(site.latDeg, site.lonDeg);
    g.addNode(std::move(n));
  }
  return g;
}

std::vector<SessionSeed> sampleSessionSeeds(std::size_t count, UserId firstUser,
                                            Rng& rng) {
  std::vector<CertificateAuthority> authorities;
  for (std::size_t p = 0; p < kProviders; ++p) {
    authorities.emplace_back(providerId(p), 0xB47C'5E55ull + p, kCertLifetimeS);
  }
  const std::vector<SampledUser> users =
      defaultWorldPopulation().sampleUsers(static_cast<int>(count), rng);
  std::vector<SessionSeed> seeds;
  seeds.reserve(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const UserId uid = firstUser + i;
    const Certificate cert =
        authorities[homeProviderOf(uid)].issue(uid, /*nowS=*/0.0);
    seeds.push_back(SessionSeed{uid, users[i].location, cert.expiresAtS, cert.tag});
  }
  return seeds;
}

ScenarioConfig scenarioConfig(std::size_t users, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.coordinatedWalker = true;
  cfg.minElevationRad = kMinElevationRad;
  cfg.seed = seed;
  for (std::size_t p = 0; p < kProviders; ++p) {
    cfg.providers.push_back({"provider" + std::to_string(p + 1), 22});
  }
  for (std::size_t g = 0; g < kGatewayCount; ++g) {
    const GatewaySite& site = kGatewaySites[g];
    cfg.stations.push_back({site.name,
                            Geodetic::fromDegrees(site.latDeg, site.lonDeg),
                            gatewayOwner(g)});
  }
  Rng rng(seed);
  const std::vector<SampledUser> sampled =
      defaultWorldPopulation().sampleUsers(static_cast<int>(users), rng);
  for (std::size_t u = 0; u < sampled.size(); ++u) {
    const auto uid = static_cast<UserId>(u + 1);
    cfg.users.push_back({"user" + std::to_string(uid), sampled[u].location,
                         homeProviderOf(uid)});
  }
  return cfg;
}

}  // namespace worldbench
