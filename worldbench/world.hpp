// Fleet, gateway and provider set-up shared by every world_tick workload.
//
// All three workloads run on the same six gateway sites, the same three
// providers and the same gateway ownership, so a difference between
// workloads is a difference of fleet size, wiring or user load — never of
// geography. Keep every workload's set-up going through this file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include <openspace/core/ids.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/orbit/ephemeris.hpp>
#include <openspace/session/session_table.hpp>
#include <openspace/sim/scenario.hpp>
#include <openspace/topology/builder.hpp>
#include <openspace/topology/graph.hpp>

namespace worldbench {

/// Providers in every workload; ProviderId{1..kProviders}.
inline constexpr std::size_t kProviders = 3;

/// Elevation mask for ground links, the coverage index and the session
/// sweep (the SweepConfig / ScenarioConfig default).
inline constexpr double kMinElevationRad = 0.1745;

openspace::ProviderId providerId(std::size_t index);

/// Home provider index of a user (round-robin over user ids).
std::size_t homeProviderOf(openspace::UserId user);

/// Six gateway sites, two per provider: gateway g belongs to provider
/// g % kProviders.
struct GatewaySite {
  const char* name;
  double latDeg;
  double lonDeg;
};
inline constexpr GatewaySite kGatewaySites[] = {
    {"paris", 48.86, 2.35},       {"denver", 39.74, -104.99},
    {"jburg", -26.20, 28.05},     {"sydney", -33.87, 151.21},
    {"saopaulo", -23.55, -46.63}, {"tokyo", 35.68, 139.69},
};
inline constexpr std::size_t kGatewayCount = std::size(kGatewaySites);
std::size_t gatewayOwner(std::size_t gateway);

/// The paper's §4 Iridium Walker Star (66 satellites, 6 planes); plane k
/// belongs to provider k % kProviders.
void publishIridium(openspace::EphemerisService& eph);

/// bench_scale's 10k tier (3 shells, 10,080 satellites at scale 1); shell s
/// belongs to provider s. `scale` shrinks every shell (tiny test runs).
void publishMegashell(openspace::EphemerisService& eph, double scale);

/// Register the gateways; returns their node ids in kGatewaySites order.
std::vector<openspace::NodeId> addGateways(openspace::TopologyBuilder& topo);

/// Node -> provider lookups for settlement: the fleet's satellites and the
/// gateways with their owners, and no links. Ownership is static, so one
/// graph built at set-up serves every tick.
openspace::NetworkGraph ownershipGraph(const openspace::EphemerisService& eph,
                                       const openspace::TopologyBuilder& topo,
                                       const std::vector<openspace::NodeId>& gateways);

/// `count` users drawn from defaultWorldPopulation(), with roaming
/// certificates from their home provider, user ids firstUser, firstUser+1...
std::vector<openspace::SessionSeed> sampleSessionSeeds(std::size_t count,
                                                       openspace::UserId firstUser,
                                                       openspace::Rng& rng);

/// The Scenario facade on the same sites: kProviders x 22 satellites on a
/// coordinated Walker, the gateways above, `users` population-sampled
/// users (home provider by homeProviderOf).
openspace::ScenarioConfig scenarioConfig(std::size_t users, std::uint64_t seed);

}  // namespace worldbench
