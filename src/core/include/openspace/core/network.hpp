// OpenSpaceNetwork — the library facade.
//
// One object through which a downstream user assembles and queries an
// OpenSpace deployment: register providers, launch constellations, equip
// terminals, place ground assets, snapshot the topology, route, and
// estimate coverage. Internally delegates to the ephemeris, topology,
// routing and coverage modules; use those directly for finer control.
#pragma once

#include <map>
#include <memory>
#include <string>

#include <openspace/coverage/coverage.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/route.hpp>
#include <openspace/topology/builder.hpp>

namespace openspace {

class OpenSpaceNetwork {
 public:
  OpenSpaceNetwork() = default;

  /// Register a provider by name; returns its id. Names must be unique and
  /// non-empty (InvalidArgumentError otherwise).
  ProviderId registerProvider(const std::string& name);

  const std::string& providerName(ProviderId id) const;
  std::vector<ProviderId> providers() const;

  /// Launch a Walker Star constellation for `owner`. Returns satellite ids.
  std::vector<SatelliteId> launchWalkerStar(ProviderId owner,
                                            const WalkerConfig& cfg);

  /// Launch `n` satellites on random orbits for `owner` (uncoordinated
  /// small-provider fleets).
  std::vector<SatelliteId> launchRandom(ProviderId owner, int n,
                                        double altitudeM, std::uint64_t seed);

  /// Launch a single satellite on explicit elements.
  SatelliteId launchSatellite(ProviderId owner, const OrbitalElements& el);

  /// Give a satellite laser ISL capability (RF remains mandatory).
  void equipLaserTerminal(SatelliteId id);

  NodeId addGroundStation(ProviderId owner, const std::string& name,
                          const Geodetic& location);
  NodeId addUser(ProviderId owner, const std::string& name,
                 const Geodetic& location);

  /// Topology snapshot at time t.
  NetworkGraph topologyAt(double tSeconds, const SnapshotOptions& opt = {}) const;

  /// Route between two nodes in the time-t snapshot under a QoS class.
  Route route(NodeId src, NodeId dst, double tSeconds,
              QosClass qos = QosClass::Standard,
              const SnapshotOptions& opt = {}) const;

  /// NodeId for a satellite in snapshots.
  NodeId nodeOf(SatelliteId id) const;

  /// Instantaneous Monte-Carlo coverage fraction of the whole fleet.
  double coverageAt(double tSeconds, double minElevationRad, int samples,
                    std::uint64_t seed) const;

  const EphemerisService& ephemeris() const noexcept { return ephemeris_; }
  std::size_t satelliteCount() const noexcept { return ephemeris_.size(); }

 private:
  struct GroundAsset {
    bool isStation;
    GroundSite site;
    NodeId assignedNode{};  ///< Stable across builder rebuilds.
  };

  TopologyBuilder& builder() const;
  void invalidate() noexcept { builder_.reset(); }
  NodeId addGroundAsset(bool isStation, ProviderId owner,
                        const std::string& name, const Geodetic& location);

  EphemerisService ephemeris_;
  std::map<ProviderId, std::string> names_;
  std::map<SatelliteId, LinkCapabilities> capOverrides_;
  std::vector<GroundAsset> groundAssets_;
  ProviderId::rep_type nextProviderValue_ = 1;
  mutable std::unique_ptr<TopologyBuilder> builder_;
  mutable std::map<std::size_t, NodeId> assetNodes_;  ///< asset idx -> node.
};

}  // namespace openspace
