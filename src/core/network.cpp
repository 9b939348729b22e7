#include <openspace/core/network.hpp>

#include <openspace/geo/error.hpp>
#include <openspace/routing/engine.hpp>

namespace openspace {

ProviderId OpenSpaceNetwork::registerProvider(const std::string& name) {
  if (name.empty()) {
    throw InvalidArgumentError("registerProvider: name must be non-empty");
  }
  for (const auto& [id, existing] : names_) {
    if (existing == name) {
      throw InvalidArgumentError("registerProvider: duplicate name '" + name + "'");
    }
  }
  const ProviderId id{nextProviderValue_++};
  names_.emplace(id, name);
  return id;
}

const std::string& OpenSpaceNetwork::providerName(ProviderId id) const {
  const auto it = names_.find(id);
  if (it == names_.end()) {
    throw NotFoundError("providerName: unknown provider");
  }
  return it->second;
}

std::vector<ProviderId> OpenSpaceNetwork::providers() const {
  std::vector<ProviderId> out;
  out.reserve(names_.size());
  for (const auto& [id, name] : names_) out.push_back(id);
  return out;
}

namespace {
void requireProvider(const std::map<ProviderId, std::string>& names, ProviderId p) {
  if (!names.contains(p)) {
    throw NotFoundError("OpenSpaceNetwork: unknown provider id " +
                        std::to_string(p.value()));
  }
}
}  // namespace

std::vector<SatelliteId> OpenSpaceNetwork::launchWalkerStar(
    ProviderId owner, const WalkerConfig& cfg) {
  requireProvider(names_, owner);
  if (!groundAssets_.empty()) {
    throw StateError(
        "OpenSpaceNetwork: launch all satellites before adding ground assets "
        "(keeps node ids stable)");
  }
  std::vector<SatelliteId> ids;
  for (const auto& el : makeWalkerStar(cfg)) {
    ids.push_back(ephemeris_.publish(owner, el));
  }
  invalidate();
  return ids;
}

std::vector<SatelliteId> OpenSpaceNetwork::launchRandom(ProviderId owner, int n,
                                                        double altitudeM,
                                                        std::uint64_t seed) {
  requireProvider(names_, owner);
  if (!groundAssets_.empty()) {
    throw StateError(
        "OpenSpaceNetwork: launch all satellites before adding ground assets");
  }
  Rng rng(seed);
  std::vector<SatelliteId> ids;
  for (const auto& el : makeRandomConstellation(n, altitudeM, rng)) {
    ids.push_back(ephemeris_.publish(owner, el));
  }
  invalidate();
  return ids;
}

SatelliteId OpenSpaceNetwork::launchSatellite(ProviderId owner,
                                              const OrbitalElements& el) {
  requireProvider(names_, owner);
  if (!groundAssets_.empty()) {
    throw StateError(
        "OpenSpaceNetwork: launch all satellites before adding ground assets");
  }
  const SatelliteId id = ephemeris_.publish(owner, el);
  invalidate();
  return id;
}

void OpenSpaceNetwork::equipLaserTerminal(SatelliteId id) {
  if (!ephemeris_.contains(id)) {
    throw NotFoundError("equipLaserTerminal: unknown satellite");
  }
  LinkCapabilities caps;
  caps.islBands = {Band::S, Band::Uhf};
  caps.hasLaserTerminal = true;
  caps.maxIslCount = 4;
  capOverrides_[id] = caps;
  if (builder_) builder_->setCapabilities(id, caps);
}

NodeId OpenSpaceNetwork::addGroundAsset(bool isStation, ProviderId owner,
                                        const std::string& name,
                                        const Geodetic& location) {
  requireProvider(names_, owner);
  groundAssets_.push_back({isStation, GroundSite{name, location, owner}, NodeId{}});
  const std::size_t idx = groundAssets_.size() - 1;
  // builder() replays groundAssets_ when it (re)constructs, which already
  // includes the entry just pushed; only add explicitly when the builder
  // pre-existed this call.
  TopologyBuilder& b = builder();
  NodeId node;
  const auto it = assetNodes_.find(idx);
  if (it != assetNodes_.end()) {
    node = it->second;
  } else {
    node = isStation ? b.nodeOf(b.addGroundStation(groundAssets_[idx].site))
                     : b.addUser(groundAssets_[idx].site);
    assetNodes_[idx] = node;
  }
  groundAssets_[idx].assignedNode = node;
  return node;
}

NodeId OpenSpaceNetwork::addGroundStation(ProviderId owner,
                                          const std::string& name,
                                          const Geodetic& location) {
  return addGroundAsset(true, owner, name, location);
}

NodeId OpenSpaceNetwork::addUser(ProviderId owner, const std::string& name,
                                 const Geodetic& location) {
  return addGroundAsset(false, owner, name, location);
}

TopologyBuilder& OpenSpaceNetwork::builder() const {
  if (!builder_) {
    builder_ = std::make_unique<TopologyBuilder>(ephemeris_);
    for (const auto& [sid, caps] : capOverrides_) {
      builder_->setCapabilities(sid, caps);
    }
    assetNodes_.clear();
    for (std::size_t i = 0; i < groundAssets_.size(); ++i) {
      const auto& asset = groundAssets_[i];
      const NodeId node =
          asset.isStation
              ? builder_->nodeOf(builder_->addGroundStation(asset.site))
              : builder_->addUser(asset.site);
      assetNodes_[i] = node;
    }
  }
  return *builder_;
}

NetworkGraph OpenSpaceNetwork::topologyAt(double tSeconds,
                                          const SnapshotOptions& opt) const {
  return builder().snapshot(tSeconds, opt);
}

Route OpenSpaceNetwork::route(NodeId src, NodeId dst, double tSeconds,
                              QosClass qos, const SnapshotOptions& opt) const {
  const NetworkGraph g = topologyAt(tSeconds, opt);
  return RouteEngine(g, makeCostFunction(CostWeights::forQos(qos)))
      .shortestPath(src, dst);
}

NodeId OpenSpaceNetwork::nodeOf(SatelliteId id) const { return builder().nodeOf(id); }

double OpenSpaceNetwork::coverageAt(double tSeconds, double minElevationRad,
                                    int samples, std::uint64_t seed) const {
  std::vector<OrbitalElements> sats;
  sats.reserve(ephemeris_.size());
  for (const SatelliteId sid : ephemeris_.satellites()) {
    sats.push_back(ephemeris_.record(sid).elements);
  }
  Rng rng(seed);
  return monteCarloCoverage(sats, tSeconds, minElevationRad, samples, rng)
      .coverageFraction;
}

}  // namespace openspace
