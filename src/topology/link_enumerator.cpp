#include <openspace/topology/link_enumerator.hpp>

#include <algorithm>
#include <cmath>

#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>
#include <openspace/orbit/walker.hpp>

namespace openspace {

namespace {

/// losClearanceM that makes lineOfSightClear() always true. NearestNeighbors
/// picks its k candidates by distance alone and sightline-tests only those,
/// so its candidates must be range-pruned but NOT LOS-pruned (or a blocked
/// near neighbor would be backfilled by a farther one).
constexpr double kNoLosClearanceM = -wgs84::kMeanRadiusM;

}  // namespace

LinkEnumerator::LinkEnumerator(const TopologyBuilder& builder,
                               const SnapshotOptions& opt)
    : builder_(builder), opt_(opt), satIds_(builder.ephemeris().satellites()) {
  if (!(opt_.maxIslRangeM > 0.0) || std::isnan(opt_.minElevationRad)) {
    throw InvalidArgumentError(
        "snapshot: maxIslRangeM must be > 0 and minElevationRad not NaN");
  }
  const std::size_t s = satIds_.size();
  if (opt_.wiring == IslWiring::PlusGrid) {
    if (opt_.planes <= 0 || s == 0 ||
        s % static_cast<std::size_t>(opt_.planes) != 0) {
      throw InvalidArgumentError(
          "snapshot: PlusGrid wiring requires planes dividing the fleet");
    }
    plusGridPairs_ = plusGridPairs(PlaneGrid(s, opt_.planes), opt_.interPlaneSeam);
    if (std::any_of(plusGridPairs_.begin(), plusGridPairs_.end(),
                    [](const auto& p) { return p.first == p.second; })) {
      throw InvalidArgumentError(
          "snapshot: PlusGrid wiring wires a satellite to itself "
          "(degenerate plane/slot counts)");
    }
  }
  for (const SatelliteId sid : satIds_) satNode_.push_back(builder_.nodeOf(sid));
  satLaser_.assign(s, 0);
  acceptedIsl_.resize(s);
  const auto addSites = [&](const std::vector<TopologyBuilder::SiteEntry>& sites,
                            LinkType type) {
    for (const auto& e : sites) {
      sites_.push_back({e.node, geodeticToEcef(e.site.location), type});
    }
  };
  if (opt_.includeGroundStations) addSites(builder_.stationSites(), LinkType::Gsl);
  if (opt_.includeUserLinks) addSites(builder_.userSites(), LinkType::UserLink);
}

void LinkEnumerator::tryIsl(const std::vector<Vec3>& eci, std::size_t i,
                            std::size_t j, std::vector<LinkSpec>& out) {
  const double dist = eci[i].distanceTo(eci[j]);
  if (dist > opt_.maxIslRangeM) return;
  if (!lineOfSightClear(eci[i], eci[j], km(80.0))) return;
  for (const std::uint32_t q : acceptedIsl_[i]) {
    if (q == j) return;  // only an accepted attempt makes a duplicate
  }
  const bool laser = opt_.preferLaser && satLaser_[i] != 0 && satLaser_[j] != 0;
  const double cap = islCapacityBps(dist, laser);
  if (cap <= 0.0) return;
  acceptedIsl_[i].push_back(static_cast<std::uint32_t>(j));
  acceptedIsl_[j].push_back(static_cast<std::uint32_t>(i));
  out.push_back({.a = satNode_[i],
                 .b = satNode_[j],
                 .type = laser ? LinkType::IslLaser : LinkType::IslRf,
                 .band = laser ? Band::Optical : Band::S,
                 .distanceM = dist,
                 .propagationDelayS = dist / kSpeedOfLightMps,
                 .capacityBps = cap});
}

void LinkEnumerator::groundLinks(const std::vector<Vec3>& satEcef,
                                 std::vector<LinkSpec>& out) const {
  // Horizon prefilter: the elevation's sign is the sign of
  // dot(site, sat - site), so a non-positive dot proves elev <= 0 < mask
  // and skips the exact test (DESIGN.md §13). Needs a strictly positive mask.
  const bool horizonPrefilter = opt_.minElevationRad > 0.0;
  for (const Site& site : sites_) {
    for (std::size_t i = 0; i < satEcef.size(); ++i) {
      if (horizonPrefilter && (satEcef[i] - site.ecef).dot(site.ecef) <= 0.0) {
        continue;
      }
      const double elev = elevationAngleRad(site.ecef, satEcef[i]);
      if (elev < opt_.minElevationRad) continue;
      const double dist = site.ecef.distanceTo(satEcef[i]);
      const double cap = (site.type == LinkType::Gsl)
                             ? gslCapacityBps(dist, elev)
                             : userLinkCapacityBps(dist, elev);
      if (cap <= 0.0) continue;
      out.push_back({.a = satNode_[i],
                     .b = site.node,
                     .type = site.type,
                     .band = Band::Ku,
                     .distanceM = dist,
                     .propagationDelayS = dist / kSpeedOfLightMps,
                     .capacityBps = cap});
    }
  }
}

void LinkEnumerator::enumerate(const ConstellationSnapshot& snap,
                               std::vector<LinkSpec>& out) {
  const std::size_t s = satIds_.size();
  // Registries only grow, so an equal site count means an unchanged one.
  const std::size_t siteCount =
      (opt_.includeGroundStations ? builder_.groundStationCount() : 0) +
      (opt_.includeUserLinks ? builder_.userCount() : 0);
  if (builder_.satelliteCount() != s || snap.size() != s ||
      siteCount != sites_.size()) {
    throw StateError(
        "LinkEnumerator: builder registry changed since construction");
  }
  out.clear();
  // Laser flags only move on setCapabilities(): refresh on a version change.
  if (const std::uint64_t v = builder_.capabilitiesVersion();
      v != satLaserVersion_) {
    for (std::size_t i = 0; i < s; ++i) {
      satLaser_[i] = builder_.capabilities(satIds_[i]).hasLaserTerminal;
    }
    satLaserVersion_ = v;
  }
  for (auto& accepted : acceptedIsl_) accepted.clear();
  const std::vector<Vec3>& eci = snap.eci();

  switch (opt_.wiring) {
    case IslWiring::PlusGrid:
      for (const auto& [i, j] : plusGridPairs_) tryIsl(eci, i, j, out);
      break;
    case IslWiring::NearestNeighbors: {
      // Every in-range neighbor is strictly closer than every out-of-range
      // one, so the k smallest (distance, index) pairs of an all-pairs scan
      // that survive the range filter are exactly the min(k, in-range)
      // smallest range-pruned candidates — same accepted set, same order.
      // The adjacency is built for this call only so no snapshot keeps it.
      const IslTopology topo =
          snap.buildIslTopology(opt_.maxIslRangeM, kNoLosClearanceM);
      const auto kMax = static_cast<std::size_t>(std::max(0, opt_.nearestK));
      for (std::size_t i = 0; i < s; ++i) {
        nnCand_.clear();
        for (const auto& [j, d] : topo.adjacency[i]) nnCand_.emplace_back(d, j);
        const std::size_t k = std::min(nnCand_.size(), kMax);
        std::partial_sort(nnCand_.begin(),
                          nnCand_.begin() + static_cast<std::ptrdiff_t>(k),
                          nnCand_.end());
        for (std::size_t q = 0; q < k; ++q) tryIsl(eci, i, nnCand_[q].second, out);
      }
      break;
    }
    case IslWiring::AllInRange: {
      const IslTopology topo = snap.buildIslTopology(opt_.maxIslRangeM);
      for (std::size_t i = 0; i < s; ++i) {
        for (const auto& [j, d] : topo.adjacency[i]) {
          if (j > i) tryIsl(eci, i, j, out);
        }
      }
      break;
    }
  }
  groundLinks(snap.ecef(), out);
}

}  // namespace openspace
