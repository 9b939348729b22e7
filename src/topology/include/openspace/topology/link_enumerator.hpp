// The link enumerator: which links a snapshot holds, in which order.
//
// The library's only link enumeration: TopologyBuilder::snapshot() adds one
// NetworkGraph link per LinkSpec it emits, IncrementalTopology diffs
// consecutive streams. ISLs come first (per IslWiring policy), then station
// links, then user links. The stream is pinned bit for bit to the test-side
// reference (spec/topology/reference_snapshot.hpp); DESIGN.md §13 lists the
// order and filter rules and argues why the two agree.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include <openspace/topology/builder.hpp>

namespace openspace {

class ConstellationSnapshot;

/// One snapshot link: the subset of Link that compileGraph() consumes.
/// LinkId is implicit (position p in a stream => LinkId p+1, matching
/// NetworkGraph::addLink's sequential assignment).
struct LinkSpec {
  NodeId a{};  ///< Satellite endpoint (the attempt's first index for ISLs).
  NodeId b{};  ///< Neighbor satellite or ground site.
  LinkType type = LinkType::IslRf;
  Band band = Band::S;
  double distanceM = 0.0;
  double propagationDelayS = 0.0;
  double queueingDelayS = 0.0;  ///< Always 0 for enumerated links.
  double capacityBps = 0.0;

  double totalDelayS() const noexcept {
    return propagationDelayS + queueingDelayS;
  }
};

/// Enumerates the links of one builder's snapshots under fixed options.
/// The builder's registry is read at construction and must not change
/// (enumerate() throws StateError); capabilities are re-read whenever
/// capabilitiesVersion() moves. Not thread-safe (per-instance scratch).
class LinkEnumerator {
 public:
  /// Throws InvalidArgumentError for a NaN or non-positive maxIslRangeM, a
  /// NaN minElevationRad, PlusGrid planes that do not divide a non-empty
  /// fleet, and a PlusGrid grid that wires a satellite to itself.
  LinkEnumerator(const TopologyBuilder& builder, const SnapshotOptions& opt);

  /// Replace `out` with the links of `snap` (a snapshot of the builder's
  /// ephemeris) in insertion order.
  void enumerate(const ConstellationSnapshot& snap, std::vector<LinkSpec>& out);

  /// A ground site the enumerator links: stations (Gsl) then users
  /// (UserLink) in registration order, each flag-gated by the options.
  struct Site {
    NodeId node;
    Vec3 ecef;
    LinkType type;
  };

  /// Satellite node ids in ephemeris order.
  const std::vector<NodeId>& satelliteNodes() const noexcept { return satNode_; }
  const std::vector<Site>& sites() const noexcept { return sites_; }

 private:
  void tryIsl(const std::vector<Vec3>& eci, std::size_t i, std::size_t j,
              std::vector<LinkSpec>& out);
  void groundLinks(const std::vector<Vec3>& satEcef,
                   std::vector<LinkSpec>& out) const;

  const TopologyBuilder& builder_;
  SnapshotOptions opt_;
  std::vector<SatelliteId> satIds_;
  std::vector<NodeId> satNode_;
  std::vector<char> satLaser_;  ///< Refreshed on a capabilities version move.
  std::uint64_t satLaserVersion_ = ~std::uint64_t{0};
  std::vector<Site> sites_;
  std::vector<std::pair<std::size_t, std::size_t>> plusGridPairs_;
  // Scratch reused across enumerate() calls.
  std::vector<std::vector<std::uint32_t>> acceptedIsl_;  ///< Per satellite.
  std::vector<std::pair<double, std::size_t>> nnCand_;
};

}  // namespace openspace
