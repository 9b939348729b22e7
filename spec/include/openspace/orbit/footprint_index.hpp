// The brute spherical-cap footprint test: the executable spec of
// FootprintIndex2's cap predicate (coverage/footprint_index.hpp).
//
// Every query scans the whole fleet with no spatial pruning. The brute
// coverage estimators (coverage/legacy.hpp) and the index property tests
// compare the library's FootprintIndex2 against it; FootprintIndex2 builds
// its per-satellite cap arrays with the same three expressions, so
// `covers()` agrees bit for bit.
#pragma once

#include <cstddef>
#include <vector>

#include <openspace/geo/vec3.hpp>

namespace openspace {

class ConstellationSnapshot;

/// Precomputed spherical-cap footprint test for surface points: satellite i
/// covers a surface point p (|p| == mean Earth radius) iff the central
/// angle between p and the sub-satellite direction is at most the
/// footprint half-angle at the query elevation mask. Reduces the per-
/// (sample, satellite) visibility test to one dot-product comparison.
class FootprintIndex {
 public:
  FootprintIndex(const ConstellationSnapshot& snapshot, double minElevationRad);

  std::size_t size() const noexcept { return cosHalfAngle_.size(); }
  double halfAngleRad(std::size_t i) const { return halfAngle_.at(i); }
  const Vec3& direction(std::size_t i) const { return direction_.at(i); }

  /// True if satellite i covers the surface point with unit direction
  /// `unitPoint` (ECI frame, matching the snapshot's positions).
  bool covers(const Vec3& unitPoint, std::size_t i) const noexcept {
    return unitPoint.dot(direction_[i]) >= cosHalfAngle_[i];
  }
  /// True if any satellite covers the point.
  bool anyCovers(const Vec3& unitPoint) const noexcept;
  /// Number of satellites covering the point, counting stops at
  /// `stopAfter` (pass size() for an exact count).
  int countCovering(const Vec3& unitPoint, int stopAfter) const noexcept;

 private:
  std::vector<Vec3> direction_;       ///< Unit sub-satellite directions.
  std::vector<double> cosHalfAngle_;  ///< cos(footprint half-angle).
  std::vector<double> halfAngle_;
};

}  // namespace openspace
