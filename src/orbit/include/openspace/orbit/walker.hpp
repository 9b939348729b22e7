// Walker constellation generators.
//
// The paper's §4 simulation uses an Iridium-like Walker *Star* constellation
// (near-polar planes spread over 180 degrees of RAAN) and cites the CBO
// 72-satellite, 6-plane, 80-degree-inclination configuration. Walker *Delta*
// (planes over 360 degrees, e.g. Starlink shells) is provided for contrast.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include <openspace/core/ids.hpp>
#include <openspace/orbit/elements.hpp>

namespace openspace {

/// Parameters of a Walker constellation i:T/P/F.
struct WalkerConfig {
  int totalSatellites = 0;   ///< T: total satellite count.
  int planes = 0;            ///< P: number of orbital planes (must divide T).
  int phasing = 0;           ///< F: inter-plane phasing parameter in [0, P).
  double altitudeM = 0.0;    ///< Orbit altitude above mean-radius Earth.
  double inclinationRad = 0.0;
};

/// Generate a Walker Star constellation: P planes spread over 180 degrees of
/// RAAN (adjacent planes co-rotating except at the seam), T/P satellites
/// evenly phased per plane, inter-plane phase offset F*360/T degrees.
/// Satellite k*S+j is plane k, in-plane slot j. Throws InvalidArgumentError
/// on inconsistent parameters (P !| T, F outside [0,P), alt <= 0, ...).
std::vector<OrbitalElements> makeWalkerStar(const WalkerConfig& cfg);

/// Generate a Walker Delta constellation: planes spread over 360 degrees.
std::vector<OrbitalElements> makeWalkerDelta(const WalkerConfig& cfg);

/// The paper's baseline: Iridium (66 satellites, 6 planes, 780 km).
/// Inclination defaults to the real Iridium 86.4 degrees.
WalkerConfig iridiumConfig();

/// The CBO primer configuration the paper cites: 72 satellites, 12 per
/// plane in 6 planes, 80 degree inclination (altitude per CBO primer class,
/// we use 780 km to match the Iridium-like regime the paper simulates).
WalkerConfig cboConfig();

/// Plane/slot coordinates inside a Walker constellation.
///
/// makeWalkerStar/Delta lay satellites out as k*S+j == (plane k, slot j);
/// PlaneGrid makes that arithmetic typed so a PlaneId cannot be confused
/// with a satellite or slot index (the +grid ISL wiring is the consumer).
/// Throws InvalidArgumentError unless planes >= 1 divides satCount.
class PlaneGrid {
 public:
  PlaneGrid(std::size_t satCount, int planes);

  std::size_t planeCount() const noexcept { return planes_; }
  std::size_t satsPerPlane() const noexcept { return perPlane_; }

  /// Plane of a satellite index (0-based planes).
  PlaneId planeOf(std::size_t satIndex) const;
  /// In-plane slot of a satellite index.
  std::size_t slotOf(std::size_t satIndex) const;
  /// Satellite index of (plane, slot); the slot wraps modulo satsPerPlane
  /// (ring neighbors). Throws InvalidArgumentError for an unknown plane.
  std::size_t indexOf(PlaneId plane, std::size_t slot) const;
  /// True for the last plane (the Walker seam).
  bool isSeamPlane(PlaneId plane) const noexcept;
  /// The adjacent plane in RAAN order, wrapping across the seam.
  PlaneId nextPlane(PlaneId plane) const noexcept;

 private:
  std::size_t planes_ = 0;
  std::size_t perPlane_ = 0;
};

/// The +grid ISL attempts (i, j) in wiring order: per satellite index, its
/// ring neighbor (slot + 1), then its same-slot neighbor in the next plane
/// (not from the seam plane unless `interPlaneSeam`). Duplicates (2-slot
/// rings, 2-plane seams) and self-pairs (1-slot planes, a 1-plane seam) are
/// kept; consumers decide what they mean.
std::vector<std::pair<std::size_t, std::size_t>> plusGridPairs(
    const PlaneGrid& grid, bool interPlaneSeam);

/// Generate `n` satellites on independent random circular orbits at the
/// given altitude: inclination, RAAN and phase drawn uniformly. This is the
/// paper's §4 setup ("randomly distributing satellites' orbital paths") and
/// models uncoordinated orbits from many independent providers.
std::vector<OrbitalElements> makeRandomConstellation(int n, double altitudeM,
                                                     class Rng& rng);

}  // namespace openspace
