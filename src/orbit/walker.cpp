#include <openspace/orbit/walker.hpp>

#include <numbers>

#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>

namespace openspace {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

void validate(const WalkerConfig& cfg) {
  if (cfg.totalSatellites <= 0) {
    throw InvalidArgumentError("Walker: total satellite count must be > 0");
  }
  if (cfg.planes <= 0 || cfg.totalSatellites % cfg.planes != 0) {
    throw InvalidArgumentError("Walker: plane count must divide total satellites");
  }
  if (cfg.phasing < 0 || cfg.phasing >= cfg.planes) {
    throw InvalidArgumentError("Walker: phasing F must be in [0, planes)");
  }
  if (cfg.altitudeM <= 0.0) {
    throw InvalidArgumentError("Walker: altitude must be > 0");
  }
}

std::vector<OrbitalElements> makeWalker(const WalkerConfig& cfg, double raanSpreadRad) {
  validate(cfg);
  const int perPlane = cfg.totalSatellites / cfg.planes;
  std::vector<OrbitalElements> sats;
  sats.reserve(static_cast<std::size_t>(cfg.totalSatellites));
  for (int p = 0; p < cfg.planes; ++p) {
    const double raan = raanSpreadRad * static_cast<double>(p) /
                        static_cast<double>(cfg.planes);
    for (int s = 0; s < perPlane; ++s) {
      // In-plane even spacing plus the Walker inter-plane phase offset
      // F * 2*pi / T per plane index.
      const double phase = kTwoPi * static_cast<double>(s) /
                               static_cast<double>(perPlane) +
                           kTwoPi * static_cast<double>(cfg.phasing) *
                               static_cast<double>(p) /
                               static_cast<double>(cfg.totalSatellites);
      sats.push_back(OrbitalElements::circular(cfg.altitudeM, cfg.inclinationRad,
                                               raan, phase));
    }
  }
  return sats;
}

}  // namespace

std::vector<OrbitalElements> makeWalkerStar(const WalkerConfig& cfg) {
  return makeWalker(cfg, std::numbers::pi);  // planes over 180 degrees
}

std::vector<OrbitalElements> makeWalkerDelta(const WalkerConfig& cfg) {
  return makeWalker(cfg, kTwoPi);  // planes over 360 degrees
}

WalkerConfig iridiumConfig() {
  WalkerConfig cfg;
  cfg.totalSatellites = 66;
  cfg.planes = 6;
  cfg.phasing = 2;
  cfg.altitudeM = km(780.0);
  cfg.inclinationRad = deg2rad(86.4);
  return cfg;
}

WalkerConfig cboConfig() {
  WalkerConfig cfg;
  cfg.totalSatellites = 72;
  cfg.planes = 6;
  cfg.phasing = 1;
  cfg.altitudeM = km(780.0);
  cfg.inclinationRad = deg2rad(80.0);
  return cfg;
}

PlaneGrid::PlaneGrid(std::size_t satCount, int planes) {
  if (planes < 1 || satCount == 0 ||
      satCount % static_cast<std::size_t>(planes) != 0) {
    throw InvalidArgumentError(
        "PlaneGrid: plane count must be >= 1 and divide the fleet size");
  }
  planes_ = static_cast<std::size_t>(planes);
  perPlane_ = satCount / planes_;
}

PlaneId PlaneGrid::planeOf(std::size_t satIndex) const {
  if (satIndex >= planes_ * perPlane_) {
    throw InvalidArgumentError("PlaneGrid::planeOf: satellite index out of range");
  }
  return PlaneId{static_cast<PlaneId::rep_type>(satIndex / perPlane_)};
}

std::size_t PlaneGrid::slotOf(std::size_t satIndex) const {
  if (satIndex >= planes_ * perPlane_) {
    throw InvalidArgumentError("PlaneGrid::slotOf: satellite index out of range");
  }
  return satIndex % perPlane_;
}

std::size_t PlaneGrid::indexOf(PlaneId plane, std::size_t slot) const {
  if (plane.value() >= planes_) {
    throw InvalidArgumentError("PlaneGrid::indexOf: unknown plane");
  }
  return static_cast<std::size_t>(plane.value()) * perPlane_ + slot % perPlane_;
}

bool PlaneGrid::isSeamPlane(PlaneId plane) const noexcept {
  return static_cast<std::size_t>(plane.value()) + 1 == planes_;
}

PlaneId PlaneGrid::nextPlane(PlaneId plane) const noexcept {
  return isSeamPlane(plane) ? PlaneId{0}
                            : PlaneId{static_cast<PlaneId::rep_type>(
                                  plane.value() + 1)};
}

std::vector<std::pair<std::size_t, std::size_t>> plusGridPairs(
    const PlaneGrid& grid, bool interPlaneSeam) {
  const std::size_t n = grid.planeCount() * grid.satsPerPlane();
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(2 * n);
  for (std::size_t idx = 0; idx < n; ++idx) {
    const PlaneId plane = grid.planeOf(idx);
    const std::size_t slot = grid.slotOf(idx);
    pairs.emplace_back(idx, grid.indexOf(plane, slot + 1));
    if (!grid.isSeamPlane(plane) || interPlaneSeam) {
      pairs.emplace_back(idx, grid.indexOf(grid.nextPlane(plane), slot));
    }
  }
  return pairs;
}

std::vector<OrbitalElements> makeRandomConstellation(int n, double altitudeM,
                                                     Rng& rng) {
  if (n < 0) throw InvalidArgumentError("makeRandomConstellation: n must be >= 0");
  if (altitudeM <= 0.0) {
    throw InvalidArgumentError("makeRandomConstellation: altitude must be > 0");
  }
  std::vector<OrbitalElements> sats;
  sats.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Orbit-normal uniform on the sphere => unbiased random orbital planes.
    // acos(u) with u ~ U[-1,1] gives the inclination of such a plane.
    const double incl = std::acos(rng.uniform(-1.0, 1.0));
    const double raan = rng.uniform(0.0, kTwoPi);
    const double phase = rng.uniform(0.0, kTwoPi);
    sats.push_back(OrbitalElements::circular(altitudeM, incl, raan, phase));
  }
  return sats;
}

}  // namespace openspace
