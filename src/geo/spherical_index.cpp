#include <openspace/geo/spherical_index.hpp>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>

#include <openspace/core/assert.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/spherical_index_simd.hpp>

namespace openspace {

namespace {

constexpr double kPi = std::numbers::pi;

/// Registration-side padding. These only have to absorb the rounding of
/// the index's own trigonometry (sin/asin/acos at build time, plus the
/// ~1-ulp difference between the pseudo-angle of a window endpoint and the
/// pseudo-angle of a query direction at the same longitude — both go
/// through the identical monotone map, so their order can only flip within
/// that rounding). Semantic padding for a caller's exact predicate is the
/// caller's job. Pads are applied outward on registration extents and
/// never on queries, preserving the superset guarantee.
constexpr double kZPad = 1e-12;
constexpr double kLonPadRad = 1e-9;

/// Pad (in pseudo-angle units) applied outward when converting a cell's
/// sector bounds back to directions for cellCornerDirs: 1e-9 pseudo-angle
/// dwarfs the ~1-ulp rounding of the forward map, so the returned corner
/// rectangle contains every direction that stabs the cell.
constexpr double kPseudoPad = 1e-9;

/// Longitude half-width of the cap at one query latitude: the largest
/// |delta lon| such that the great-circle angle from (centerLat, 0) to
/// (pointLat, delta lon) is still <= capRadius. Solved from the spherical
/// law of cosines: cos(capRadius) = sin(c)sin(p) + cos(c)cos(p)cos(dLon).
double capLonHalfWidthAtLatRad(double centerLatRad, double capRadiusRad,
                               double pointLatRad) {
  const double denom = std::cos(centerLatRad) * std::cos(pointLatRad);
  if (denom <= 1e-15) {
    // Query latitude (or the center) at a pole: longitude is degenerate
    // there, so every longitude must count.
    return kPi;
  }
  const double num =
      std::cos(capRadiusRad) - std::sin(centerLatRad) * std::sin(pointLatRad);
  const double c = num / denom;
  if (c <= -1.0) return kPi;  // whole latitude circle inside the cap
  if (c >= 1.0) return 0.0;   // latitude circle outside the cap's reach
  return std::acos(c);
}

/// Inverse of SphericalCapIndex's pseudo-angle map: the unit (x, y) whose
/// pseudo-angle is `a` (clamped to [-2, 2]). Piecewise-linear inverse of
/// t = y / (|x| + |y|) on the 1-norm circle, then normalized.
void pseudoAngleDir(double a, double& x, double& y) {
  a = std::clamp(a, -2.0, 2.0);
  double ux;
  double uy;
  if (a <= -1.0) {  // third quadrant: x <= 0, y <= 0
    ux = a + 1.0;
    uy = -2.0 - a;
  } else if (a >= 1.0) {  // second quadrant: x <= 0, y >= 0
    ux = 1.0 - a;
    uy = 2.0 - a;
  } else {  // x >= 0
    ux = 1.0 - std::abs(a);
    uy = a;
  }
  const double norm = std::hypot(ux, uy);
  x = ux / norm;
  y = uy / norm;
}

}  // namespace

double capLonHalfWidthRad(double centerLatRad, double capRadiusRad,
                          double latLoRad, double latHiRad) {
  if (latLoRad > latHiRad) std::swap(latLoRad, latHiRad);
  if (capRadiusRad >= kPi) return kPi;
  if (capRadiusRad < 0.0) return 0.0;
  double w = std::max(
      capLonHalfWidthAtLatRad(centerLatRad, capRadiusRad, latLoRad),
      capLonHalfWidthAtLatRad(centerLatRad, capRadiusRad, latHiRad));
  // The width as a function of query latitude is unimodal between the cap's
  // latitude extremes, peaking at the tangent latitude where the cap's
  // bounding meridians touch it: sin(phi*) = sin(centerLat) / cos(radius).
  // For radius >= pi/2 the formula degenerates (the cap covers a hemisphere
  // or more and can wrap a pole); be conservative there.
  const double cr = std::cos(capRadiusRad);
  if (cr <= 1e-12) return kPi;
  const double s = std::sin(centerLatRad) / cr;
  if (s >= -1.0 && s <= 1.0) {
    const double tangentLatRad = std::asin(s);
    if (tangentLatRad > latLoRad && tangentLatRad < latHiRad) {
      w = std::max(
          w, capLonHalfWidthAtLatRad(centerLatRad, capRadiusRad, tangentLatRad));
    }
  }
  return w;
}

SphericalCapIndex::SectorWindow SphericalCapIndex::sectorWindow(
    double centerLonRad, double halfWidthRad) const {
  SectorWindow w{0, static_cast<std::uint32_t>(sectors_)};
  // The endpoint sectors below determine the span only while the window's
  // complement is wider than any single sector: a nearly-full window (gap
  // 2*pi - 2*halfWidth narrower than the sector containing it) lands both
  // endpoints in that one sector and would masquerade as a single-sector
  // sliver. Sectors are uniform in pseudo-angle, and the true-angle width
  // of a sector is at most twice its pseudo-angle width (dtheta/da =
  // (|cos| + |sin|)^2 <= 2), i.e. <= 8/sectors_ rad — so any window whose
  // gap could fit inside one sector is treated as full-circle.
  const double maxSectorWidthRad = 8.0 / static_cast<double>(sectors_);
  if (halfWidthRad < kPi - 0.5 * maxSectorWidthRad) {
    // Window endpoints in true angle -> sectors via the same pseudo-angle
    // map queries use. The half-width already carries the registration
    // longitude pad, which dominates the rounding difference between this
    // conversion and a query's pseudoAngle(x, y) at the same longitude, so
    // no whole-sector expansion is needed. A wrapped window (lonLo > lonHi
    // after reduction) walks through the seam like any other.
    const double lonLo = std::remainder(centerLonRad - halfWidthRad, 2.0 * kPi);
    const double lonHi = std::remainder(centerLonRad + halfWidthRad, 2.0 * kPi);
    const std::size_t sLo = sectorOf(std::cos(lonLo), std::sin(lonLo));
    const std::size_t sHi = sectorOf(std::cos(lonHi), std::sin(lonHi));
    const std::size_t span = (sHi + sectors_ - sLo) % sectors_ + 1;
    if (span < sectors_) {
      w.start = static_cast<std::uint32_t>(sLo);
      w.count = static_cast<std::uint32_t>(span);
    }
  }
  return w;
}

SphericalCapIndex::SphericalCapIndex(const std::vector<Cap>& caps)
    : capCount_(caps.size()) {
  if (capCount_ >= 0xFFFFFFFFull) {
    throw InvalidArgumentError("SphericalCapIndex: cap count exceeds 32 bits");
  }
  centerLatRad_.resize(capCount_);
  centerLonRad_.resize(capCount_);
  std::vector<double> halfAngleRad(capCount_);
  double meanHalfAngleRad = 0.0;
  for (std::size_t i = 0; i < capCount_; ++i) {
    const Vec3& c = caps[i].unitCenter;
    centerLatRad_[i] = std::asin(std::clamp(c.z, -1.0, 1.0));
    centerLonRad_[i] = std::atan2(c.y, c.x);
    halfAngleRad[i] = std::clamp(caps[i].halfAngleRad, 0.0, kPi);
    meanHalfAngleRad += halfAngleRad[i];
  }
  // Cell size: a tenth of the mean cap radius for sparse fleets, coarser
  // as the fleet grows dense. Fine cells do two things: the per-cell
  // candidate lists hold little beyond the caps that truly reach their
  // points, and — more importantly for the Monte-Carlo sweeps — most
  // covered cells end up *entirely inside* some cap, which is what lets
  // FootprintIndex2's whole-cell certificates answer the bulk of queries
  // without touching a single cap.
  //
  // Two regimes (tests/test_footprint_index.cpp, CapIndexScaling):
  //  * Sparse (cap count up to ~800): registrations grow as
  //    (capRadius/cellSize)^2 per cap, so the sqrt(count) coarsening keeps
  //    the total entry count roughly constant while most cells are empty.
  //  * Dense: the coarsening must stop — per-cell lists cannot shrink
  //    below the fleet's intrinsic per-point cover count
  //    kappa = N * capAreaFraction, and a frozen grid inflates them by
  //    (1 + density)^2 over that floor while saving nothing (the old 0.6
  //    ceiling cost ~1.8x kappa at 66k caps). The 0.35 ceiling keeps the
  //    cell a fixed fraction of the cap radius: registrations per cap stay
  //    constant (~O(N) build, entries within a fixed multiple of N) and
  //    registrations per cell stay within ~1.3x of the kappa floor at any
  //    fleet size.
  if (capCount_ > 0) {
    meanHalfAngleRad /= static_cast<double>(capCount_);
    const double density =
        std::clamp(0.1 * std::sqrt(static_cast<double>(capCount_) / 66.0),
                   0.1, 0.35);
    const double cellRad = std::clamp(meanHalfAngleRad, 0.02, kPi) * density;
    bands_ = static_cast<std::size_t>(
        std::clamp(std::ceil(2.0 / cellRad), 13.0, 256.0));
    std::size_t sectors = 8;
    while (sectors < 4 * bands_ && sectors < 512) sectors *= 2;
    sectors_ = sectors;
  }

  // Register each cap in every cell its padded footprint touches. Two-pass
  // counting-sort build: pass one computes each (cap, band) sector window
  // once (all the trigonometry) and counts registrations per cell, pass
  // two fills the CSR from the recorded windows — no per-cell vectors, no
  // allocation churn on million-entry builds.
  struct BandWindow {
    std::uint32_t cap;
    std::uint32_t band;
    SectorWindow window;
  };
  std::vector<BandWindow> windows;
  windows.reserve(capCount_ * 2);
  std::vector<std::uint32_t> cellCountBuf(bands_ * sectors_, 0);
  for (std::size_t i = 0; i < capCount_; ++i) {
    const double lam = halfAngleRad[i];
    const double latLo = std::max(-kPi / 2.0, centerLatRad_[i] - lam);
    const double latHi = std::min(kPi / 2.0, centerLatRad_[i] + lam);
    const std::size_t bLo = bandOf(std::sin(latLo) - kZPad);
    const std::size_t bHi = bandOf(std::sin(latHi) + kZPad);
    for (std::size_t b = bLo; b <= bHi; ++b) {
      const double bandZLo =
          -1.0 + 2.0 * static_cast<double>(b) / static_cast<double>(bands_);
      const double bandZHi =
          -1.0 + 2.0 * static_cast<double>(b + 1) / static_cast<double>(bands_);
      double segLo = std::max(latLo, std::asin(std::clamp(bandZLo, -1.0, 1.0)));
      double segHi = std::min(latHi, std::asin(std::clamp(bandZHi, -1.0, 1.0)));
      if (segLo > segHi) {
        // Can only happen through the z padding at the extent's edge bands;
        // collapse to the nearer endpoint.
        segLo = segHi = std::clamp(centerLatRad_[i], segHi, segLo);
      }
      const double hw = std::min(
          kPi, capLonHalfWidthRad(centerLatRad_[i], lam, segLo, segHi) +
                   kLonPadRad);
      const SectorWindow w = sectorWindow(centerLonRad_[i], hw);
      windows.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(b), w});
      std::size_t s = w.start;
      for (std::uint32_t k = 0; k < w.count; ++k) {
        ++cellCountBuf[b * sectors_ + s];
        s = (s + 1 == sectors_) ? 0 : s + 1;
      }
    }
  }

  std::size_t total = 0;
  for (const std::uint32_t c : cellCountBuf) total += c;
  if (total >= 0xFFFFFFFFull) {
    throw InvalidArgumentError(
        "SphericalCapIndex: cell registrations exceed 32 bits");
  }
  cellStart_.assign(bands_ * sectors_ + 1, 0);
  std::uint32_t offset = 0;
  for (std::size_t c = 0; c < cellCountBuf.size(); ++c) {
    cellStart_[c] = offset;
    offset += cellCountBuf[c];
  }
  cellStart_[cellCountBuf.size()] = offset;
  cellEntry_.resize(total);
  // Reuse the count buffer as per-cell fill cursors. Windows were recorded
  // in ascending cap order, so every cell list comes out sorted (one
  // registration per cap per cell).
  std::copy(cellStart_.begin(), cellStart_.end() - 1, cellCountBuf.begin());
  for (const BandWindow& bw : windows) {
    std::size_t s = bw.window.start;
    for (std::uint32_t k = 0; k < bw.window.count; ++k) {
      cellEntry_[cellCountBuf[bw.band * sectors_ + s]++] = bw.cap;
      s = (s + 1 == sectors_) ? 0 : s + 1;
    }
  }
  OPENSPACE_ASSERT(
      capCount_ == 0 || cellCountBuf[bands_ * sectors_ - 1] ==
                            cellStart_[bands_ * sectors_],
      "cell fill matches CSR offsets");
}

void SphericalCapIndex::cellIndicesOf(const Vec3* unitDirs, std::size_t n,
                                      std::uint32_t* outCells) const {
  simd::cellIndices(simd::cellKernelLevel(), unitDirs, outCells, bands_,
                    sectors_, 0, n);
}

std::array<Vec3, 4> SphericalCapIndex::cellCornerDirs(std::size_t cell) const {
  OPENSPACE_ASSERT(cell < cellCount(), "cell index within the grid");
  const std::size_t b = cell / sectors_;
  const std::size_t s = cell % sectors_;
  const double zLo = std::clamp(
      -1.0 + 2.0 * static_cast<double>(b) / static_cast<double>(bands_) - kZPad,
      -1.0, 1.0);
  const double zHi = std::clamp(
      -1.0 +
          2.0 * static_cast<double>(b + 1) / static_cast<double>(bands_) +
          kZPad,
      -1.0, 1.0);
  const double aLo =
      -2.0 + 4.0 * static_cast<double>(s) / static_cast<double>(sectors_) -
      kPseudoPad;
  const double aHi =
      -2.0 + 4.0 * static_cast<double>(s + 1) / static_cast<double>(sectors_) +
      kPseudoPad;
  double xLo;
  double yLo;
  double xHi;
  double yHi;
  pseudoAngleDir(aLo, xLo, yLo);
  pseudoAngleDir(aHi, xHi, yHi);
  std::array<Vec3, 4> corners;
  const double zs[2] = {zLo, zHi};
  for (std::size_t k = 0; k < 2; ++k) {
    const double c = std::sqrt(std::max(0.0, 1.0 - zs[k] * zs[k]));
    corners[2 * k] = Vec3{xLo * c, yLo * c, zs[k]};
    corners[2 * k + 1] = Vec3{xHi * c, yHi * c, zs[k]};
  }
  return corners;
}

template <typename Fn>
void SphericalCapIndex::forEachDiscCell(double centerLatRad,
                                        double centerLonRad, double radiusRad,
                                        Fn&& fn) const {
  const double r = std::clamp(radiusRad, 0.0, kPi);
  const double latLo = std::max(-kPi / 2.0, centerLatRad - r);
  const double latHi = std::min(kPi / 2.0, centerLatRad + r);
  const std::size_t bLo = bandOf(std::sin(latLo) - kZPad);
  const std::size_t bHi = bandOf(std::sin(latHi) + kZPad);
  for (std::size_t b = bLo; b <= bHi; ++b) {
    const double bandZLo =
        -1.0 + 2.0 * static_cast<double>(b) / static_cast<double>(bands_);
    const double bandZHi =
        -1.0 + 2.0 * static_cast<double>(b + 1) / static_cast<double>(bands_);
    double segLo = std::max(latLo, std::asin(std::clamp(bandZLo, -1.0, 1.0)));
    double segHi = std::min(latHi, std::asin(std::clamp(bandZHi, -1.0, 1.0)));
    if (segLo > segHi) segLo = segHi = std::clamp(centerLatRad, segHi, segLo);
    const double w = std::min(
        kPi, capLonHalfWidthRad(centerLatRad, r, segLo, segHi) + kLonPadRad);
    // The same sector walk registration uses (sectorWindow, with its
    // near-full-window guard): every direction within the disc maps
    // (monotone pseudo-angle, pad-covered rounding) to one of these cells.
    const std::size_t base = b * sectors_;
    const SectorWindow win = sectorWindow(centerLonRad, w);
    std::size_t s = win.start;
    for (std::uint32_t k = 0; k < win.count; ++k) {
      fn(base + s);
      s = (s + 1 == sectors_) ? 0 : s + 1;
    }
  }
}

void SphericalCapIndex::neighborhoodCandidates(
    std::size_t i, double radiusRad, std::vector<std::uint32_t>& out) const {
  out.clear();
  OPENSPACE_ASSERT(i < capCount_, "cap index within the index");
  if (capCount_ <= 1) return;
  // A cap always registers in the cell containing its center, so walking
  // every cell the disc touches visits every cap whose center is inside.
  forEachDiscCell(centerLatRad_[i], centerLonRad_[i], radiusRad,
                  [&](std::size_t c) {
                    for (std::uint32_t e = cellStart_[c]; e < cellStart_[c + 1];
                         ++e) {
                      if (cellEntry_[e] != i) out.push_back(cellEntry_[e]);
                    }
                  });
  // A cap registers in several cells, so the walk sees it more than once;
  // the sweep consumers need each neighbor exactly once, in ascending
  // order (the legacy pair loop's visit order).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void SphericalCapIndex::discCandidates(const Vec3& unitDir, double radiusRad,
                                       std::vector<std::uint32_t>& out) const {
  out.clear();
  if (cellEntry_.empty()) return;
  if (radiusRad <= 0.0) {
    const auto [lo, hi] = cellEntryRange(cellIndexOf(unitDir));
    out.assign(cellEntry_.begin() + lo, cellEntry_.begin() + hi);
    return;
  }
  if (!(radiusRad < kPi)) {  // the whole sphere (NaN included)
    out.resize(capCount_);
    std::iota(out.begin(), out.end(), 0u);
    return;
  }
  // If angle(center_i, p) <= R_i + r, the point at distance min(r, angle)
  // from p toward center_i lies both in the disc and in cap i, so cap i is
  // registered in a cell the disc touches.
  forEachDiscCell(std::asin(std::clamp(unitDir.z, -1.0, 1.0)),
                  std::atan2(unitDir.y, unitDir.x), radiusRad,
                  [&](std::size_t c) {
                    out.insert(out.end(), cellEntry_.begin() + cellStart_[c],
                               cellEntry_.begin() + cellStart_[c + 1]);
                  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace openspace
