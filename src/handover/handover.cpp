#include <openspace/handover/handover.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>

namespace openspace {

namespace {

/// Ascending candidate indices that may be visible from `user` — the
/// footprint index prunes the fleet, the callers then apply the exact
/// elevationFrom predicate the brute scans used. The list comes back
/// ascending — the brute loops' visit order, which their first-wins tie
/// breaking depends on.
std::vector<std::uint32_t> visibleCandidates(
    const std::shared_ptr<const ConstellationSnapshot>& snap,
    const Geodetic& user, double minElevationRad) {
  const auto footprints = FootprintIndex2::compiled(snap, minElevationRad);
  std::vector<std::uint32_t> candidates;
  footprints->groundCandidates(geodeticToEcef(user), 0.0, candidates);
  return candidates;
}

}  // namespace

HandoverPlanner::HandoverPlanner(const EphemerisService& ephemeris,
                                 double minElevationRad)
    : ephemeris_(ephemeris), minElevationRad_(minElevationRad) {
  // Written so NaN fails too: a NaN mask would make every visibility
  // search return its start time without a word.
  if (!(minElevationRad >= 0.0 && minElevationRad < std::numbers::pi / 2.0)) {
    throw InvalidArgumentError("HandoverPlanner: elevation mask out of range");
  }
}

double HandoverPlanner::visibilityEndS(SatelliteId sat, const Geodetic& user,
                                       double fromS, double horizonS) const {
  // Warm-started single-satellite sweep: the coarse scan and the bisection
  // evaluate the same orbit dozens of times in sequence. A fresh sweep per
  // call and a reset() one are bit-identical, so this is exactly
  // visibilityEndWith on a reused object.
  SatelliteSweep sweep(ephemeris_.record(sat).elements);
  return visibilityEndWith(sweep, user, fromS, horizonS);
}

double HandoverPlanner::visibilityEndWith(SatelliteSweep& sweep,
                                          const Geodetic& user, double fromS,
                                          double horizonS,
                                          double* lastVisibleGridS) const {
  // The horizon is an explicit, finite search bound: a satellite that never
  // drops below the mask (e.g. a mask of 0 over a pole-adjacent user, or a
  // horizon shorter than the pass) yields fromS + horizonS rather than an
  // unbounded scan.
  if (!(horizonS >= 0.0) || std::isinf(horizonS)) {
    throw InvalidArgumentError(
        "visibilityEndS: horizon must be finite and >= 0");
  }
  const Vec3 userEcef = geodeticToEcef(user);
  const auto visible = [&](double t) {
    return elevationFrom(sweep.positionEciAt(t), userEcef, t) >=
           minElevationRad_;
  };
  double lastGridS = fromS;
  if (lastVisibleGridS != nullptr) *lastVisibleGridS = fromS;
  if (!visible(fromS)) return fromS;
  // Coarse forward scan (10 s grid, clamped to the horizon) then bisect
  // the set edge to ~1 ms.
  const double step = 10.0;
  const double horizonEndS = fromS + horizonS;
  double lo = fromS;
  double hi = horizonEndS;
  bool crossed = false;
  for (double t = fromS + step; t < horizonEndS + step; t += step) {
    const double clampedS = std::min(t, horizonEndS);
    if (!visible(clampedS)) {
      lo = std::max(fromS, t - step);
      hi = clampedS;
      crossed = true;
      break;
    }
    lastGridS = clampedS;
    if (clampedS >= horizonEndS) break;
  }
  if (lastVisibleGridS != nullptr) *lastVisibleGridS = lastGridS;
  // Still visible at every grid point up to the horizon: no LOS transition
  // inside the search window.
  if (!crossed) return horizonEndS;
  for (int i = 0; i < 40 && hi - lo > 1e-3; ++i) {
    const double mid = 0.5 * (lo + hi);
    (visible(mid) ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

std::optional<SatelliteId> HandoverPlanner::bestSatelliteAt(
    const Geodetic& user, double tSeconds, SatelliteId exclude) const {
  std::optional<SatelliteId> best;
  double bestUntil = -1.0;
  const auto snap = SnapshotCache::global().at(ephemeris_, tSeconds);
  const auto& sats = ephemeris_.satellites();
  // Index-pruned, ascending candidates; the predicate and the strict
  // `until > bestUntil` first-wins rule are the brute scan's, so skipping
  // the never-visible satellites cannot change the winner. One sweep
  // object serves every candidate's visibility search: reset() re-seeds
  // it bit-identically to the fresh per-call sweep visibilityEndS builds,
  // pinned against the per-candidate path in tests/test_handover.cpp.
  SatelliteSweep sweep;
  for (const std::uint32_t i : visibleCandidates(snap, user, minElevationRad_)) {
    const SatelliteId sid = sats[i];
    if (sid == exclude) continue;
    const Vec3& pos = snap->eci(i);
    if (elevationFrom(pos, user, tSeconds) < minElevationRad_) continue;
    sweep.reset(ephemeris_.record(sid).elements);
    const double until = visibilityEndWith(sweep, user, tSeconds);
    if (until > bestUntil) {
      bestUntil = until;
      best = sid;
    }
  }
  return best;
}

std::optional<SatelliteId> HandoverPlanner::closestSatelliteAt(
    const Geodetic& user, double tSeconds) const {
  const Vec3 userEcef = geodeticToEcef(user);
  std::optional<SatelliteId> best;
  double bestRange = std::numeric_limits<double>::infinity();
  const auto snap = SnapshotCache::global().at(ephemeris_, tSeconds);
  const auto& sats = ephemeris_.satellites();
  for (const std::uint32_t i : visibleCandidates(snap, user, minElevationRad_)) {
    const Vec3& pos = snap->eci(i);
    if (elevationFrom(pos, user, tSeconds) < minElevationRad_) continue;
    const double range = userEcef.distanceTo(snap->ecef(i));
    if (range < bestRange) {
      bestRange = range;
      best = sats[i];
    }
  }
  return best;
}

HandoverPlan HandoverPlanner::plan(SatelliteId current, const Geodetic& user,
                                   double nowS, double horizonS) const {
  HandoverPlan p;
  p.serviceEndsAtS = visibilityEndS(current, user, nowS, horizonS);
  // Pick the successor as the best satellite at the moment service ends
  // (slightly before, so the successor is already up when we switch).
  const double switchAt = std::max(nowS, p.serviceEndsAtS - 1e-3);
  const auto succ = bestSatelliteAt(user, switchAt, current);
  if (!succ) return p;  // found == false: service gap ahead
  p.found = true;
  p.successor = *succ;
  p.successorUntilS = visibilityEndS(*succ, user, switchAt, horizonS);
  return p;
}

namespace {

/// Signaling latency of a predictive handover: the serving satellite tells
/// the user its successor (one downlink), the user opens a session with the
/// successor (one round trip). No authentication.
double predictiveLatencyS(const EphemerisService& eph, const Geodetic& user,
                          SatelliteId from, SatelliteId to, double tSeconds) {
  const Vec3 u = geodeticToEcef(user);
  const double downS =
      u.distanceTo(eciToEcef(eph.positionEci(from, tSeconds), tSeconds)) /
      kSpeedOfLightMps;
  const double upS =
      u.distanceTo(eciToEcef(eph.positionEci(to, tSeconds), tSeconds)) /
      kSpeedOfLightMps;
  return downS + 2.0 * upS;
}

}  // namespace

HandoverTimeline simulateHandovers(const HandoverPlanner& planner,
                                   const Geodetic& user, double t0S, double t1S,
                                   HandoverMode mode,
                                   const ReAssociationCost& reassocCost) {
  if (t1S <= t0S) throw InvalidArgumentError("simulateHandovers: t1S <= t0S");

  HandoverTimeline tl;
  double t = t0S;
  std::optional<SatelliteId> serving = planner.bestSatelliteAt(user, t);
  while (!serving && t < t1S) {
    // No coverage: scan forward for first acquisition.
    tl.outageS += std::min(10.0, t1S - t);
    t += 10.0;
    if (t < t1S) serving = planner.bestSatelliteAt(user, t);
  }

  while (t < t1S && serving) {
    const double until =
        std::min(planner.visibilityEndS(*serving, user, t), t1S);
    tl.coveredS += until - t;
    if (until >= t1S) break;

    const auto next = planner.bestSatelliteAt(user, until - 1e-3, *serving);
    if (!next) {
      // Coverage hole: wait for any satellite.
      double scan = until;
      std::optional<SatelliteId> reacq;
      while (scan < t1S && !(reacq = planner.bestSatelliteAt(user, scan))) {
        scan += 10.0;
      }
      tl.outageS += std::min(scan, t1S) - until;
      serving = reacq;
      t = scan;
      continue;
    }

    HandoverEvent ev;
    ev.atS = until;
    ev.from = *serving;
    ev.to = *next;
    if (mode == HandoverMode::Predictive) {
      // Make-before-break using the published successor; the only service
      // interruption is the session-switch signaling.
      ev.latencyS = predictiveLatencyS(planner.ephemeris(), user, *serving,
                                       *next, until);
      tl.outageS += ev.latencyS;
    } else {
      ev.latencyS = reassocCost.beaconPeriodS / 2.0 + reassocCost.authRttS;
      tl.outageS += ev.latencyS;
    }
    tl.events.push_back(ev);
    serving = *next;
    t = until + ev.latencyS;
  }

  if (tl.events.size() >= 2) {
    tl.meanIntervalS = (tl.events.back().atS - tl.events.front().atS) /
                       static_cast<double>(tl.events.size() - 1);
  } else if (tl.events.size() == 1) {
    tl.meanIntervalS = t1S - t0S;
  }
  return tl;
}

}  // namespace openspace
