// User association (paper §2.2, "User Association").
//
// Users "associate with the available overhead satellite that supports
// OpenSpace": satellites advertise standardized periodic beacons carrying
// orbital information; the user picks the closest-in-range satellite,
// requests association, authenticates with its *home* ISP over ISLs
// (RADIUS), receives a roaming certificate, and is then fully associated —
// even when the serving satellite belongs to a different provider
// (rampant roaming is the OpenSpace norm).
#pragma once

#include <optional>

#include <openspace/auth/radius.hpp>
#include <openspace/mac/beacon.hpp>
#include <openspace/routing/route.hpp>
#include <openspace/topology/builder.hpp>

namespace openspace {

/// Association lifecycle.
enum class AssociationState {
  Scanning,        ///< Evaluating beacons.
  Authenticating,  ///< Association requested; RADIUS in flight via ISLs.
  Associated,      ///< Authenticated + certified; traffic may flow.
  Disassociated,   ///< Left coverage / moved region.
};

std::string_view associationStateName(AssociationState s) noexcept;

/// Outcome of one association attempt.
struct AssociationResult {
  bool success = false;
  SatelliteId servingSatellite{};
  ProviderId servingProvider{};
  double beaconScanLatencyS = 0.0;  ///< Wait for the chosen satellite's beacon.
  double authLatencyS = 0.0;        ///< RTT of RADIUS over the ISL path.
  double totalLatencyS = 0.0;
  Certificate certificate;
  std::string failureReason;
};

/// One user's outcome in a batched association sweep.
struct UserAssociation {
  bool covered = false;           ///< Any satellite at/above the mask?
  std::uint32_t satelliteIndex = 0;  ///< Into the fleet/beacon list (iff covered).
  SatelliteId satellite{};        ///< Chosen satellite (beacon overload only).
  double slantRangeM = 0.0;       ///< User->satellite range (iff covered).
};

/// Batched association: for every user, the closest satellite at/above
/// `minElevationRad` at time t — the §2.2 selection rule
/// (AssociationAgent::selectSatellite) fanned over the thread pool in
/// fixed chunks. The fleet is propagated and footprint-indexed once;
/// each user then scans O(candidate) satellites instead of the whole
/// fleet. Results are bit-identical to the per-user brute scan and to
/// themselves at any thread count (serial == parallel; hard-gated in
/// bench/bench_coverage_index.cpp). Output order matches `users`.
std::vector<UserAssociation> associateUsers(
    const std::vector<OrbitalElements>& fleet, double tSeconds,
    const std::vector<Geodetic>& users, double minElevationRad);

/// Beacon-list overload: selection over the advertised orbits, with each
/// result's `satellite` filled from the owning beacon.
std::vector<UserAssociation> associateUsers(
    const std::vector<BeaconMessage>& beacons, double tSeconds,
    const std::vector<Geodetic>& users, double minElevationRad);

/// Beacon count at or above which AssociationAgent::selectSatellite
/// evaluates beacons through the shared snapshot + footprint index instead
/// of the per-beacon brute scan. A performance crossover only, never a
/// semantic switch: both paths apply the same elevation and range
/// expressions with the same first-wins ascending tie order, so the winner
/// is identical on either side (pinned by tests at the boundary).
inline constexpr std::size_t kSelectIndexMinBeacons = 512;

/// Client-side association agent for one user terminal.
class AssociationAgent {
 public:
  /// `home` is the user's subscription; `userSecret` the RADIUS credential.
  AssociationAgent(UserId user, ProviderId home, std::uint64_t userSecret,
                   Geodetic location);

  /// Evaluate beacons and pick the serving satellite: the in-range
  /// satellite whose advertised orbit puts it closest at time t. Returns
  /// nullopt when none is visible above `minElevationRad`. Mega-
  /// constellation beacon lists (>= kSelectIndexMinBeacons) go through
  /// the cached snapshot + footprint index; the winner matches the brute
  /// scan exactly.
  std::optional<SatelliteId> selectSatellite(
      const std::vector<BeaconMessage>& beacons, double tSeconds,
      double minElevationRad) const;

  /// Run the full association: satellite selection, beacon wait, RADIUS
  /// round-trip over the ISL path from the serving satellite to the home
  /// provider's ground infrastructure, certificate issuance.
  ///
  /// `graph` must be a snapshot containing the user's node; `homeServer`
  /// is the user's home RADIUS server; `homeGateway` is the NodeId of the
  /// home provider's ground station (where the AAA server lives).
  AssociationResult associate(const std::vector<BeaconMessage>& beacons,
                              const NetworkGraph& graph,
                              const TopologyBuilder& topo,
                              const RadiusServer& homeServer, NodeId homeGateway,
                              double tSeconds, double minElevationRad,
                              const BeaconSchedule& schedule);

  /// Handle leaving the region (paper: re-association is required, but it
  /// is rare relative to satellite handoffs).
  void moveTo(Geodetic newLocation);

  AssociationState state() const noexcept { return state_; }
  const std::optional<Certificate>& certificate() const noexcept { return cert_; }
  UserId user() const noexcept { return user_; }
  ProviderId homeProvider() const noexcept { return home_; }
  const Geodetic& location() const noexcept { return location_; }
  std::optional<SatelliteId> servingSatellite() const noexcept { return serving_; }

  /// Adopt a successor satellite during a predictive handover: keeps the
  /// certificate, skips re-authentication (§2.2 Satellite Handovers).
  /// Throws StateError unless currently associated.
  void adoptSuccessor(SatelliteId successor);

  /// Time-aware adoption: an expired roaming certificate cannot ride a
  /// predictive handover, so if the certificate is expired at `nowS` the
  /// agent drops to Disassociated (certificate cleared) and returns false
  /// instead of switching — the session must re-associate through RADIUS.
  /// Returns true (and adopts) when the certificate is still valid. Same
  /// StateError as the untimed overload unless currently associated.
  bool adoptSuccessor(SatelliteId successor, double nowS);

 private:
  UserId user_;
  ProviderId home_;
  std::uint64_t secret_;
  Geodetic location_;
  AssociationState state_ = AssociationState::Scanning;
  std::optional<Certificate> cert_;
  std::optional<SatelliteId> serving_;
};

}  // namespace openspace
