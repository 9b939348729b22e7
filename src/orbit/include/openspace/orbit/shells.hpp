// Multi-shell constellation composition.
//
// Mega-constellations are not one Walker shell: Starlink-class fleets stack
// several Star/Delta shells at distinct altitudes and inclinations, and the
// multi-layer space-information-network literature the roadmap cites models
// exactly this. MultiShellFleet composes per-shell Walker generators into a
// single fleet with one global, contiguous satellite index space, per-shell
// +grid ISL wiring (plusGridPairs, orbit/walker.hpp) and an optional
// cross-shell nearest-visible link policy. The composed element
// list hashes with the same constellationHash the snapshot/ephemeris caches
// key on, so multi-shell fleets share every existing cache layer for free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <openspace/orbit/walker.hpp>

namespace openspace {

class ConstellationSnapshot;

/// Which Walker family a shell is generated from.
enum class ShellKind {
  Star,   ///< Planes over 180 degrees of RAAN (polar-style, has a seam).
  Delta,  ///< Planes over 360 degrees of RAAN (Starlink-style).
};

/// One shell of a multi-shell fleet.
struct ShellSpec {
  ShellKind kind = ShellKind::Star;
  WalkerConfig walker;
  /// +grid wiring: also wire same-slot ISLs across the Walker seam plane.
  bool interPlaneSeam = false;
};

/// How satellites in different shells are linked.
enum class CrossShellLinkPolicy {
  /// Shells are isolated islands (ground-relay only).
  None,
  /// Each satellite links to its k nearest line-of-sight satellites in
  /// *other* shells (ties broken by ascending satellite index).
  NearestVisible,
};

struct MultiShellConfig {
  std::vector<ShellSpec> shells;
  CrossShellLinkPolicy crossShell = CrossShellLinkPolicy::None;
  int crossShellK = 1;  ///< For NearestVisible: links per satellite.
  /// Intra-shell +grid ISLs longer than this do not close.
  double maxIslRangeM = 6'000'000.0;
  /// Range cap for cross-shell candidate search (kept tighter than the
  /// intra-shell cap: cross-shell partners sit a few hundred km of
  /// altitude apart, and a tight cap keeps the spatial prune effective
  /// at 10k+ satellites).
  double crossShellMaxRangeM = 2'000'000.0;
  /// Sightlines must clear the Earth by this margin (matches the
  /// TopologyBuilder / IslTopology default of 80 km).
  double losClearanceM = 80'000.0;
};

/// One undirected ISL of a multi-shell fleet; a < b always.
struct ShellLink {
  std::size_t a = 0;
  std::size_t b = 0;
  double distanceM = 0.0;
  bool crossShell = false;
};

/// A composed multi-shell fleet with a contiguous global index space:
/// shell s occupies indices [shellBegin(s), shellBegin(s+1)). Shell order
/// is exactly MultiShellConfig::shells order, and the element list (hence
/// constellationHash) is order-dependent — reordering shells produces a
/// different fleet identity on purpose, so caches never alias two fleets
/// whose satellites are numbered differently.
class MultiShellFleet {
 public:
  /// Generates every shell (validating each WalkerConfig) and freezes the
  /// composed element list. Throws InvalidArgumentError on an empty shell
  /// list, non-positive or NaN ranges, or crossShellK < 1 under
  /// NearestVisible.
  explicit MultiShellFleet(MultiShellConfig cfg);

  std::size_t shellCount() const noexcept { return shellBegin_.size() - 1; }
  std::size_t size() const noexcept { return elements_.size(); }
  const MultiShellConfig& config() const noexcept { return cfg_; }
  const ShellSpec& spec(std::size_t shell) const;

  /// All satellites, shell-major, plane-major within a shell (the Walker
  /// generators' k*S+j layout with a per-shell base offset).
  const std::vector<OrbitalElements>& elements() const noexcept {
    return elements_;
  }
  /// constellationHash of elements() — the key every snapshot/ephemeris
  /// cache in the library uses.
  std::uint64_t elementsHash() const noexcept { return hash_; }

  /// First global index of a shell; shellBegin(shellCount()) == size().
  std::size_t shellBegin(std::size_t shell) const;
  /// [begin, end) global index range of a shell.
  std::pair<std::size_t, std::size_t> shellRange(std::size_t shell) const;
  /// Shell owning a global satellite index. Throws for out-of-range.
  std::size_t shellOf(std::size_t satIndex) const;
  /// Plane/slot arithmetic of a shell (local indices).
  const PlaneGrid& grid(std::size_t shell) const;

  /// ISLs at the snapshot's instant: per-shell +grid wiring (plusGridPairs:
  /// intra-plane ring neighbor plus same-slot next-plane neighbor, seam
  /// optional; self-pairs skipped) under a range and line-of-sight
  /// predicate, plus cross-shell links per policy. Deterministic: links are unique,
  /// a < b, sorted ascending by (a, b). The snapshot must be of exactly
  /// this fleet (hash-checked).
  std::vector<ShellLink> islLinks(const ConstellationSnapshot& snapshot) const;
  /// Convenience: snapshot via SnapshotCache::global() at time t.
  std::vector<ShellLink> islLinks(double tSeconds) const;

 private:
  MultiShellConfig cfg_;
  std::vector<OrbitalElements> elements_;
  /// shellCount()+1 entries; shell s is [shellBegin_[s], shellBegin_[s+1]).
  std::vector<std::size_t> shellBegin_;
  std::vector<PlaneGrid> grids_;
  std::uint64_t hash_ = 0;
};

}  // namespace openspace
