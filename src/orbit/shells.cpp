#include <openspace/orbit/shells.hpp>

#include <algorithm>

#include <openspace/geo/error.hpp>
#include <openspace/orbit/snapshot.hpp>

namespace openspace {

namespace {

std::vector<OrbitalElements> makeShell(const ShellSpec& spec) {
  switch (spec.kind) {
    case ShellKind::Star:
      return makeWalkerStar(spec.walker);
    case ShellKind::Delta:
      return makeWalkerDelta(spec.walker);
  }
  throw InvalidArgumentError("MultiShellFleet: unknown shell kind");
}

}  // namespace

MultiShellFleet::MultiShellFleet(MultiShellConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.shells.empty()) {
    throw InvalidArgumentError("MultiShellFleet: at least one shell required");
  }
  if (!(cfg_.maxIslRangeM > 0.0) || !(cfg_.crossShellMaxRangeM > 0.0)) {
    throw InvalidArgumentError("MultiShellFleet: ISL ranges must be > 0");
  }
  if (cfg_.crossShell == CrossShellLinkPolicy::NearestVisible &&
      cfg_.crossShellK < 1) {
    throw InvalidArgumentError(
        "MultiShellFleet: crossShellK must be >= 1 under NearestVisible");
  }
  shellBegin_.reserve(cfg_.shells.size() + 1);
  shellBegin_.push_back(0);
  grids_.reserve(cfg_.shells.size());
  for (const ShellSpec& spec : cfg_.shells) {
    std::vector<OrbitalElements> shell = makeShell(spec);  // validates cfg
    grids_.emplace_back(shell.size(), spec.walker.planes);
    elements_.insert(elements_.end(), shell.begin(), shell.end());
    shellBegin_.push_back(elements_.size());
  }
  hash_ = constellationHash(elements_);
}

const ShellSpec& MultiShellFleet::spec(std::size_t shell) const {
  if (shell >= shellCount()) {
    throw InvalidArgumentError("MultiShellFleet::spec: shell out of range");
  }
  return cfg_.shells[shell];
}

std::size_t MultiShellFleet::shellBegin(std::size_t shell) const {
  if (shell >= shellBegin_.size()) {
    throw InvalidArgumentError("MultiShellFleet::shellBegin: shell out of range");
  }
  return shellBegin_[shell];
}

std::pair<std::size_t, std::size_t> MultiShellFleet::shellRange(
    std::size_t shell) const {
  if (shell >= shellCount()) {
    throw InvalidArgumentError("MultiShellFleet::shellRange: shell out of range");
  }
  return {shellBegin_[shell], shellBegin_[shell + 1]};
}

std::size_t MultiShellFleet::shellOf(std::size_t satIndex) const {
  if (satIndex >= size()) {
    throw InvalidArgumentError("MultiShellFleet::shellOf: index out of range");
  }
  // shellBegin_ is sorted ascending; the owning shell is the last begin
  // that is <= satIndex.
  const auto it = std::upper_bound(shellBegin_.begin(), shellBegin_.end(),
                                   satIndex);
  return static_cast<std::size_t>(it - shellBegin_.begin()) - 1;
}

const PlaneGrid& MultiShellFleet::grid(std::size_t shell) const {
  if (shell >= grids_.size()) {
    throw InvalidArgumentError("MultiShellFleet::grid: shell out of range");
  }
  return grids_[shell];
}

std::vector<ShellLink> MultiShellFleet::islLinks(
    const ConstellationSnapshot& snapshot) const {
  if (snapshot.elementsHash() != hash_ || snapshot.size() != size()) {
    throw InvalidArgumentError(
        "MultiShellFleet::islLinks: snapshot is of a different fleet");
  }
  const std::vector<Vec3>& eci = snapshot.eci();
  std::vector<ShellLink> links;

  // --- Per-shell +grid wiring: in range, sightline clears the Earth ------
  for (std::size_t s = 0; s < shellCount(); ++s) {
    const std::size_t base = shellBegin_[s];
    for (auto [i, j] : plusGridPairs(grids_[s], cfg_.shells[s].interPlaneSeam)) {
      i += base;
      j += base;
      if (i == j) continue;  // single-satellite planes wrap onto themselves
      const double dist = eci[i].distanceTo(eci[j]);
      if (dist > cfg_.maxIslRangeM ||
          !lineOfSightClear(eci[i], eci[j], cfg_.losClearanceM)) {
        continue;
      }
      links.push_back({std::min(i, j), std::max(i, j), dist, false});
    }
  }

  // --- Cross-shell links -------------------------------------------------
  if (cfg_.crossShell == CrossShellLinkPolicy::NearestVisible &&
      shellCount() > 1) {
    // The snapshot's spatially pruned adjacency already applies the range
    // and line-of-sight predicate and lists neighbors index-ascending;
    // filter each satellite's row to other shells and keep the k closest
    // (ties broken by the row's ascending-index order).
    const auto topo =
        snapshot.islTopology(cfg_.crossShellMaxRangeM, cfg_.losClearanceM);
    const std::size_t k = static_cast<std::size_t>(cfg_.crossShellK);
    std::vector<std::pair<double, std::size_t>> candidates;
    for (std::size_t i = 0; i < size(); ++i) {
      const std::size_t shell = shellOf(i);
      candidates.clear();
      for (const auto& [j, dist] : topo->adjacency[i]) {
        if (j >= shellBegin_[shell] && j < shellBegin_[shell + 1]) continue;
        candidates.emplace_back(dist, j);
      }
      if (candidates.size() > k) {
        std::partial_sort(candidates.begin(), candidates.begin() +
                          static_cast<std::ptrdiff_t>(k), candidates.end());
        candidates.resize(k);
      } else {
        std::sort(candidates.begin(), candidates.end());
      }
      for (const auto& [dist, j] : candidates) {
        links.push_back({std::min(i, j), std::max(i, j), dist, true});
      }
    }
  }

  // Deterministic output: unique undirected edges ascending by (a, b).
  // A +grid edge can also be selected by the cross-shell pass only between
  // different shells, which +grid never wires, so intra/cross duplicates
  // cannot collide; duplicates within a class (ring wrap in 2-slot planes,
  // both endpoints electing each other) keep their first emission.
  std::sort(links.begin(), links.end(),
            [](const ShellLink& x, const ShellLink& y) {
              if (x.a != y.a) return x.a < y.a;
              if (x.b != y.b) return x.b < y.b;
              return x.crossShell < y.crossShell;
            });
  links.erase(std::unique(links.begin(), links.end(),
                          [](const ShellLink& x, const ShellLink& y) {
                            return x.a == y.a && x.b == y.b;
                          }),
              links.end());
  return links;
}

std::vector<ShellLink> MultiShellFleet::islLinks(double tSeconds) const {
  return islLinks(*SnapshotCache::global().at(elements_, tSeconds));
}

}  // namespace openspace
