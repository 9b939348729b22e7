// Reference topology snapshot: the executable spec of the link enumerator.
//
// referenceSnapshot() builds a builder's snapshot with the most direct
// loops that state the wiring rules, independent of the library's link
// enumerator (topology/link_enumerator.hpp): an ISL attempt loop per wiring
// policy, an all-pairs NearestNeighbors scan, NetworkGraph::findLink
// duplicate suppression, and a full elevation scan per ground site. It
// uses only the builder's public API and is built only into the test-side
// openspace_spec library. The delta==reference gates compare its compiled
// graphs with IncrementalTopology's bit for bit (contentChecksum), and
// builder.snapshot() with it link for link.
#pragma once

#include <openspace/topology/builder.hpp>

namespace openspace {

/// The topology of `builder`'s nodes at time t under `opt`, built by the
/// reference loops. Same node order and, on valid options, the same links
/// in the same order with the same doubles as builder.snapshot(t, opt).
/// Throws InvalidArgumentError for PlusGrid planes that do not divide a
/// non-empty fleet; it does not share the enumerator's other option checks.
NetworkGraph referenceSnapshot(const TopologyBuilder& builder, double tSeconds,
                               const SnapshotOptions& opt);

}  // namespace openspace
