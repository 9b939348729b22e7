// Incremental temporal topology: delta-patched CompactGraphs.
//
// A temporal sweep (routing/temporal.hpp, sim/flow_sweep.hpp) needs one
// compiled CompactGraph per time step. Rebuilding each step from scratch
// means TopologyBuilder::snapshot() materializes a hash-map NetworkGraph
// (node/link maps, adjacency vectors, per-node name strings), then
// compileGraph() walks it back down into flat arrays. Between consecutive
// steps almost none of that structure changes — the node set is static, the
// link *set* changes rarely (an ISL or ground contact opening/closing), and
// only the per-link payloads (range, delay, capacity) drift.
//
// IncrementalTopology exploits that: per step it takes the snapshot's
// links from the library's link enumerator (topology/link_enumerator.hpp —
// the same LinkSpec stream snapshot() materializes), diffs that flat list
// against the previous step, and produces the new CompactGraph by
// patching — copying the previous flat arrays and overwriting the payload
// of changed links; only a structural change (link set or order) triggers
// an array rebuild, and even that is a counting-sort pass over the specs,
// never a NetworkGraph.
//
// Bit-identity contract: graph() after step(t) is indistinguishable from
//   compileGraph(builder.snapshot(t, opt), model.link, home)
// — same dense node numbering, same CSR edge order, same LinkIds, same
// payload and cost doubles to the last bit (contentChecksum()-equal).
// Property tests and bench_temporal_delta compare every step against a
// compile of the test-side reference snapshot (spec/topology/), across all
// three IslWiring policies on randomized constellations; DESIGN.md §13
// argues why the enumerator equals that reference.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include <openspace/topology/compact_graph.hpp>
#include <openspace/topology/link_enumerator.hpp>

namespace openspace {

/// Cost model over a LinkSpec — the delta path's form of routing's
/// LinkCostFn. Must be a pure function of the spec (no NetworkGraph, no
/// provider context: the delta path never materializes either).
using LinkSpecCostFn = std::function<double(const LinkSpec&)>;

/// A cost model expressed both ways: `spec` drives the delta path, `link`
/// is the equivalent for compileGraph() over a NetworkGraph. The pair must
/// agree bit-for-bit on enumerated links — the delta==reference property
/// gates depend on it.
struct TemporalCostModel {
  LinkSpecCostFn spec;
  CompactGraph::CostFn link;
  /// Set by the canonical factories below so the per-step cost loop can
  /// inline the evaluation instead of going through the type-erased
  /// `spec` call; hand-built models stay Custom (always correct, just the
  /// std::function call per link). The tag MUST agree with `spec` — the
  /// inlined expressions are the factories' own lambdas.
  enum class Kind { Custom, Delay, Hop } kind = Kind::Custom;
};

/// Edge weight = total link delay (seconds) — the temporal router's model.
TemporalCostModel delayCostModel();
/// Edge weight = 1 per link (hop count) — cost-static, so only structural
/// link churn perturbs routes; the route-repair showcase model.
TemporalCostModel hopCostModel();

/// What one step() changed relative to the previous step.
struct TopologyDelta {
  double tSeconds = 0.0;
  /// Link set/order changed => the CSR arrays were rebuilt; false => the
  /// previous arrays were copied and payload-patched in place.
  bool structural = false;
  std::size_t addedLinks = 0;    ///< Present now, absent last step (by endpoints).
  std::size_t removedLinks = 0;  ///< Present last step, absent now.
  std::size_t costChangedLinks = 0;  ///< Persisting, any payload bit changed.
  std::size_t unchangedLinks = 0;    ///< Persisting, bitwise identical.
  std::size_t linkCount = 0;         ///< Total links this step.
};

/// Per-step compiled-topology producer. One instance walks one sweep:
/// construct, then call step(t) for each (monotonic or not) timestamp and
/// read graph(). Satellite positions come from SnapshotCache::global(), so
/// repeated sweeps over the same window share propagations with every other
/// snapshot consumer.
///
/// The builder's registry (satellites, ground sites) must not change while
/// a sweep is running; step() throws StateError if it does. The builder
/// must outlive this object.
class IncrementalTopology {
 public:
  /// Validates the options eagerly through the link enumerator (the same
  /// InvalidArgumentError cases snapshot() throws), and the cost model.
  IncrementalTopology(const TopologyBuilder& builder, const SnapshotOptions& opt,
                      TemporalCostModel model = delayCostModel());

  /// Advance to time t: enumerate, diff, patch. Returns what changed.
  const TopologyDelta& step(double tSeconds);

  /// The compiled graph of the last step() — contentChecksum()-identical
  /// to a fresh compile of the same snapshot. Null before the first step.
  std::shared_ptr<const CompactGraph> graph() const noexcept { return graph_; }
  const TopologyDelta& lastDelta() const noexcept { return delta_; }
  std::size_t stepCount() const noexcept { return steps_; }

 private:
  void evaluateCosts();
  std::shared_ptr<const CompactGraph> rebuildFromSpecs() const;
  std::shared_ptr<const CompactGraph> patchCosts(
      const std::vector<std::uint32_t>& changed) const;
  void diffStructural();

  const TopologyBuilder& builder_;
  TemporalCostModel model_;
  LinkEnumerator links_;

  // Immutable node template: compileGraph's dense numbering of a snapshot
  // and its lookups (NodeTable::buildLookups). Built once and shared by
  // pointer into every produced CompactGraph, so per-step patches never
  // re-copy the node hash map.
  std::shared_ptr<const CompactGraph::NodeTable> nodeTable_;

  // Step state.
  std::vector<LinkSpec> specs_, nextSpecs_;
  std::vector<double> costs_, nextCosts_;
  std::shared_ptr<const CompactGraph> graph_;
  TopologyDelta delta_;
  std::size_t steps_ = 0;
  std::vector<std::uint32_t> changedSpecs_;  ///< Reusable per-step scratch.
};

}  // namespace openspace
