// RouteEngine: compiled-snapshot routing with reusable scratch arenas.
//
// RouteEngine is the library's only shortest-path entry point: a caller
// compiles one engine per (snapshot, cost model) and queries it as often as
// it likes. Compilation turns the snapshot into an immutable CSR adjacency
// (topology/compact_graph.hpp) with per-edge precomputed cost/delay/capacity;
// queries then run over generation-stamped scratch arrays and a reusable
// d-ary heap — zero allocation per query once warmed up, no std::function or
// hash lookup in the hot loop. The hash-map Dijkstra / Yen it replaced live
// on as the test-only executable spec (openspace::legacy, spec/routing/).
//
// Determinism contract: every query is a pure function of the compiled
// graph. The heap breaks distance ties by dense node index (== NetworkGraph
// insertion order), so equal-cost route choices are stable run-to-run, and
// batchShortestPathTrees() writes each source's tree into its own result
// slot — results are bit-identical at any thread count, including serial.
//
// Thread-safety: the engine itself is immutable after construction, but the
// single-query methods share one internal scratch arena and must not be
// called concurrently on one engine. batchShortestPathTrees() is the
// parallel API: it fans sources over the process thread pool with per-chunk
// arenas. Distinct engines are always independent.
#pragma once

#include <memory>

#include <openspace/core/scratch.hpp>
#include <openspace/routing/route.hpp>
#include <openspace/topology/compact_graph.hpp>

namespace openspace {

/// Reusable single-source search state: O(1) logical reset via generation
/// stamps, storage retained across queries. One arena per running search;
/// never share one arena between concurrent searches.
struct RouteScratch {
  StampedArray<double> dist;
  /// Parent edge per dense node; meaningful only where `dist` is touched
  /// this generation (shares its stamps instead of keeping a second set).
  std::vector<std::uint32_t> parentEdge;
  DaryHeap frontier;
  /// Path-extraction staging (edge indices in forward order), kept here so
  /// steady-state extraction reuses its capacity.
  std::vector<std::uint32_t> pathEdges;
};

/// The flat result of one single-source shortest-path run: distances and
/// parent edges by dense node index, plus enough shared context to expand
/// any destination into a full Route on demand. Cheap to keep around (two
/// flat arrays), so proactive routing stores PathTrees instead of
/// materialized per-destination Route maps.
class PathTree {
 public:
  PathTree() = default;

  /// False for a default-constructed (empty) tree.
  bool valid() const noexcept { return csr_ != nullptr; }
  NodeId source() const noexcept { return source_; }

  /// True when `dst` was reached. Throws NotFoundError for unknown nodes.
  bool reaches(NodeId dst) const;
  /// Path cost to `dst` (+inf when unreachable). Throws NotFoundError.
  double costTo(NodeId dst) const;
  /// Full route to `dst`; invalid Route when unreachable. Throws
  /// NotFoundError for nodes absent from the snapshot.
  Route routeTo(NodeId dst) const;

  /// Flat views by dense node index (for checksums / bulk consumers).
  const std::vector<double>& distByIndex() const noexcept { return dist_; }
  const std::vector<std::uint32_t>& parentEdgeByIndex() const noexcept {
    return parentEdge_;
  }

 private:
  friend class RouteEngine;

  std::shared_ptr<const CompactGraph> csr_;
  NodeId source_{};
  std::uint32_t sourceIndex_ = CompactGraph::kInvalidIndex;
  std::vector<double> dist_;               ///< +inf == unreachable.
  std::vector<std::uint32_t> parentEdge_;  ///< kInvalidIndex == none.
};

/// Observability of one repairShortestPathTree() call: whether the repair
/// path ran (vs falling back to a fresh Dijkstra) and how much of the graph
/// it actually touched.
struct TreeRepairStats {
  bool repaired = false;  ///< False => fell back to a fresh full run.
  /// Static string naming the fallback cause; nullptr when repaired.
  const char* fallbackReason = nullptr;
  std::size_t changedEdges = 0;  ///< Directed edges whose cost bits changed.
  std::size_t addedEdges = 0;    ///< Directed edges present only in the new graph.
  std::size_t removedEdges = 0;  ///< Directed edges present only in the old graph.
  std::size_t seedNodes = 0;     ///< Nodes whose incoming edge set changed.
  std::size_t queuePops = 0;     ///< Repair-queue activity (~ affected region).
  std::size_t parentRecomputes = 0;  ///< Nodes whose parent edge was re-derived.
};

class RouteEngine {
 public:
  /// Compile `g` under `cost` as provider `home`. The NetworkGraph is not
  /// retained: the engine owns its compiled form and is self-contained.
  explicit RouteEngine(const NetworkGraph& g, const LinkCostFn& cost = latencyCost(),
                       ProviderId home = {});
  /// Adopt an already-compiled graph (shared with PathTrees it produces).
  explicit RouteEngine(std::shared_ptr<const CompactGraph> graph);

  /// Dijkstra with early exit at `dst`: trivial route (cost 0, infinite
  /// bottleneck) for src == dst, invalid Route when unreachable,
  /// NotFoundError for unknown endpoints. Compilation validates the cost
  /// model first, so a negative/NaN cost throws InvalidArgumentError from
  /// the constructor, before any endpoint is looked up.
  Route shortestPath(NodeId src, NodeId dst) const;

  /// Full single-source tree as a compact PathTree.
  PathTree shortestPathTree(NodeId src) const;

  /// Repair `previous` (a tree computed against an earlier compiled graph
  /// with the same node template — typically the prior step of an
  /// IncrementalTopology sweep) into a tree over THIS engine's graph.
  ///
  /// Result contract: bit-identical to shortestPathTree(previous.source())
  /// — same dist and parentEdge arrays to the last bit, property-tested
  /// against the fresh path. Only the delta-affected frontier is
  /// re-settled (Ramalingam–Reps style dist repair seeded by the edge
  /// diff), so cost: O(diff + affected region), not O(N log N + E).
  ///
  /// Falls back to a fresh run — never fails, never slower than ~2x fresh
  /// — when the repair preconditions do not hold: node template changed,
  /// any new-graph edge has non-positive cost or a missing reverse
  /// direction, or the diff floods the frontier (`stats->fallbackReason`
  /// says which). Throws InvalidArgumentError for an invalid `previous`.
  PathTree repairShortestPathTree(const PathTree& previous,
                                  TreeRepairStats* stats = nullptr) const;

  /// One PathTree per source, computed across the process thread pool
  /// (openspace::parallelFor). Output order matches `sources`; results are
  /// bit-identical to computing each tree serially. Throws NotFoundError
  /// if any source is unknown (before any work is fanned out).
  std::vector<PathTree> batchShortestPathTrees(
      const std::vector<NodeId>& sources) const;

  /// Yen's algorithm over the compiled graph: up to k loop-free shortest
  /// paths in ascending cost. Candidate deduplication uses a hashed
  /// node-sequence set and root-prefix costs are reused from the compiled
  /// per-edge costs (never re-priced). Throws InvalidArgumentError for
  /// k < 1, NotFoundError for unknown endpoints.
  std::vector<Route> kShortestPaths(NodeId src, NodeId dst, int k) const;

  const CompactGraph& graph() const noexcept { return *csr_; }
  std::shared_ptr<const CompactGraph> sharedGraph() const noexcept {
    return csr_;
  }

 private:
  std::uint32_t requireIndex(NodeId id, const char* what) const;
  /// Core Dijkstra over `scratch`; masks (may be null) mark forbidden
  /// dense nodes / edge indices as "touched".
  void runDijkstra(std::uint32_t srcIndex, std::uint32_t stopAtIndex,
                   RouteScratch& scratch, const StampedArray<char>* nodeMask,
                   const StampedArray<char>* edgeMask) const;
  Route extractFromScratch(std::uint32_t srcIndex, std::uint32_t dstIndex,
                           RouteScratch& scratch) const;
  PathTree treeFrom(std::uint32_t srcIndex, RouteScratch& scratch) const;

  std::shared_ptr<const CompactGraph> csr_;
  /// Query-reuse arenas (see thread-safety note above).
  mutable RouteScratch scratch_;
  mutable StampedArray<char> forbiddenNodes_;
  mutable StampedArray<char> forbiddenEdges_;
  /// repairShortestPathTree() arenas: edge-diff row matching, seed/suspect
  /// marks, and the dist-repair queue. Same sharing rule as scratch_.
  ///
  /// The edge diff (preconditions, per-row matching, seeds, old->new
  /// remap) is a pure function of the (previous, current) graph pair —
  /// independent of the tree's source — so a temporal sweep repairing one
  /// tree per source across the same pair computes it once: `cachedPrev`
  /// keys the cache and pins the old graph so the address cannot be
  /// recycled while cached.
  struct RepairScratch {
    StampedArray<std::uint32_t> rowTarget;  ///< target -> new edge, per row.
    StampedArray<char> claimed;             ///< new edges matched this call.
    StampedArray<char> seedMark;
    StampedArray<char> suspectMark;
    DaryHeap queue;
    // Cached diff of (cachedPrev -> engine graph); valid while cachedPrev
    // matches the previous tree's graph.
    std::shared_ptr<const CompactGraph> cachedPrev;
    /// Non-null: the cached pair falls back to a fresh run for this reason.
    const char* cachedFallback = nullptr;
    TreeRepairStats diffStats;  ///< changed/added/removed edges, seed count.
    std::vector<std::uint32_t> oldToNew;  ///< old edge -> new edge (kInvalid).
    std::vector<std::uint32_t> seeds;
    /// Parallel-link targets: pre-suspect nodes replayed into suspectMark
    /// on every (cached) call.
    std::vector<std::uint32_t> diffSuspects;
  };
  mutable RepairScratch repair_;
};

}  // namespace openspace
