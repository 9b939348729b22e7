#include <openspace/routing/engine.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/assert.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoEdge = CompactGraph::kInvalidIndex;

/// Sources per batch chunk: amortizes one scratch arena over several tree
/// runs without starving the pool on mid-sized batches. Fixed (independent
/// of thread count) so the fan-out decomposition never varies.
constexpr std::size_t kBatchChunk = 4;

/// FNV-1a over a node sequence, for Yen's hashed candidate dedup set.
struct NodeSeqHash {
  std::size_t operator()(const std::vector<NodeId>& nodes) const noexcept {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const NodeId id : nodes) {
      h ^= id.value();
      h *= 0x100000001B3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Expand the parent-edge chain from `dstIndex` back to `srcIndex` into a
/// Route of cost `cost` (+inf: unreachable -> invalid route). The first
/// walk counts hops so every container is sized exactly once; the second
/// fills final positions back-to-front (no reversals) and stages the edge
/// indices in `pathEdges`, whose capacity the caller may keep across calls.
Route expandRoute(const CompactGraph& g,
                  const std::vector<std::uint32_t>& parentEdge,
                  std::uint32_t srcIndex, std::uint32_t dstIndex, double cost,
                  std::vector<std::uint32_t>& pathEdges) {
  Route r;
  if (std::isinf(cost)) return r;
  r.cost = cost;
  std::size_t hops = 0;
  for (std::uint32_t cur = dstIndex; cur != srcIndex;
       cur = g.edgeSource(parentEdge[cur])) {
    OPENSPACE_ASSERT(parentEdge[cur] != kNoEdge,
                     "every reached node except the source has a parent");
    ++hops;
  }
  r.nodes.resize(hops + 1);
  r.links.resize(hops);
  pathEdges.resize(hops);
  std::uint32_t cur = dstIndex;
  for (std::size_t i = hops; i-- > 0;) {
    const std::uint32_t e = parentEdge[cur];
    pathEdges[i] = e;
    r.links[i] = g.edgeLink(e);
    r.nodes[i + 1] = g.nodeAt(cur);
    cur = g.edgeSource(e);
  }
  r.nodes[0] = g.nodeAt(srcIndex);
  // Forward-order accumulation, matching the legacy extractRoute exactly
  // (floating-point sums are order-sensitive; equivalence tests compare
  // bit-for-bit).
  for (const std::uint32_t e : pathEdges) {
    r.propagationDelayS += g.edgePropagationDelayS(e);
    r.queueingDelayS += g.edgeQueueingDelayS(e);
    r.bottleneckBps = std::min(r.bottleneckBps, g.edgeCapacityBps(e));
  }
  return r;
}

}  // namespace

// --- PathTree ----------------------------------------------------------------

bool PathTree::reaches(NodeId dst) const { return std::isfinite(costTo(dst)); }

double PathTree::costTo(NodeId dst) const {
  OPENSPACE_ASSERT(valid(), "costTo on a default-constructed PathTree");
  const std::uint32_t i = csr_->indexOf(dst);
  if (i == CompactGraph::kInvalidIndex) {
    throw NotFoundError("PathTree::costTo: unknown node");
  }
  return dist_[i];
}

Route PathTree::routeTo(NodeId dst) const {
  OPENSPACE_ASSERT(valid(), "routeTo on a default-constructed PathTree");
  const std::uint32_t dstIndex = csr_->indexOf(dst);
  if (dstIndex == CompactGraph::kInvalidIndex) {
    throw NotFoundError("PathTree::routeTo: unknown node");
  }
  std::vector<std::uint32_t> pathEdges;
  return expandRoute(*csr_, parentEdge_, sourceIndex_, dstIndex,
                     dist_[dstIndex], pathEdges);
}

// --- RouteEngine -------------------------------------------------------------

RouteEngine::RouteEngine(const NetworkGraph& g, const LinkCostFn& cost,
                         ProviderId home)
    : csr_(std::make_shared<const CompactGraph>(compileGraph(g, cost, home))) {}

RouteEngine::RouteEngine(std::shared_ptr<const CompactGraph> graph)
    : csr_(std::move(graph)) {
  if (!csr_) throw InvalidArgumentError("RouteEngine: null compiled graph");
}

std::uint32_t RouteEngine::requireIndex(NodeId id, const char* what) const {
  const std::uint32_t i = csr_->indexOf(id);
  if (i == CompactGraph::kInvalidIndex) throw NotFoundError(what);
  return i;
}

void RouteEngine::runDijkstra(std::uint32_t srcIndex, std::uint32_t stopAtIndex,
                              RouteScratch& scratch,
                              const StampedArray<char>* nodeMask,
                              const StampedArray<char>* edgeMask) const {
  const CompactGraph& g = *csr_;
  scratch.dist.reset(g.nodeCount());
  if (scratch.parentEdge.size() < g.nodeCount()) {
    scratch.parentEdge.resize(g.nodeCount());
  }
  scratch.frontier.clear();
  scratch.dist.set(srcIndex, 0.0);
  scratch.frontier.push(0.0, srcIndex);
  while (!scratch.frontier.empty()) {
    const auto [d, u] = scratch.frontier.pop();
    if (d > scratch.dist.getOr(u, kInf)) continue;  // stale entry
    if (u == stopAtIndex) break;
    const std::uint32_t end = g.rowEnd(u);
    for (std::uint32_t e = g.rowBegin(u); e < end; ++e) {
      if (edgeMask != nullptr && edgeMask->touched(e)) continue;
      const std::uint32_t v = g.edgeTarget(e);
      if (nodeMask != nullptr && nodeMask->touched(v)) continue;
      const double nd = d + g.edgeCost(e);
      OPENSPACE_ASSERT(nd >= d, "non-negative costs keep distances monotone");
      if (nd < scratch.dist.getOr(v, kInf)) {
        scratch.dist.set(v, nd);
        scratch.parentEdge[v] = e;  // valid while dist's stamp is current
        scratch.frontier.push(nd, v);
      }
    }
  }
}

Route RouteEngine::extractFromScratch(std::uint32_t srcIndex,
                                      std::uint32_t dstIndex,
                                      RouteScratch& scratch) const {
  return expandRoute(*csr_, scratch.parentEdge, srcIndex, dstIndex,
                     scratch.dist.getOr(dstIndex, kInf), scratch.pathEdges);
}

Route RouteEngine::shortestPath(NodeId src, NodeId dst) const {
  const std::uint32_t s = requireIndex(src, "shortestPath: unknown endpoint node");
  const std::uint32_t t = requireIndex(dst, "shortestPath: unknown endpoint node");
  if (s == t) {
    Route r;
    r.nodes = {src};
    r.cost = 0.0;
    return r;
  }
  runDijkstra(s, t, scratch_, nullptr, nullptr);
  return extractFromScratch(s, t, scratch_);
}

PathTree RouteEngine::treeFrom(std::uint32_t srcIndex,
                               RouteScratch& scratch) const {
  runDijkstra(srcIndex, CompactGraph::kInvalidIndex, scratch, nullptr, nullptr);
  PathTree tree;
  tree.csr_ = csr_;
  tree.source_ = csr_->nodeAt(srcIndex);
  tree.sourceIndex_ = srcIndex;
  const std::size_t n = csr_->nodeCount();
  tree.dist_.resize(n);
  tree.parentEdge_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const bool reached = scratch.dist.touched(i);
    tree.dist_[i] = reached ? scratch.dist.getOr(i, kInf) : kInf;
    tree.parentEdge_[i] =
        reached && i != srcIndex ? scratch.parentEdge[i] : kNoEdge;
  }
  return tree;
}

PathTree RouteEngine::shortestPathTree(NodeId src) const {
  const std::uint32_t s = requireIndex(src, "shortestPathTree: unknown source");
  return treeFrom(s, scratch_);
}

PathTree RouteEngine::repairShortestPathTree(const PathTree& previous,
                                             TreeRepairStats* stats) const {
  TreeRepairStats local;
  TreeRepairStats& st = stats != nullptr ? *stats : local;
  st = TreeRepairStats{};
  if (!previous.valid()) {
    throw InvalidArgumentError(
        "repairShortestPathTree: previous tree is default-constructed");
  }
  const auto fresh = [&](const char* why) {
    st.repaired = false;
    st.fallbackReason = why;
    return shortestPathTree(previous.source_);
  };
  if (previous.csr_.get() == csr_.get()) {
    st.repaired = true;  // same compiled graph object: nothing can differ
    return previous;
  }
  const CompactGraph& oldG = *previous.csr_;
  const CompactGraph& g = *csr_;
  const std::size_t n = g.nodeCount();
  const std::size_t edgeCount = g.edgeCount();
  RepairScratch& rs = repair_;

  // Everything up to the dist repair is source-independent: computed once
  // per (previous, current) graph pair and cached (see RepairScratch), so
  // repairing one tree per source of a sweep step pays for it once.
  if (rs.cachedPrev.get() != previous.csr_.get()) {
    rs.cachedPrev.reset();
    rs.cachedFallback = [&]() -> const char* {
      rs.diffStats = TreeRepairStats{};
      if (oldG.nodeCount() != n) return "node-set-changed";
      for (std::uint32_t i = 0; i < n; ++i) {
        if (oldG.nodeAt(i) != g.nodeAt(i)) return "node-set-changed";
      }
      // Repair preconditions on the new graph. Strictly positive costs
      // make equal-dist settle order index-sorted (the parent closed form
      // below depends on it); two-way links let a node enumerate its
      // incoming edges through its own CSR row. Builder-produced graphs
      // always satisfy both.
      for (std::uint32_t e = 0; e < edgeCount; ++e) {
        if (!(g.edgeCost(e) > 0.0)) return "nonpositive-cost-edge";
        if (g.edgesOfLink(g.edgeLink(e)).size() != 2) return "one-way-link";
      }

      // --- Edge diff: per-row matching by target node -------------------
      // Seeds are the nodes whose INCOMING edge set changed — an edge
      // u->v lives in u's row, so scanning every row and seeding the
      // edge's target covers exactly the incoming sets. Matched unchanged
      // edges also yield the old->new parent-edge remap.
      TreeRepairStats& ds = rs.diffStats;
      rs.claimed.reset(edgeCount);
      rs.seedMark.reset(n);
      rs.seeds.clear();
      rs.diffSuspects.clear();
      rs.oldToNew.assign(oldG.edgeCount(), kNoEdge);
      const auto seed = [&](std::uint32_t v) {
        if (!rs.seedMark.touched(v)) {
          rs.seedMark.set(v, char{1});
          rs.seeds.push_back(v);
        }
      };
      for (std::uint32_t u = 0; u < n; ++u) {
        rs.rowTarget.reset(n);
        const std::uint32_t nb = g.rowBegin(u);
        const std::uint32_t ne = g.rowEnd(u);
        for (std::uint32_t e = nb; e < ne; ++e) {
          const std::uint32_t t = g.edgeTarget(e);
          if (rs.rowTarget.touched(t)) {
            // Parallel links between one pair: positional matching is
            // ambiguous, so force the target through the full
            // re-derivation.
            seed(t);
            rs.diffSuspects.push_back(t);
          } else {
            rs.rowTarget.set(t, e);
          }
        }
        const std::uint32_t oe = oldG.rowEnd(u);
        for (std::uint32_t e0 = oldG.rowBegin(u); e0 < oe; ++e0) {
          const std::uint32_t t = oldG.edgeTarget(e0);
          const std::uint32_t e1 = rs.rowTarget.getOr(t, kNoEdge);
          if (e1 == kNoEdge || rs.claimed.touched(e1)) {
            ++ds.removedEdges;
            seed(t);
            continue;
          }
          rs.claimed.set(e1, char{1});
          rs.oldToNew[e0] = e1;
          if (bitsOf(oldG.edgeCost(e0)) != bitsOf(g.edgeCost(e1))) {
            ++ds.changedEdges;
            seed(t);
          }
        }
        for (std::uint32_t e = nb; e < ne; ++e) {
          if (!rs.claimed.touched(e)) {
            ++ds.addedEdges;
            seed(g.edgeTarget(e));
          }
        }
      }
      ds.seedNodes = rs.seeds.size();
      // A diff touching a large fraction of the nodes repairs slower than
      // it recomputes (every seed pays an incoming-row scan plus queue
      // traffic); hand the whole step to the plain Dijkstra instead.
      if (rs.seeds.size() * 4 > n) return "seed-flood";
      return nullptr;
    }();
    rs.cachedPrev = previous.csr_;
  }
  st.changedEdges = rs.diffStats.changedEdges;
  st.addedEdges = rs.diffStats.addedEdges;
  st.removedEdges = rs.diffStats.removedEdges;
  st.seedNodes = rs.diffStats.seedNodes;
  if (rs.cachedFallback != nullptr) return fresh(rs.cachedFallback);
  rs.suspectMark.reset(n);
  for (const std::uint32_t v : rs.diffSuspects) rs.suspectMark.set(v, char{1});

  // --- Dist repair (Ramalingam–Reps / DynamicSWSF-FP) --------------------
  // dist starts as the previous fixpoint; every node outside the seed set
  // is consistent by construction (same incoming candidate multiset), so
  // the queue drains exactly the delta-affected region. Positive costs
  // make the consistent fixpoint unique — and computing each rhs as a min
  // over the same double expressions fresh Dijkstra evaluates keeps the
  // repaired dist array bit-identical to a fresh run's.
  const std::uint32_t srcIdx = previous.sourceIndex_;
  std::vector<double> dist = previous.dist_;
  const auto rhsOf = [&](std::uint32_t v) {
    double best = kInf;
    const std::uint32_t end = g.rowEnd(v);
    for (std::uint32_t e = g.rowBegin(v); e < end; ++e) {
      const auto le = g.edgesOfLink(g.edgeLink(e));
      const std::uint32_t er = le.e[0] == e ? le.e[1] : le.e[0];  // u -> v
      best = std::min(best, dist[g.edgeTarget(e)] + g.edgeCost(er));
    }
    return best;
  };
  const auto consider = [&](std::uint32_t v) {
    if (v == srcIdx) return;
    const double r = rhsOf(v);
    if (bitsOf(r) != bitsOf(dist[v])) rs.queue.push(std::min(dist[v], r), v);
  };
  rs.queue.clear();
  for (const std::uint32_t v : rs.seeds) consider(v);
  while (!rs.queue.empty()) {
    const auto [key, v] = rs.queue.pop();
    const double d = dist[v];
    const double r = rhsOf(v);
    if (bitsOf(key) != bitsOf(std::min(d, r))) continue;  // stale entry
    if (bitsOf(d) == bitsOf(r)) continue;                 // became consistent
    ++st.queuePops;
    if (r < d) {
      dist[v] = r;  // under-consistent: lower to the supported value
    } else {
      dist[v] = kInf;  // over-consistent: raise, then let rhs re-lower it
      consider(v);
    }
    const std::uint32_t end = g.rowEnd(v);
    for (std::uint32_t e = g.rowBegin(v); e < end; ++e) {
      consider(g.edgeTarget(e));
    }
  }

  // --- Parent finalization ----------------------------------------------
  // Fresh Dijkstra's parent of v is the first final-value relaxation in
  // settle order: the incoming candidate minimizing (dist(u)+c, dist(u),
  // u, e) lexicographically. Only suspects — nodes whose dist or incoming
  // candidates changed, i.e. seeds, dist-changed nodes, and neighbors of
  // dist-changed nodes — can have a different argmin than before; every
  // other node keeps its previous parent edge, remapped.
  for (std::uint32_t v = 0; v < n; ++v) {
    if (bitsOf(dist[v]) == bitsOf(previous.dist_[v])) continue;
    rs.suspectMark.set(v, char{1});
    const std::uint32_t end = g.rowEnd(v);
    for (std::uint32_t e = g.rowBegin(v); e < end; ++e) {
      rs.suspectMark.set(g.edgeTarget(e), char{1});
    }
  }
  for (const std::uint32_t v : rs.seeds) rs.suspectMark.set(v, char{1});

  PathTree tree;
  tree.csr_ = csr_;
  tree.source_ = previous.source_;
  tree.sourceIndex_ = srcIdx;
  tree.parentEdge_.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (v == srcIdx || std::isinf(dist[v])) {
      tree.parentEdge_[v] = kNoEdge;
      continue;
    }
    if (!rs.suspectMark.touched(v)) {
      const std::uint32_t pOld = previous.parentEdge_[v];
      OPENSPACE_ASSERT(pOld != kNoEdge, "reached non-source node has a parent");
      const std::uint32_t pNew = rs.oldToNew[pOld];
      OPENSPACE_ASSERT(pNew != kNoEdge,
                       "an unsuspected node's parent edge persisted");
      tree.parentEdge_[v] = pNew;
      continue;
    }
    ++st.parentRecomputes;
    double bestNd = kInf;
    double bestDu = kInf;
    std::uint32_t bestU = 0;
    std::uint32_t bestE = kNoEdge;
    const std::uint32_t end = g.rowEnd(v);
    for (std::uint32_t e = g.rowBegin(v); e < end; ++e) {
      const std::uint32_t u = g.edgeTarget(e);
      if (std::isinf(dist[u])) continue;
      const auto le = g.edgesOfLink(g.edgeLink(e));
      const std::uint32_t er = le.e[0] == e ? le.e[1] : le.e[0];  // u -> v
      const double nd = dist[u] + g.edgeCost(er);
      const bool better =
          bestE == kNoEdge || nd < bestNd ||
          (bitsOf(nd) == bitsOf(bestNd) &&
           (dist[u] < bestDu ||
            (bitsOf(dist[u]) == bitsOf(bestDu) &&
             (u < bestU || (u == bestU && er < bestE)))));
      if (better) {
        bestNd = nd;
        bestDu = dist[u];
        bestU = u;
        bestE = er;
      }
    }
    OPENSPACE_ASSERT(bestE != kNoEdge && bitsOf(bestNd) == bitsOf(dist[v]),
                     "recomputed parent supports the repaired distance");
    tree.parentEdge_[v] = bestE;
  }
  tree.dist_ = std::move(dist);
  st.repaired = true;
  return tree;
}

std::vector<PathTree> RouteEngine::batchShortestPathTrees(
    const std::vector<NodeId>& sources) const {
  // Validate every source up front so NotFoundError is thrown from the
  // calling thread, never from inside the fan-out.
  std::vector<std::uint32_t> srcIndex;
  srcIndex.reserve(sources.size());
  for (const NodeId src : sources) {
    srcIndex.push_back(
        requireIndex(src, "batchShortestPathTrees: unknown source"));
  }
  std::vector<PathTree> out(sources.size());
  parallelFor(sources.size(), kBatchChunk,
              [&](std::size_t begin, std::size_t end) {
                RouteScratch scratch;  // one arena per chunk, reused within
                for (std::size_t i = begin; i < end; ++i) {
                  out[i] = treeFrom(srcIndex[i], scratch);
                }
              });
  return out;
}

std::vector<Route> RouteEngine::kShortestPaths(NodeId src, NodeId dst,
                                               int k) const {
  if (k < 1) throw InvalidArgumentError("kShortestPaths: k must be >= 1");
  requireIndex(src, "kShortestPaths: unknown endpoint node");
  requireIndex(dst, "kShortestPaths: unknown endpoint node");

  std::vector<Route> result;
  const Route first = shortestPath(src, dst);
  if (!first.valid()) return result;
  result.push_back(first);

  // Yen's algorithm. Dedup is a hashed node-sequence set covering every
  // path ever accepted (result ∪ candidates); root-prefix costs come from
  // running prefix sums over the compiled per-edge costs, so the cost
  // model is never re-invoked on an already-priced prefix.
  std::unordered_set<std::vector<NodeId>, NodeSeqHash> seen;
  seen.insert(first.nodes);
  std::vector<Route> candidates;

  // Per-iteration prefix aggregates of result.back(): index i holds the
  // aggregate over the first i links.
  std::vector<double> prefixCost, prefixPropS, prefixQueueS, prefixBottleneckBps;

  for (int ki = 1; ki < k; ++ki) {
    const Route& prev = result.back();
    prefixCost.assign(1, 0.0);
    prefixPropS.assign(1, 0.0);
    prefixQueueS.assign(1, 0.0);
    prefixBottleneckBps.assign(1, kInf);
    for (const LinkId lid : prev.links) {
      const auto& dirEdges = csr_->edgesOfLink(lid);
      OPENSPACE_ASSERT(!dirEdges.empty(), "route links exist in the CSR");
      const std::uint32_t e = dirEdges.front();
      prefixCost.push_back(prefixCost.back() + csr_->edgeCost(e));
      prefixPropS.push_back(prefixPropS.back() + csr_->edgePropagationDelayS(e));
      prefixQueueS.push_back(prefixQueueS.back() + csr_->edgeQueueingDelayS(e));
      prefixBottleneckBps.push_back(
          std::min(prefixBottleneckBps.back(), csr_->edgeCapacityBps(e)));
    }

    for (std::size_t spur = 0; spur + 1 < prev.nodes.size(); ++spur) {
      const std::uint32_t spurIdx = csr_->indexOf(prev.nodes[spur]);
      OPENSPACE_ASSERT(spurIdx != CompactGraph::kInvalidIndex,
                       "route nodes exist in the CSR");

      forbiddenEdges_.reset(csr_->edgeCount());
      for (const Route& r : result) {
        if (r.nodes.size() > spur &&
            std::equal(r.nodes.begin(),
                       r.nodes.begin() + static_cast<std::ptrdiff_t>(spur) + 1,
                       prev.nodes.begin())) {
          if (spur < r.links.size()) {
            for (const std::uint32_t e : csr_->edgesOfLink(r.links[spur])) {
              forbiddenEdges_.set(e, char{1});
            }
          }
        }
      }
      forbiddenNodes_.reset(csr_->nodeCount());
      for (std::size_t i = 0; i < spur; ++i) {
        forbiddenNodes_.set(csr_->indexOf(prev.nodes[i]), char{1});
      }

      const std::uint32_t dstIdx = csr_->indexOf(dst);
      runDijkstra(spurIdx, dstIdx, scratch_, &forbiddenNodes_, &forbiddenEdges_);
      Route spurRoute = extractFromScratch(spurIdx, dstIdx, scratch_);
      if (!spurRoute.valid()) continue;

      // Stitch root + spur; the root prefix is already priced.
      Route total;
      total.nodes.assign(prev.nodes.begin(),
                         prev.nodes.begin() + static_cast<std::ptrdiff_t>(spur));
      total.nodes.insert(total.nodes.end(), spurRoute.nodes.begin(),
                         spurRoute.nodes.end());
      total.links.assign(prev.links.begin(),
                         prev.links.begin() + static_cast<std::ptrdiff_t>(spur));
      total.links.insert(total.links.end(), spurRoute.links.begin(),
                         spurRoute.links.end());
      total.cost = prefixCost[spur] + spurRoute.cost;
      total.propagationDelayS = prefixPropS[spur] + spurRoute.propagationDelayS;
      total.queueingDelayS = prefixQueueS[spur] + spurRoute.queueingDelayS;
      total.bottleneckBps =
          std::min(prefixBottleneckBps[spur], spurRoute.bottleneckBps);

      if (!seen.insert(total.nodes).second) continue;  // already known
      candidates.push_back(std::move(total));
    }
    if (candidates.empty()) break;
    const auto it = std::min_element(
        candidates.begin(), candidates.end(),
        [](const Route& a, const Route& b) { return a.cost < b.cost; });
    result.push_back(std::move(*it));
    candidates.erase(it);
  }
  return result;
}

}  // namespace openspace
