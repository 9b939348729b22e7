#include <openspace/topology/compact_graph.hpp>

#include <algorithm>
#include <cmath>

#include <openspace/core/assert.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

std::uint64_t CompactGraph::contentChecksum() const noexcept {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a(h, nodes_->denseToNode.size());
  for (const NodeId id : nodes_->denseToNode) h = fnv1a(h, id.value());
  for (const NodeKind k : nodes_->nodeKind) {
    h = fnv1a(h, static_cast<std::uint64_t>(k));
  }
  for (const std::uint32_t o : rowOffset_) h = fnv1a(h, o);
  h = fnv1a(h, edgeTo_.size());
  for (std::size_t e = 0; e < edgeTo_.size(); ++e) {
    h = fnv1a(h, edgeTo_[e]);
    h = fnv1a(h, edgeFrom_[e]);
    h = fnv1a(h, bitsOf(edgeCost_[e]));
    h = fnv1a(h, bitsOf(edgePropS_[e]));
    h = fnv1a(h, bitsOf(edgeQueueS_[e]));
    h = fnv1a(h, bitsOf(edgeCapBps_[e]));
    h = fnv1a(h, edgeLinkId_[e].value());
  }
  // The link->edges map, walked in link-id order so hash-map iteration
  // order never leaks into the checksum.
  for (std::size_t lid = 0; lid < linkEdges_.size(); ++lid) {
    const LinkEdgeRange& r = linkEdges_[lid];
    if (r.count == 0) continue;
    h = fnv1a(h, lid);
    for (const std::uint32_t e : r) h = fnv1a(h, e);
  }
  if (!sparseLinkEdges_.empty()) {
    std::vector<LinkId> ids;
    ids.reserve(sparseLinkEdges_.size());
    // det-waiver: keys collected then sorted before any use — order cannot leak
    for (const auto& [lid, r] : sparseLinkEdges_) ids.push_back(lid);
    std::sort(ids.begin(), ids.end(),
              [](LinkId a, LinkId b) { return a.value() < b.value(); });
    for (const LinkId lid : ids) {
      const LinkEdgeRange& r = sparseLinkEdges_.at(lid);
      h = fnv1a(h, lid.value());
      for (const std::uint32_t e : r) h = fnv1a(h, e);
    }
  }
  return h;
}

void CompactGraph::NodeTable::buildLookups() {
  const std::size_t n = denseToNode.size();
  OPENSPACE_ASSERT(n < kInvalidIndex, "dense node indices fit in 32 bits");
  nodeToDense.reserve(n);
  std::uint32_t maxIdValue = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nodeToDense.emplace(denseToNode[i], static_cast<std::uint32_t>(i));
    maxIdValue = std::max(maxIdValue, denseToNode[i].value());
  }
  // Builder-assigned ids are dense (1..N), so a direct-mapped table makes
  // indexOf a single load. Skip it for pathological sparse id spaces where
  // it would waste memory.
  if (n > 0 && maxIdValue <= 4 * n + 1024) {
    idToDense.assign(maxIdValue + 1, kInvalidIndex);
    for (std::size_t i = 0; i < n; ++i) {
      idToDense[denseToNode[i].value()] = static_cast<std::uint32_t>(i);
    }
  }
}

CompactGraph compileGraph(const NetworkGraph& g, const CompactGraph::CostFn& cost,
                          ProviderId home) {
  CompactGraph out;
  const std::vector<NodeId>& order = g.nodes();
  const std::size_t n = order.size();
  auto nt = std::make_shared<CompactGraph::NodeTable>();
  nt->denseToNode = order;
  nt->nodeKind.reserve(n);
  for (const NodeId id : order) nt->nodeKind.push_back(g.node(id).kind);
  nt->buildLookups();
  out.nodes_ = std::move(nt);

  out.rowOffset_.reserve(n + 1);
  out.rowOffset_.push_back(0);
  const std::size_t edgeGuess = 2 * g.linkCount();
  out.edgeTo_.reserve(edgeGuess);
  out.edgeFrom_.reserve(edgeGuess);
  out.edgeCost_.reserve(edgeGuess);
  out.edgePropS_.reserve(edgeGuess);
  out.edgeQueueS_.reserve(edgeGuess);
  out.edgeCapBps_.reserve(edgeGuess);
  out.edgeLinkId_.reserve(edgeGuess);

  // Same density heuristic as node ids: builder link ids are 1..L, so the
  // direct-mapped table covers them all and the sparse map stays empty.
  std::uint64_t maxLinkIdValue = 0;
  for (const LinkId lid : g.links()) {
    maxLinkIdValue = std::max<std::uint64_t>(maxLinkIdValue, lid.value());
  }
  const bool denseLinks = maxLinkIdValue <= 4 * g.linkCount() + 1024;
  if (denseLinks) out.linkEdges_.resize(maxLinkIdValue + 1);

  const auto noteLinkEdge = [&](LinkId lid, std::uint32_t e) {
    if (denseLinks) {
      CompactGraph::LinkEdgeRange& r = out.linkEdges_[lid.value()];
      OPENSPACE_ASSERT(r.count < 2, "an undirected link compiles to <= 2 edges");
      r.e[r.count++] = e;
    } else {
      CompactGraph::LinkEdgeRange& r = out.sparseLinkEdges_[lid];
      OPENSPACE_ASSERT(r.count < 2, "an undirected link compiles to <= 2 edges");
      r.e[r.count++] = e;
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const NodeId u = order[i];
    for (const LinkId lid : g.linksOf(u)) {
      const Link& l = g.link(lid);
      const double c = cost(g, l, home);
      if (std::isnan(c) || c < 0.0) {
        throw InvalidArgumentError("compileGraph: negative or NaN link cost");
      }
      if (std::isinf(c)) continue;  // forbidden edge: dropped at compile time
      const NodeId v = l.otherEnd(u);
      const auto itV = out.nodes_->nodeToDense.find(v);
      OPENSPACE_ASSERT(itV != out.nodes_->nodeToDense.end(),
                       "every link endpoint is a graph node");
      const auto e = static_cast<std::uint32_t>(out.edgeTo_.size());
      out.edgeTo_.push_back(itV->second);
      out.edgeFrom_.push_back(static_cast<std::uint32_t>(i));
      out.edgeCost_.push_back(c);
      out.edgePropS_.push_back(l.propagationDelayS);
      out.edgeQueueS_.push_back(l.queueingDelayS);
      out.edgeCapBps_.push_back(l.capacityBps);
      out.edgeLinkId_.push_back(lid);
      noteLinkEdge(lid, e);
    }
    out.rowOffset_.push_back(static_cast<std::uint32_t>(out.edgeTo_.size()));
  }
  return out;
}

}  // namespace openspace
