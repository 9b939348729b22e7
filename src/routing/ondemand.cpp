#include <openspace/routing/ondemand.hpp>

#include <cmath>
#include <limits>

#include <openspace/routing/engine.hpp>

namespace openspace {

OnDemandRouter::OnDemandRouter(const NetworkGraph& graph, LinkCostFn cost,
                               ProviderId home)
    : graph_(graph), cost_(std::move(cost)), home_(home) {}

Route OnDemandRouter::route(NodeId src, NodeId dst) const {
  return RouteEngine(graph_, cost_, home_).shortestPath(src, dst);
}

std::vector<Route> OnDemandRouter::alternatives(NodeId src, NodeId dst,
                                                int k) const {
  return RouteEngine(graph_, cost_, home_).kShortestPaths(src, dst, k);
}

Route OnDemandRouter::selectGroundStation(NodeId src) const {
  const PathTree tree = RouteEngine(graph_, cost_, home_).shortestPathTree(src);
  // Strictly cheaper wins, so equal-cost stations keep the first in
  // nodesOfKind() order.
  NodeId best{};
  double bestCost = std::numeric_limits<double>::infinity();
  for (const NodeId gs : graph_.nodesOfKind(NodeKind::GroundStation)) {
    const double c = tree.costTo(gs);
    if (c < bestCost) {
      best = gs;
      bestCost = c;
    }
  }
  return std::isinf(bestCost) ? Route{} : tree.routeTo(best);
}

}  // namespace openspace
