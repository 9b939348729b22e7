// On-demand, congestion-aware routing.
//
// §2.2: once the system scales, "the cost of a path cannot be fully
// predicted since ISL congestion cannot be anticipated, and even ground
// station conditions may affect the cost or QoS guarantees of a link" —
// e.g. a busy ground station placing surge tariffs on visitor traffic.
// OnDemandRouter reads the *live* link state (queueing delays, tariffs)
// at request time instead of a precomputed table, trading lookup cost for
// adaptivity. §5(2)'s ground-station offload question is answered by
// selectGroundStation(): route to a farther but idle gateway when the
// detour beats the queueing. Every request compiles a RouteEngine over the
// graph as it stands at that moment — the price of reading live state.
#pragma once

#include <openspace/routing/route.hpp>

namespace openspace {

class OnDemandRouter {
 public:
  /// The graph reference must stay alive and reflects live conditions.
  explicit OnDemandRouter(const NetworkGraph& graph,
                          LinkCostFn cost = latencyCost(), ProviderId home = {});

  /// Route under current congestion/tariff state.
  Route route(NodeId src, NodeId dst) const;

  /// Up to k alternative routes (for multipath / fast failover).
  std::vector<Route> alternatives(NodeId src, NodeId dst, int k) const;

  /// Choose the best ground station for traffic originating at `src`:
  /// evaluates the full path cost to every ground-station node (including
  /// each station's current queueing delay) and returns the route to the
  /// winner. Invalid route if no station is reachable.
  Route selectGroundStation(NodeId src) const;

 private:
  const NetworkGraph& graph_;
  LinkCostFn cost_;
  ProviderId home_;
};

}  // namespace openspace
