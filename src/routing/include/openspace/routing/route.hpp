// Route representation and QoS-aware link cost model.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include <openspace/topology/graph.hpp>

namespace openspace {

/// A computed path through a topology snapshot.
struct Route {
  std::vector<NodeId> nodes;  ///< src ... dst (size >= 1).
  std::vector<LinkId> links;  ///< size == nodes.size() - 1.
  double cost = std::numeric_limits<double>::infinity();
  double propagationDelayS = 0.0;
  double queueingDelayS = 0.0;
  double bottleneckBps = std::numeric_limits<double>::infinity();
  int hops() const noexcept { return static_cast<int>(links.size()); }
  bool valid() const noexcept { return !nodes.empty(); }
  double totalDelayS() const noexcept { return propagationDelayS + queueingDelayS; }
};

/// QoS classes users subscribe to (§2.2: providers adjust advertised plans
/// to the QoS their assets can guarantee).
enum class QosClass { Bulk, Standard, Premium };

/// Weights combining link properties into a scalar routing cost.
/// cost(link) = latencyWeight * delay
///            + bandwidthWeight / capacity
///            + tariffWeight * tariff
///            + hopPenalty
///            + foreignPenalty (if the carrying satellite is not home)
struct CostWeights {
  double latencyWeight = 1.0;       ///< Per second of one-way delay.
  double bandwidthWeight = 0.0;     ///< Per 1/bps — penalizes thin links.
  double tariffWeight = 0.0;        ///< Per USD/GB of transit tariff.
  double hopPenalty = 0.0;          ///< Flat per-hop cost.
  double foreignPenalty = 0.0;      ///< Per hop on another provider's asset.
  bool requireLaserForPremium = false;

  /// Standard weight presets per QoS class.
  static CostWeights forQos(QosClass q);
};

/// Link cost functor signature: (graph, link, homeProvider) -> cost.
/// Must be positive for every traversable link; return +inf to forbid.
using LinkCostFn =
    std::function<double(const NetworkGraph&, const Link&, ProviderId)>;

/// The heterogeneity-aware default cost model described in §2.2: combines
/// propagation + queueing delay, available bandwidth, transit tariffs and
/// ownership. Premium flows may refuse RF-only ISLs (laser-guaranteed QoS).
LinkCostFn makeCostFunction(const CostWeights& weights);

/// Pure-latency cost (the paper's §4 "use this path length to estimate
/// latency" evaluation model).
LinkCostFn latencyCost();

/// Apply an M/M/1-style queueing delay estimate to a link given its
/// current utilization in [0, 1): delay = serviceTime * rho / (1 - rho),
/// with serviceTime approximated by one MTU at link capacity. Utilization
/// >= 1 saturates to `maxDelayS`. Used by the simulator to refresh live
/// queueing state (the `queueingDelayS` the cost models read) from traffic
/// counters.
double estimateQueueingDelayS(double utilization, double capacityBps,
                              double mtuBits = 12'000.0,
                              double maxDelayS = 2.0);

}  // namespace openspace
