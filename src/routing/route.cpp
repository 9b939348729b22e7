#include <openspace/routing/route.hpp>

#include <algorithm>

#include <openspace/geo/error.hpp>

namespace openspace {

CostWeights CostWeights::forQos(QosClass q) {
  CostWeights w;
  switch (q) {
    case QosClass::Bulk:
      // Cheapest transit wins; latency is a tie-breaker.
      w.latencyWeight = 1.0;
      w.bandwidthWeight = 0.0;
      w.tariffWeight = 50.0;
      w.hopPenalty = 0.0;
      break;
    case QosClass::Standard:
      w.latencyWeight = 1.0;
      w.bandwidthWeight = 1e6;   // ~1 cost unit per Mbps-scale bottleneck
      w.tariffWeight = 5.0;
      w.hopPenalty = 1e-4;
      break;
    case QosClass::Premium:
      // Latency- and bandwidth-dominated; tariffs barely matter; prefers
      // laser-grade ISLs outright.
      w.latencyWeight = 4.0;
      w.bandwidthWeight = 5e6;
      w.tariffWeight = 0.5;
      w.hopPenalty = 1e-4;
      w.requireLaserForPremium = true;
      break;
  }
  return w;
}

LinkCostFn makeCostFunction(const CostWeights& weights) {
  return [weights](const NetworkGraph& g, const Link& l,
                   ProviderId home) -> double {
    if (weights.requireLaserForPremium && l.type == LinkType::IslRf) {
      return std::numeric_limits<double>::infinity();
    }
    double cost = weights.latencyWeight * l.totalDelayS() + weights.hopPenalty;
    if (weights.bandwidthWeight > 0.0 && l.capacityBps > 0.0) {
      cost += weights.bandwidthWeight / l.capacityBps;
    }
    cost += weights.tariffWeight * l.tariffUsdPerGb * 1e-3;
    if (weights.foreignPenalty > 0.0 && home.isValid()) {
      // A hop is "foreign" when neither endpoint belongs to the home ISP.
      const bool aHome = g.node(l.a).provider == home;
      const bool bHome = g.node(l.b).provider == home;
      if (!aHome && !bHome) cost += weights.foreignPenalty;
    }
    return cost;
  };
}

LinkCostFn latencyCost() {
  return [](const NetworkGraph&, const Link& l, ProviderId) {
    return l.totalDelayS();
  };
}

double estimateQueueingDelayS(double utilization, double capacityBps,
                              double mtuBits, double maxDelayS) {
  if (capacityBps <= 0.0 || mtuBits <= 0.0) {
    throw InvalidArgumentError("estimateQueueingDelayS: non-positive inputs");
  }
  if (utilization < 0.0) {
    throw InvalidArgumentError("estimateQueueingDelayS: negative utilization");
  }
  const double serviceS = mtuBits / capacityBps;
  if (utilization >= 1.0) return maxDelayS;
  const double d = serviceS * utilization / (1.0 - utilization);
  return std::min(d, maxDelayS);
}

}  // namespace openspace
