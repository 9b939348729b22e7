#include <openspace/sim/scenario.hpp>

#include <cmath>
#include <numbers>

#include <openspace/geo/error.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/routing/ondemand.hpp>
#include <openspace/sim/flow_sim.hpp>

namespace openspace {

Scenario::Scenario(const ScenarioConfig& cfg)
    : cfg_(cfg), beacons_(cfg.beaconPeriodS), rng_(cfg.seed) {
  if (cfg.providers.empty()) {
    throw InvalidArgumentError("Scenario: at least one provider required");
  }
  int totalSats = 0;
  for (const auto& p : cfg.providers) {
    if (p.satellites <= 0) {
      throw InvalidArgumentError("Scenario: provider '" + p.name +
                                 "' must contribute satellites");
    }
    totalSats += p.satellites;
  }

  // --- publish orbits ----------------------------------------------------
  if (cfg.coordinatedWalker) {
    WalkerConfig wc;
    // Round total up to a multiple of the plane count; surplus slots stay
    // unfilled (satellites are assigned round-robin from the plan).
    const int planes = std::max(1, cfg.walkerPlanes);
    const int perPlane = (totalSats + planes - 1) / planes;
    wc.totalSatellites = perPlane * planes;
    wc.planes = planes;
    wc.phasing = 1 % planes;
    wc.altitudeM = cfg.altitudeM;
    wc.inclinationRad = cfg.inclinationRad;
    const auto plan = makeWalkerStar(wc);
    std::size_t slot = 0;
    for (std::size_t p = 0; p < cfg.providers.size(); ++p) {
      for (int s = 0; s < cfg.providers[p].satellites; ++s) {
        ephemeris_.publish(providerId(p), plan[slot++]);
      }
    }
  } else {
    for (std::size_t p = 0; p < cfg.providers.size(); ++p) {
      const auto sats =
          makeRandomConstellation(cfg.providers[p].satellites, cfg.altitudeM, rng_);
      for (const auto& el : sats) ephemeris_.publish(providerId(p), el);
    }
  }

  // --- capabilities (laser fractions) -------------------------------------
  builder_ = std::make_unique<TopologyBuilder>(ephemeris_);
  for (std::size_t p = 0; p < cfg.providers.size(); ++p) {
    const auto fleet = ephemeris_.satellitesOf(providerId(p));
    const auto laserCount = static_cast<std::size_t>(
        cfg.providers[p].laserFraction * static_cast<double>(fleet.size()) + 0.5);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      LinkCapabilities caps;
      caps.islBands = {Band::S, Band::Uhf};
      caps.hasLaserTerminal = i < laserCount;
      caps.maxIslCount = 4;
      builder_->setCapabilities(fleet[i], caps);
    }
  }

  // --- ground segment ------------------------------------------------------
  for (const auto& st : cfg.stations) {
    if (st.ownerProviderIndex >= cfg.providers.size()) {
      throw InvalidArgumentError("Scenario: station owner index out of range");
    }
    GroundSite site{st.name, st.location, providerId(st.ownerProviderIndex)};
    stations_.push_back(builder_->addGroundStation(site));
  }

  // --- users + AAA ----------------------------------------------------------
  for (std::size_t p = 0; p < cfg.providers.size(); ++p) {
    radius_.emplace_back(providerId(p),
                         0xC0FFEE00ull + static_cast<std::uint64_t>(p));
  }
  for (std::size_t u = 0; u < cfg.users.size(); ++u) {
    const auto& us = cfg.users[u];
    if (us.homeProviderIndex >= cfg.providers.size()) {
      throw InvalidArgumentError("Scenario: user home provider out of range");
    }
    GroundSite site{us.name, us.location, providerId(us.homeProviderIndex)};
    userNodes_.push_back(builder_->addUser(site));
    const auto secret = 0xAB5EED00ull + static_cast<std::uint64_t>(u);
    radius_[us.homeProviderIndex].enroll(static_cast<UserId>(u + 1), secret);
    agents_.emplace_back(static_cast<UserId>(u + 1),
                         providerId(us.homeProviderIndex), secret, us.location);
  }

  // --- settlement ------------------------------------------------------------
  for (std::size_t p = 0; p < cfg.providers.size(); ++p) {
    settlement_.addProvider(providerId(p));
    settlement_.setTariff(
        {providerId(p), ProviderId{}, cfg.providers[p].transitTariffUsdPerGb});
  }
}

ProviderId Scenario::providerId(std::size_t index) const {
  if (index >= cfg_.providers.size()) {
    throw InvalidArgumentError("Scenario::providerId: index out of range");
  }
  return ProviderId{static_cast<ProviderId::rep_type>(index + 1)};
}

NetworkGraph Scenario::snapshot(double tSeconds) const {
  SnapshotOptions opt;
  opt.wiring = IslWiring::NearestNeighbors;
  opt.nearestK = 4;
  opt.minElevationRad = cfg_.minElevationRad;
  return builder_->snapshot(tSeconds, opt);
}

std::vector<BeaconMessage> Scenario::beaconsAt(double tSeconds) const {
  std::vector<BeaconMessage> out;
  for (const SatelliteId sid : ephemeris_.satellites()) {
    const auto& rec = ephemeris_.record(sid);
    BeaconMessage b;
    b.satellite = sid;
    b.provider = rec.owner;
    b.txTimeS = tSeconds;
    b.elements = rec.elements;
    b.capabilities = builder_->capabilities(sid);
    out.push_back(std::move(b));
  }
  return out;
}

NodeId Scenario::userNode(std::size_t userIndex) const {
  if (userIndex >= userNodes_.size()) {
    throw InvalidArgumentError("Scenario::userNode: index out of range");
  }
  return userNodes_[userIndex];
}

GroundStationId Scenario::stationId(std::size_t stationIndex) const {
  if (stationIndex >= stations_.size()) {
    throw InvalidArgumentError("Scenario::stationId: index out of range");
  }
  return stations_[stationIndex];
}

NodeId Scenario::stationNode(std::size_t stationIndex) const {
  return builder_->nodeOf(stationId(stationIndex));
}

NodeId Scenario::homeGatewayOf(std::size_t userIndex) const {
  if (userIndex >= cfg_.users.size()) {
    throw InvalidArgumentError("Scenario::homeGatewayOf: index out of range");
  }
  const std::size_t home = cfg_.users[userIndex].homeProviderIndex;
  for (std::size_t s = 0; s < cfg_.stations.size(); ++s) {
    if (cfg_.stations[s].ownerProviderIndex == home) {
      return builder_->nodeOf(stations_[s]);
    }
  }
  throw NotFoundError("Scenario: user's home provider owns no ground station");
}

AssociationResult Scenario::associateUser(std::size_t userIndex, double tSeconds) {
  if (userIndex >= agents_.size()) {
    throw InvalidArgumentError("Scenario::associateUser: index out of range");
  }
  const NetworkGraph g = snapshot(tSeconds);
  const std::size_t home = cfg_.users[userIndex].homeProviderIndex;
  return agents_[userIndex].associate(beaconsAt(tSeconds), g, *builder_,
                                      radius_[home], homeGatewayOf(userIndex),
                                      tSeconds, cfg_.minElevationRad, beacons_);
}

/// One simulated epoch: the route of every user (invalid when it has no
/// path home) and the simulator's report, whose flows are the routed users
/// in user order.
struct Scenario::Epoch {
  std::vector<Route> routes;                  ///< By user index.
  std::vector<std::size_t> flowUser;          ///< Flow index -> user index.
  std::shared_ptr<const CompactGraph> graph;  ///< What the epoch ran on.
  FlowSimReport sim;
};

namespace {

/// Validates one traffic-epoch argument: NaN fails every comparison, so a
/// plain `x <= 0.0` guard would let it through (and a NaN stop time would
/// keep the packet emitter running forever).
void requirePositiveFinite(double x, const char* what) {
  if (!(x > 0.0) || !std::isfinite(x)) {
    throw InvalidArgumentError(std::string(what) + " must be finite and > 0");
  }
}

void requireFinite(double x, const char* what) {
  if (!std::isfinite(x)) {
    throw InvalidArgumentError(std::string(what) + " must be finite");
  }
}

}  // namespace

Scenario::Epoch Scenario::runEpoch(const NetworkGraph& g, const LinkCostFn& cost,
                                   QosClass qos, double startS, double durationS,
                                   double rateBps) {
  Epoch ep;
  const RouteEngine engine(std::make_shared<const CompactGraph>(compileGraph(g, cost)));
  ep.graph = engine.sharedGraph();
  ep.routes.resize(cfg_.users.size());
  FlowSimulator sim(ep.graph, FlowSimConfig{}
                                  .withStart(startS)
                                  .withDuration(durationS)
                                  .withSeed(rng_.engine()()));
  for (std::size_t u = 0; u < cfg_.users.size(); ++u) {
    ep.routes[u] = engine.shortestPath(userNodes_[u], homeGatewayOf(u));
    if (!ep.routes[u].valid()) continue;  // uncovered user offers no traffic
    FlowSpec flow;
    flow.src = userNodes_[u];
    flow.dst = ep.routes[u].nodes.back();
    flow.rateBps = rateBps;
    flow.qos = qos;
    flow.homeProvider = providerId(cfg_.users[u].homeProviderIndex);
    flow.startS = startS;
    flow.stopS = startS + durationS;
    sim.addFlow(flow, ep.routes[u]);
    ep.flowUser.push_back(u);
  }
  ep.sim = sim.run();
  return ep;
}

AdaptiveReport Scenario::runAdaptiveEpochs(double tSeconds, int epochs,
                                           double epochDurationS,
                                           double rateBps) {
  if (epochs < 1) {
    throw InvalidArgumentError("runAdaptiveEpochs: epochs must be >= 1");
  }
  requireFinite(tSeconds, "runAdaptiveEpochs: time");
  requirePositiveFinite(epochDurationS, "runAdaptiveEpochs: duration");
  requirePositiveFinite(rateBps, "runAdaptiveEpochs: rate");
  NetworkGraph g = snapshot(tSeconds);  // shared, mutated between epochs
  AdaptiveReport rep;
  std::vector<Route> prevRoutes;

  for (int e = 0; e < epochs; ++e) {
    const Epoch ep = runEpoch(g, latencyCost(), QosClass::Standard,
                              tSeconds + e * epochDurationS, epochDurationS,
                              rateBps);
    if (e > 0) {
      for (std::size_t u = 0; u < ep.routes.size(); ++u) {
        if (ep.routes[u].valid() && prevRoutes[u].valid() &&
            ep.routes[u].nodes != prevRoutes[u].nodes) {
          ++rep.reroutedFlows;
        }
      }
    }
    const LatencyStats& stats = ep.sim.latency;
    rep.epochMeanLatencyS.push_back(stats.count() > 0 ? stats.meanS() : 0.0);
    rep.epochLossRate.push_back(stats.lossRate());
    rep.totalDelivered += ep.sim.packetsDelivered;
    rep.totalDropped += ep.sim.packetsDropped;
    prevRoutes = ep.routes;

    // Feedback: measured utilization -> queueing-delay estimates on the
    // shared graph for the next epoch's route computation. A link carries
    // what both of its directed edges carried.
    for (const LinkId lid : g.links()) {
      Link& l = g.link(lid);
      double bits = 0.0;
      for (const std::uint32_t edge : ep.graph->edgesOfLink(lid)) {
        bits += ep.sim.edgeBitsCarried[edge];
      }
      const double utilization = bits / (l.capacityBps * epochDurationS);
      l.queueingDelayS = (utilization > 0.0)
                             ? estimateQueueingDelayS(utilization, l.capacityBps)
                             : 0.0;
    }
  }
  return rep;
}

TrafficReport Scenario::runTrafficEpoch(double tSeconds, double durationS,
                                        double rateBps, QosClass qos) {
  requireFinite(tSeconds, "runTrafficEpoch: time");
  requirePositiveFinite(durationS, "runTrafficEpoch: duration");
  requirePositiveFinite(rateBps, "runTrafficEpoch: rate");
  const NetworkGraph g = snapshot(tSeconds);
  const Epoch ep = runEpoch(g, makeCostFunction(CostWeights::forQos(qos)), qos,
                            tSeconds, durationS, rateBps);

  // Settle each flow's delivered bytes along its route. Packet sizes are
  // whole bytes, so one entry per flow sums to exactly what one entry per
  // delivered packet would; flows that delivered nothing book nothing.
  const double packetBytes = FlowSpec{}.packetBits / 8.0;
  for (std::size_t i = 0; i < ep.flowUser.size(); ++i) {
    const std::uint64_t delivered = ep.sim.flows[i].delivered;
    if (delivered == 0) continue;
    const std::size_t u = ep.flowUser[i];
    settlement_.recordRouteTraffic(
        g, ep.routes[u], providerId(cfg_.users[u].homeProviderIndex),
        static_cast<double>(delivered) * packetBytes);
  }

  TrafficReport rep;
  rep.packetsOffered = ep.sim.packetsOffered;
  rep.packetsDelivered = ep.sim.packetsDelivered;
  rep.packetsDropped = ep.sim.packetsDropped;
  if (ep.sim.latency.count() > 0) {
    rep.meanLatencyS = ep.sim.latency.meanS();
    rep.p95LatencyS = ep.sim.latency.p95S();
  }
  rep.lossProbability = ep.sim.latency.lossRate();
  rep.ledgersCrossVerified = settlement_.crossVerify();
  rep.settlement = settlement_.settle();
  for (const auto& item : rep.settlement) rep.totalSettlementUsd += item.amountUsd;
  return rep;
}

}  // namespace openspace
