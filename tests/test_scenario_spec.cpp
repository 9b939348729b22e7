// Scenario's traffic epochs against their legacy executable spec.
//
// Scenario runs its epochs on one compiled RouteEngine per epoch and a
// FlowSimulator. The reference below runs the same epochs on the
// closure-based EventQueue + FlowGenerator + ForwardingEngine stack
// (openspace_spec), routing each user with a one-shot OnDemandRouter query
// and settling every delivered packet as it completes. Fed the same
// per-epoch seed, the production epochs must reproduce every
// TrafficReport / AdaptiveReport field bit for bit, for both orbit modes
// and more than one QoS class. The reports must also be identical at every
// thread-pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/net/flow_generator.hpp>
#include <openspace/net/forwarding.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/ondemand.hpp>
#include <openspace/sim/scenario.hpp>

namespace openspace {
namespace {

/// Three providers, a gateway each, and users spread over every continent
/// so routes cross ownership domains and share links.
ScenarioConfig specScenario(bool coordinatedWalker) {
  ScenarioConfig cfg;
  cfg.providers = {{"alpha", 22, 1.0, 0.10},
                   {"beta", 22, 0.5, 0.05},
                   {"gamma", 22, 1.0, 0.20}};
  cfg.coordinatedWalker = coordinatedWalker;
  cfg.stations = {{"gw-a", Geodetic::fromDegrees(47.0, -122.0), 0},
                  {"gw-b", Geodetic::fromDegrees(1.35, 103.82), 1},
                  {"gw-c", Geodetic::fromDegrees(-1.29, 36.82), 2}};
  cfg.users = {{"pittsburgh", Geodetic::fromDegrees(40.44, -79.99), 0},
               {"sydney", Geodetic::fromDegrees(-33.87, 151.21), 1},
               {"lagos", Geodetic::fromDegrees(6.52, 3.38), 2},
               {"sao-paulo", Geodetic::fromDegrees(-23.55, -46.63), 0},
               {"helsinki", Geodetic::fromDegrees(60.17, 24.94), 1},
               {"delhi", Geodetic::fromDegrees(28.61, 77.21), 2},
               {"anchorage", Geodetic::fromDegrees(61.22, -149.90), 0},
               {"tokyo", Geodetic::fromDegrees(35.68, 139.69), 1}};
  cfg.seed = 17;
  return cfg;
}

/// The legacy epoch bodies, run on a second Scenario built from the same
/// config (same snapshots, node ids and ledger setup). Per-epoch seeds come
/// from a replay of the production Scenario's RNG stream.
class LegacyScenario {
 public:
  explicit LegacyScenario(const ScenarioConfig& cfg) : s_(cfg), rng_(cfg.seed) {
    // Random orbits draw from the Scenario's RNG at construction.
    if (!cfg.coordinatedWalker) {
      for (const ProviderSpec& p : cfg.providers) {
        (void)makeRandomConstellation(p.satellites, cfg.altitudeM, rng_);
      }
    }
  }

  TrafficReport runTrafficEpoch(double tSeconds, double durationS,
                                double rateBps, QosClass qos) {
    const NetworkGraph g = s_.snapshot(tSeconds);
    Rng rng(rng_.engine()());
    EventQueue events;
    events.run(tSeconds);  // advance the clock to the epoch start
    ForwardingEngine engine(g, events);
    const OnDemandRouter router(g, makeCostFunction(CostWeights::forQos(qos)));

    const std::size_t users = s_.config().users.size();
    std::vector<Route> routes(users);
    for (std::size_t u = 0; u < users; ++u) {
      routes[u] = router.route(s_.userNode(u), s_.homeGatewayOf(u));
    }
    engine.onComplete([&](const DeliveryRecord& rec) {
      if (!rec.delivered) return;
      for (std::size_t u = 0; u < users; ++u) {
        if (s_.userNode(u) == rec.packet.src) {
          s_.settlement().recordRouteTraffic(g, routes[u], rec.packet.homeProvider,
                                             rec.packet.sizeBits / 8.0);
          break;
        }
      }
    });
    FlowGenerator gen(events, rng, [&](const Packet& p) {
      for (std::size_t u = 0; u < users; ++u) {
        if (s_.userNode(u) == p.src) {
          engine.send(p, routes[u]);
          return;
        }
      }
    });
    for (std::size_t u = 0; u < users; ++u) {
      if (!routes[u].valid()) continue;
      FlowSpec flow;
      flow.src = s_.userNode(u);
      flow.dst = s_.homeGatewayOf(u);
      flow.rateBps = rateBps;
      flow.qos = qos;
      flow.homeProvider = s_.providerId(s_.config().users[u].homeProviderIndex);
      flow.startS = tSeconds;
      flow.stopS = tSeconds + durationS;
      gen.addFlow(flow);
    }
    events.runAll();

    TrafficReport rep;
    rep.packetsOffered = gen.packetsEmitted();
    rep.packetsDelivered = engine.delivered();
    rep.packetsDropped = engine.dropped();
    if (engine.stats().count() > 0) {
      rep.meanLatencyS = engine.stats().meanS();
      rep.p95LatencyS = engine.stats().p95S();
    }
    rep.lossProbability = engine.stats().lossRate();
    rep.ledgersCrossVerified = s_.settlement().crossVerify();
    rep.settlement = s_.settlement().settle();
    for (const auto& item : rep.settlement) rep.totalSettlementUsd += item.amountUsd;
    return rep;
  }

  AdaptiveReport runAdaptiveEpochs(double tSeconds, int epochs,
                                   double epochDurationS, double rateBps) {
    NetworkGraph g = s_.snapshot(tSeconds);
    AdaptiveReport rep;
    const std::size_t users = s_.config().users.size();
    std::vector<Route> prevRoutes(users);

    for (int e = 0; e < epochs; ++e) {
      Rng rng(rng_.engine()());
      EventQueue events;
      const double epochStart = tSeconds + e * epochDurationS;
      events.run(epochStart);
      ForwardingEngine engine(g, events);
      const OnDemandRouter router(g, latencyCost());

      std::vector<Route> routes(users);
      for (std::size_t u = 0; u < users; ++u) {
        routes[u] = router.route(s_.userNode(u), s_.homeGatewayOf(u));
        if (e > 0 && routes[u].valid() && prevRoutes[u].valid() &&
            routes[u].nodes != prevRoutes[u].nodes) {
          ++rep.reroutedFlows;
        }
      }
      FlowGenerator gen(events, rng, [&](const Packet& p) {
        for (std::size_t u = 0; u < users; ++u) {
          if (s_.userNode(u) == p.src) {
            engine.send(p, routes[u]);
            return;
          }
        }
      });
      for (std::size_t u = 0; u < users; ++u) {
        if (!routes[u].valid()) continue;
        FlowSpec flow;
        flow.src = s_.userNode(u);
        flow.dst = s_.homeGatewayOf(u);
        flow.rateBps = rateBps;
        flow.homeProvider = s_.providerId(s_.config().users[u].homeProviderIndex);
        flow.startS = epochStart;
        flow.stopS = epochStart + epochDurationS;
        gen.addFlow(flow);
      }
      events.runAll();

      rep.epochMeanLatencyS.push_back(
          engine.stats().count() > 0 ? engine.stats().meanS() : 0.0);
      rep.epochLossRate.push_back(engine.stats().lossRate());
      rep.totalDelivered += engine.delivered();
      rep.totalDropped += engine.dropped();
      prevRoutes = routes;

      for (const LinkId lid : g.links()) {
        Link& l = g.link(lid);
        const double utilization =
            engine.bitsCarried(lid) / (l.capacityBps * epochDurationS);
        l.queueingDelayS = (utilization > 0.0)
                               ? estimateQueueingDelayS(utilization, l.capacityBps)
                               : 0.0;
        if (e + 1 < epochs) {
          maxFedBackQueueingDelayS_ =
              std::max(maxFedBackQueueingDelayS_, l.queueingDelayS);
        }
      }
    }
    return rep;
  }

  /// Largest queueing delay fed back into a later epoch's routing.
  double maxFedBackQueueingDelayS() const { return maxFedBackQueueingDelayS_; }

 private:
  Scenario s_;
  Rng rng_;
  double maxFedBackQueueingDelayS_ = 0.0;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expectIdentical(const TrafficReport& a, const TrafficReport& b) {
  EXPECT_EQ(a.packetsOffered, b.packetsOffered);
  EXPECT_EQ(a.packetsDelivered, b.packetsDelivered);
  EXPECT_EQ(a.packetsDropped, b.packetsDropped);
  EXPECT_EQ(bits(a.meanLatencyS), bits(b.meanLatencyS));
  EXPECT_EQ(bits(a.p95LatencyS), bits(b.p95LatencyS));
  EXPECT_EQ(bits(a.lossProbability), bits(b.lossProbability));
  EXPECT_EQ(a.ledgersCrossVerified, b.ledgersCrossVerified);
  ASSERT_EQ(a.settlement.size(), b.settlement.size());
  for (std::size_t i = 0; i < a.settlement.size(); ++i) {
    EXPECT_EQ(a.settlement[i].payer, b.settlement[i].payer) << "item " << i;
    EXPECT_EQ(a.settlement[i].payee, b.settlement[i].payee) << "item " << i;
    EXPECT_EQ(bits(a.settlement[i].bytes), bits(b.settlement[i].bytes)) << "item " << i;
    EXPECT_EQ(bits(a.settlement[i].amountUsd), bits(b.settlement[i].amountUsd))
        << "item " << i;
  }
  EXPECT_EQ(bits(a.totalSettlementUsd), bits(b.totalSettlementUsd));
}

void expectIdentical(const AdaptiveReport& a, const AdaptiveReport& b) {
  ASSERT_EQ(a.epochMeanLatencyS.size(), b.epochMeanLatencyS.size());
  ASSERT_EQ(a.epochLossRate.size(), b.epochLossRate.size());
  for (std::size_t e = 0; e < a.epochMeanLatencyS.size(); ++e) {
    EXPECT_EQ(bits(a.epochMeanLatencyS[e]), bits(b.epochMeanLatencyS[e])) << "epoch " << e;
    EXPECT_EQ(bits(a.epochLossRate[e]), bits(b.epochLossRate[e])) << "epoch " << e;
  }
  EXPECT_EQ(a.totalDelivered, b.totalDelivered);
  EXPECT_EQ(a.totalDropped, b.totalDropped);
  EXPECT_EQ(a.reroutedFlows, b.reroutedFlows);
}

// --- Scenario == legacy spec ---------------------------------------------------

class ScenarioMatchesLegacy
    : public ::testing::TestWithParam<std::tuple<bool, QosClass>> {};

TEST_P(ScenarioMatchesLegacy, ConsecutiveTrafficEpochs) {
  const auto [walker, qos] = GetParam();
  const ScenarioConfig cfg = specScenario(walker);
  Scenario prod(cfg);
  LegacyScenario ref(cfg);

  const TrafficReport a1 = prod.runTrafficEpoch(0.0, 2.0, 2e6, qos);
  const TrafficReport b1 = ref.runTrafficEpoch(0.0, 2.0, 2e6, qos);
  expectIdentical(a1, b1);
  EXPECT_GT(a1.packetsDelivered, 0u);
  EXPECT_FALSE(a1.settlement.empty());

  // The second epoch settles onto the first's ledgers.
  const TrafficReport a2 = prod.runTrafficEpoch(45.0, 1.0, 4e6, qos);
  const TrafficReport b2 = ref.runTrafficEpoch(45.0, 1.0, 4e6, qos);
  expectIdentical(a2, b2);
  EXPECT_GT(a2.packetsDelivered, 0u);
}

TEST_P(ScenarioMatchesLegacy, AdaptiveEpochsThenTrafficEpoch) {
  const auto [walker, qos] = GetParam();
  const ScenarioConfig cfg = specScenario(walker);
  Scenario prod(cfg);
  LegacyScenario ref(cfg);

  const AdaptiveReport a = prod.runAdaptiveEpochs(10.0, 3, 1.0, 5e6);
  const AdaptiveReport b = ref.runAdaptiveEpochs(10.0, 3, 1.0, 5e6);
  expectIdentical(a, b);
  EXPECT_GT(a.totalDelivered, 0u);
  // Epochs 1 and 2 routed over fed-back, non-zero queueing delays.
  EXPECT_GT(ref.maxFedBackQueueingDelayS(), 0.0);

  // The per-epoch seed draws leave both RNG streams in step.
  expectIdentical(prod.runTrafficEpoch(20.0, 1.0, 2e6, qos),
                  ref.runTrafficEpoch(20.0, 1.0, 2e6, qos));
}

INSTANTIATE_TEST_SUITE_P(
    OrbitModesAndQos, ScenarioMatchesLegacy,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(QosClass::Standard, QosClass::Premium)),
    [](const ::testing::TestParamInfo<ScenarioMatchesLegacy::ParamType>& info) {
      return std::string(std::get<0>(info.param) ? "Walker" : "RandomOrbits") +
             (std::get<1>(info.param) == QosClass::Standard ? "Standard"
                                                            : "Premium");
    });

// --- thread-count invariance -----------------------------------------------------

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(parallelThreadCount()) {}
  ~ThreadCountGuard() { setParallelThreadCount(saved_); }

 private:
  int saved_;
};

TEST(ScenarioDeterminism, ReportsIdenticalAcrossThreadCounts) {
  const ThreadCountGuard guard;
  struct Run {
    TrafficReport first, second;
    AdaptiveReport adaptive;
  };
  const auto runAt = [](int threads) {
    setParallelThreadCount(threads);
    Scenario s(specScenario(true));
    Run r;
    r.first = s.runTrafficEpoch(0.0, 2.0, 2e6);
    r.second = s.runTrafficEpoch(30.0, 1.0, 4e6, QosClass::Premium);
    r.adaptive = s.runAdaptiveEpochs(60.0, 3, 1.0, 5e6);
    return r;
  };
  const Run serial = runAt(1);
  const Run parallel = runAt(4);
  expectIdentical(serial.first, parallel.first);
  expectIdentical(serial.second, parallel.second);
  expectIdentical(serial.adaptive, parallel.adaptive);
}

}  // namespace
}  // namespace openspace
