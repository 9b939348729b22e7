// Synthetic traffic flow specifications.
//
// The paper (§5(1)) calls for "modelling a potential user base along with
// potential user traffic patterns". A FlowSpec describes one such pattern:
// a unidirectional Poisson packet flow. FlowSimulator (sim/flow_sim.hpp)
// turns specs into packets; the legacy closure-based FlowGenerator that
// emits the same packets lives with the test-side executable specs
// (spec/include/openspace/net/flow_generator.hpp).
#pragma once

#include <openspace/net/packet.hpp>

namespace openspace {

/// A unidirectional traffic flow specification.
struct FlowSpec {
  NodeId src{};
  NodeId dst{};
  double rateBps = 1e6;        ///< Mean offered load.
  double packetBits = 12'000;  ///< Packet size.
  QosClass qos = QosClass::Standard;
  ProviderId homeProvider{};
  double startS = 0.0;
  double stopS = 0.0;  ///< Exclusive; <= startS means no packets.
};

}  // namespace openspace
