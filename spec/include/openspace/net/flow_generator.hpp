// Synthetic traffic generation over the EventQueue (the legacy executable
// spec).
//
// FlowGenerator emits Poisson packet arrivals per FlowSpec into a sink
// callback, one closure event at a time. FlowSimulator (sim/flow_sim.hpp)
// is the production path and reproduces its emission times and packet ids
// bit-for-bit from the same RNG seed; property tests pin the two together.
#pragma once

#include <functional>

#include <openspace/geo/rng.hpp>
#include <openspace/net/event.hpp>
#include <openspace/net/flows.hpp>
#include <openspace/net/packet.hpp>

namespace openspace {

/// Emits packets for a set of flows into a sink callback via the event
/// queue. Poisson arrivals: exponential inter-packet gaps with mean
/// packetBits / rateBps. Deterministic given the Rng.
class FlowGenerator {
 public:
  using Sink = std::function<void(const Packet&)>;

  /// Throws InvalidArgumentError on flows with non-positive rate/size.
  FlowGenerator(EventQueue& events, Rng& rng, Sink sink);

  /// Register a flow; packets are scheduled lazily (one event at a time).
  void addFlow(const FlowSpec& flow);

  std::size_t packetsEmitted() const noexcept { return emitted_; }

 private:
  void scheduleNext(const FlowSpec& flow, double afterS);

  EventQueue& events_;
  Rng& rng_;
  Sink sink_;
  std::size_t emitted_ = 0;
  PacketId nextId_ = 1;
};

}  // namespace openspace
