// Message-transport abstraction: the boundary every gateway speaks over.
//
// The paper's handlers run in client and server gateways joined by a real
// LAN (Maestro/Ensemble); this reproduction grows two interchangeable
// substrates behind one interface:
//
//  - net::Lan         discrete-event simulated LAN (deterministic, the
//                      substrate of every seeded experiment);
//  - net::UdpTransport real kernel UDP sockets with a versioned wire
//                      format, so gateway and replica processes can run
//                      separately and T_i reflects actual wire behaviour.
//
// The surface is deliberately small: endpoint create/destroy, unicast /
// multicast of a net::Payload, and the host-liveness signal the group
// failure detector and dependability manager consume. Backend-specific
// controls (sim fault filters, UDP peer registration) stay on the
// concrete classes — code that needs them already knows which backend it
// built.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "common/ids.h"
#include "net/payload.h"

namespace aqua::obs {
class Telemetry;
}  // namespace aqua::obs

namespace aqua::net {

/// Invoked on delivery: sender endpoint and the message. Runs inside
/// simulator events (sim backend), on the executor thread (in-process
/// LocalTransport) or inline on the receiving endpoint's own receive
/// thread (UDP backend).
using ReceiveFn = std::function<void(EndpointId from, const Payload& message)>;

/// Invoked when a host changes liveness (false = crashed / stopped
/// acking). The UDP backend notifies from its timer thread when the
/// retransmit budget runs out, and from a receive thread when a later
/// frame shows the host alive again.
using HostStateFn = std::function<void(HostId host, bool alive)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Register a receiving endpoint on `host`. The callback must outlive
  /// the endpoint and be safe for the backend's delivery context.
  virtual EndpointId create_endpoint(HostId host, ReceiveFn on_receive) = 0;

  /// Remove an endpoint; traffic already in flight to it is dropped.
  virtual void destroy_endpoint(EndpointId endpoint) = 0;

  /// Point-to-point send. The sender must be a local endpoint.
  virtual void unicast(EndpointId from, EndpointId to, Payload message) = 0;

  /// Send to each destination independently (Maestro send-to-subset).
  virtual void multicast(EndpointId from, std::span<const EndpointId> to, Payload message) = 0;

  /// Observe host liveness transitions (failure-detector input). The
  /// subscriber must outlive the transport or the traffic that can fire it.
  virtual void subscribe_host_state(HostStateFn fn) = 0;
  [[nodiscard]] virtual bool host_alive(HostId host) const = 0;

  [[nodiscard]] virtual HostId endpoint_host(EndpointId endpoint) const = 0;
  [[nodiscard]] virtual bool endpoint_exists(EndpointId endpoint) const = 0;

  /// Mirror message counters into `telemetry` under the shared lan.*
  /// metric names (lan.sent / lan.delivered / lan.dropped, ...). Null
  /// detaches; the disabled path costs one branch per message.
  virtual void set_telemetry(obs::Telemetry* telemetry) = 0;

  /// Counters for tests and reports.
  [[nodiscard]] virtual std::uint64_t messages_sent() const = 0;
  [[nodiscard]] virtual std::uint64_t messages_delivered() const = 0;
  [[nodiscard]] virtual std::uint64_t messages_dropped() const = 0;
};

}  // namespace aqua::net
