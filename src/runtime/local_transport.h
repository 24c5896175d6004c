// In-process transport: the threaded runtime's delay-injecting network.
//
// Every hop is a task on one DelayedExecutor, posted after a one-way delay
// drawn from a NetDelayModel, so all callbacks of all endpoints run on that
// one thread. Payloads cross as objects: multicast copies share one body
// and the span context rides along. A hop from an endpoint already gone
// when it is sent, or to one gone when it arrives, is a counted drop, as
// over UDP. Hosts never fail here: a crashed replica just stops answering.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "net/transport.h"
#include "runtime/delayed_executor.h"
#include "stats/variates.h"

namespace aqua::obs {
class Counter;
}  // namespace aqua::obs

namespace aqua::runtime {

/// Symmetric one-way "network" delay injected on each hop.
struct NetDelayModel {
  Duration base = usec(200);
  Duration jitter_max = usec(100);

  /// Fault-injection hook: when set, every sampled delay is scaled/offset
  /// through this shared control block — the threaded analogue of a LAN
  /// spike window, retuned by the scenario engine mid-run.
  std::shared_ptr<const stats::LoadModulation> modulation;

  [[nodiscard]] Duration sample(Rng& rng) const;
};

class LocalTransport final : public net::Transport {
 public:
  LocalTransport(NetDelayModel net, Rng rng);

  LocalTransport(const LocalTransport&) = delete;
  LocalTransport& operator=(const LocalTransport&) = delete;

  EndpointId create_endpoint(HostId host, net::ReceiveFn on_receive) override;
  /// After this returns no callback of `endpoint` is running — one in
  /// progress is waited for — unless the caller is itself a callback.
  void destroy_endpoint(EndpointId endpoint) override;
  void unicast(EndpointId from, EndpointId to, net::Payload message) override;
  /// Each destination gets its own delay draw.
  void multicast(EndpointId from, std::span<const EndpointId> to, net::Payload message) override;

  void subscribe_host_state(net::HostStateFn) override {}
  [[nodiscard]] bool host_alive(HostId) const override { return true; }
  [[nodiscard]] HostId endpoint_host(EndpointId endpoint) const override;
  [[nodiscard]] bool endpoint_exists(EndpointId endpoint) const override;

  /// Attach before traffic flows, as for UdpTransport.
  void set_telemetry(obs::Telemetry* telemetry) override;

  [[nodiscard]] std::uint64_t messages_sent() const override { return sent_.load(); }
  [[nodiscard]] std::uint64_t messages_delivered() const override { return delivered_.load(); }
  [[nodiscard]] std::uint64_t messages_dropped() const override { return dropped_.load(); }

 private:
  struct Endpoint {
    HostId host;
    /// Shared so a callback that destroys its own endpoint keeps running.
    std::shared_ptr<const net::ReceiveFn> on_receive;
  };

  void deliver(EndpointId from, EndpointId to, const net::Payload& message);
  void drop_locked();

  NetDelayModel net_;
  mutable std::mutex mutex_;  // guards everything below up to the atomics
  Rng rng_;
  IdGenerator<EndpointId> endpoint_ids_;
  std::unordered_map<EndpointId, Endpoint> endpoints_;
  /// The endpoint whose callback runs now (none when default), and the
  /// thread running it; destroy_endpoint waits on delivered_cv_.
  EndpointId delivering_{};
  std::thread::id delivery_thread_{};
  std::condition_variable delivered_cv_;
  obs::Counter* sent_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};

  /// Declared last so it is destroyed FIRST: its shutdown discards pending
  /// hops and joins a delivery in progress before the endpoints go away.
  DelayedExecutor executor_;
};

}  // namespace aqua::runtime
