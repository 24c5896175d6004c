// A net::Transport decorator that forwards every call to the real
// transport, counts what it forwarded, and — when a WireStamps store is
// attached — stamps the wire-path boundaries of each request:
//
//   client send call        multicast() of a proto::Request
//   replica intake          the replica endpoint's receive callback
//   replica reply send      unicast() of a proto::Reply (+ its t_q, t_s)
//   client harvest          the client endpoint's receive callback
//
// Stamps go into preallocated atomics indexed by request id, so the hot
// path takes no lock and allocates nothing; spans are assembled from them
// after the run. With no store attached the cost per call is the
// forwarding plus one relaxed counter add.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/transport.h"
#include "proto/messages.h"

namespace perfbench {

/// Per-request, per-replica timestamps (steady-clock ns; 0 = not seen).
/// Request ids and arguments index the arrays directly: the threaded
/// client numbers requests 1, 2, ... and the benchmark numbers arguments
/// the same way, so anything at or past `capacity` is simply not stamped.
class WireStamps {
 public:
  enum Field : std::size_t {
    kReplicaEntry,  // replica endpoint receive callback entered
    kReplicaExit,   // ... and returned
    kReplyStart,    // replica's reply unicast called
    kReplyEnd,      // ... and returned
    kClientEntry,   // client receive callback entered for this reply
    kClientExit,    // ... and returned
    kQueueUs,       // piggybacked t_q of the reply
    kServiceUs,     // piggybacked t_s of the reply
    kFields,
  };

  WireStamps(std::size_t capacity, std::size_t replicas)
      : capacity_(capacity),
        replicas_(replicas),
        send_(capacity * 2),
        request_of_argument_(capacity),
        per_replica_(capacity * replicas * kFields) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t replicas() const { return replicas_; }

  void set_send(std::uint64_t request, std::int64_t start, std::int64_t end) {
    if (request >= capacity_) return;
    send_[request * 2].store(start, std::memory_order_relaxed);
    send_[request * 2 + 1].store(end, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t send_start(std::uint64_t request) const {
    return request < capacity_ ? send_[request * 2].load(std::memory_order_relaxed) : 0;
  }
  [[nodiscard]] std::int64_t send_end(std::uint64_t request) const {
    return request < capacity_ ? send_[request * 2 + 1].load(std::memory_order_relaxed) : 0;
  }

  void set_request_of(std::int64_t argument, std::uint64_t request) {
    if (argument < 0 || static_cast<std::uint64_t>(argument) >= capacity_) return;
    request_of_argument_[static_cast<std::size_t>(argument)].store(request,
                                                                   std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t request_of(std::int64_t argument) const {
    if (argument < 0 || static_cast<std::uint64_t>(argument) >= capacity_) return 0;
    return request_of_argument_[static_cast<std::size_t>(argument)].load(
        std::memory_order_relaxed);
  }

  /// `replica` is the 0-based replica index.
  void set(std::uint64_t request, std::size_t replica, Field field, std::int64_t value) {
    if (request >= capacity_ || replica >= replicas_) return;
    per_replica_[index(request, replica, field)].store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t get(std::uint64_t request, std::size_t replica, Field field) const {
    if (request >= capacity_ || replica >= replicas_) return 0;
    return per_replica_[index(request, replica, field)].load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::size_t index(std::uint64_t request, std::size_t replica, Field field) const {
    return (static_cast<std::size_t>(request) * replicas_ + replica) * kFields + field;
  }

  std::size_t capacity_;
  std::size_t replicas_;
  std::vector<std::atomic<std::int64_t>> send_;
  std::vector<std::atomic<std::uint64_t>> request_of_argument_;
  std::vector<std::atomic<std::int64_t>> per_replica_;
};

class TimedTransport final : public aqua::net::Transport {
 public:
  /// `inner` must outlive this decorator; `stamps` may be null (untraced)
  /// and otherwise must outlive every endpoint created through it.
  /// Endpoints created on hosts 1..replicas are treated as replicas
  /// (index host - 1), any other host as a client.
  TimedTransport(aqua::net::Transport& inner, std::size_t replicas, WireStamps* stamps)
      : inner_(inner), replicas_(replicas), stamps_(stamps) {}

  aqua::EndpointId create_endpoint(aqua::HostId host, aqua::net::ReceiveFn on_receive) override;
  void destroy_endpoint(aqua::EndpointId endpoint) override { inner_.destroy_endpoint(endpoint); }
  void unicast(aqua::EndpointId from, aqua::EndpointId to, aqua::net::Payload message) override;
  void multicast(aqua::EndpointId from, std::span<const aqua::EndpointId> to,
                 aqua::net::Payload message) override;
  void subscribe_host_state(aqua::net::HostStateFn fn) override {
    inner_.subscribe_host_state(std::move(fn));
  }
  [[nodiscard]] bool host_alive(aqua::HostId host) const override {
    return inner_.host_alive(host);
  }
  [[nodiscard]] aqua::HostId endpoint_host(aqua::EndpointId endpoint) const override {
    return inner_.endpoint_host(endpoint);
  }
  [[nodiscard]] bool endpoint_exists(aqua::EndpointId endpoint) const override {
    return inner_.endpoint_exists(endpoint);
  }
  void set_telemetry(aqua::obs::Telemetry* telemetry) override { inner_.set_telemetry(telemetry); }
  [[nodiscard]] std::uint64_t messages_sent() const override { return inner_.messages_sent(); }
  [[nodiscard]] std::uint64_t messages_delivered() const override {
    return inner_.messages_delivered();
  }
  [[nodiscard]] std::uint64_t messages_dropped() const override {
    return inner_.messages_dropped();
  }

  /// What this decorator forwarded: one per unicast, one per multicast
  /// destination (the inner transport's messages_sent() counts the
  /// same), and callbacks it relayed (messages_delivered()).
  [[nodiscard]] std::uint64_t forwarded_sends() const { return sends_.load(); }
  [[nodiscard]] std::uint64_t relayed_deliveries() const { return deliveries_.load(); }
  /// Replies that reached a client endpoint.
  [[nodiscard]] std::uint64_t client_replies() const { return client_replies_.load(); }

 private:
  aqua::net::Transport& inner_;
  std::size_t replicas_;
  WireStamps* stamps_;
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint64_t> deliveries_{0};
  std::atomic<std::uint64_t> client_replies_{0};
};

}  // namespace perfbench
