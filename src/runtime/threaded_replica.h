// Wall-clock replica: the threaded driver of replica::ReplicaCore behind
// its own transport endpoint, with one worker thread and one mutex around
// the core. A proto::Request is queued; the worker sleeps until t3 + the
// drawn service time, then unicasts the reply to the sender and the
// PerfUpdate to every other subscriber. A copy that was waiting gets t3 =
// the previous copy's end (the core's start rule), so the worker's late
// wake-up and reply send overlap its service rather than delay it: t_s
// is the draw, and the lateness shows up as replica.reply_lag_us and in
// the client's gateway delay t_d. A proto::Cancel purges every
// queued copy; a proto::Subscribe adds the sender to the subscribers and
// is answered with proto::Announce{replica, endpoint}, the discovery
// handshake of a remote gateway. Subscribers are keyed by the sender
// handle: an endpoint id inside a message means nothing outside its own
// process. A crashed replica stops answering; over UDP the client's
// retransmit budget then reports the host dead, the same liveness edge
// the sim Lan raises.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>

#include "common/ids.h"
#include "common/rng.h"
#include "net/transport.h"
#include "obs/span.h"
#include "proto/messages.h"
#include "replica/replica_core.h"

namespace aqua::runtime {

class ThreadedReplica {
 public:
  /// Creates the endpoint from the receive callback: the hook that lets a
  /// process bind a fixed UDP port (UdpTransport::create_endpoint_on).
  using EndpointFactory = std::function<EndpointId(net::ReceiveFn)>;

  /// Binds the endpoint, then starts the worker, which sleeps to the end
  /// of each drawn service for real. `transport` must outlive the replica.
  /// config.gateway_overhead is not emulated.
  ThreadedReplica(ReplicaId id, replica::ServiceModelPtr service, Rng rng,
                  net::Transport& transport, const EndpointFactory& factory,
                  replica::ReplicaConfig config = {});

  /// Convenience: bind via transport.create_endpoint on `host`.
  ThreadedReplica(ReplicaId id, replica::ServiceModelPtr service, Rng rng,
                  net::Transport& transport, HostId host, replica::ReplicaConfig config = {});
  ~ThreadedReplica();

  ThreadedReplica(const ThreadedReplica&) = delete;
  ThreadedReplica& operator=(const ThreadedReplica&) = delete;

  [[nodiscard]] ReplicaId id() const { return core_.id(); }  // immutable: no lock
  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }

  /// Enqueue a request; the worker unicasts the reply to `reply_to` when
  /// the request completes, or to nobody when it is the default id.
  /// Returns false if the replica has crashed. The optional span context
  /// attributes the queue-wait and service spans to the caller's trace
  /// (obs/span.h).
  bool submit(const proto::Request& request, EndpointId reply_to = {},
              obs::SpanContext span = {});

  /// Crash: drop the queue, stop servicing, never reply again.
  void crash();

  /// Stop intake: destroy the transport endpoint — no message reaches the
  /// replica after this. A reply still in flight on the worker degrades
  /// to a counted transport drop. Idempotent; the destructor calls it.
  void shutdown();

  /// Snapshots of the core (see ReplicaCore); purged() counts copies.
  [[nodiscard]] bool alive() const { return locked(&replica::ReplicaCore::alive); }
  [[nodiscard]] std::size_t queue_length() const {
    return locked(&replica::ReplicaCore::queue_length);
  }
  [[nodiscard]] std::uint64_t purged() const { return locked(&replica::ReplicaCore::purged); }
  [[nodiscard]] std::uint64_t serviced() const { return locked(&replica::ReplicaCore::serviced); }

 private:
  template <typename Read>
  std::invoke_result_t<Read, const replica::ReplicaCore&> locked(Read read) const {
    std::lock_guard lock(mutex_);
    return std::invoke(read, core_);
  }
  void on_receive(EndpointId from, const net::Payload& message);
  void worker();

  net::Transport& transport_;
  EndpointId endpoint_{};
  std::atomic<bool> shut_down_{false};

  mutable std::mutex mutex_;  // guards the core and stopping_
  std::condition_variable work_;
  replica::ReplicaCore core_;
  bool stopping_ = false;  // set by the destructor: the worker exits

  std::thread thread_;
};

}  // namespace aqua::runtime
