// Wall-clock replica: one worker thread, FIFO queue, real sleeps, behind
// its own transport endpoint.
//
// The threaded runtime demonstrates that the selection algorithm and
// repository are not simulation-bound: the same core library drives real
// threads, with delta measured from the actual wall clock exactly as the
// paper's implementation measures it.
//
// The endpoint is the server gateway: a proto::Request is queued and the
// worker unicasts the proto::Reply (with piggybacked performance data) to
// the sender; a proto::Cancel purges a copy still waiting; a
// proto::Subscribe is answered with proto::Announce{replica, endpoint},
// the discovery handshake of a remote client gateway. A crashed replica
// simply stops answering — over UDP the client's retransmit budget then
// reports the host dead, the same liveness edge the sim Lan raises.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#include "common/ids.h"
#include "common/rng.h"
#include "net/transport.h"
#include "obs/span.h"
#include "proto/messages.h"
#include "runtime/blocking_queue.h"
#include "stats/variates.h"

namespace aqua::obs {
class Counter;
class Gauge;
class Histogram;
class Telemetry;
}  // namespace aqua::obs

namespace aqua::runtime {

class ThreadedReplica {
 public:
  /// Binds the endpoint: the hook that lets a process bind a fixed UDP
  /// port (UdpTransport::create_endpoint_on). It receives the receive
  /// callback and returns the endpoint it created on the transport.
  using EndpointFactory = std::function<EndpointId(net::ReceiveFn)>;

  /// Binds the endpoint, then starts the worker. Service durations are
  /// drawn from `service_time` and slept for real. `transport` must
  /// outlive the replica. `telemetry` (non-owning, may be null, must
  /// outlive the replica) mirrors the request flow into threaded_replica.*
  /// and the message flow into replica_endpoint.*: request / coded-chunk
  /// / subscribe intake, cancel fate (purged vs ignored — the
  /// §cancel-on-first-reply waste signal), submissions rejected by a
  /// crashed replica, replies sent, and a queue-length gauge.
  ThreadedReplica(ReplicaId id, stats::SamplerPtr service_time, Rng rng,
                  net::Transport& transport, const EndpointFactory& factory,
                  obs::Telemetry* telemetry = nullptr);

  /// Convenience: bind via transport.create_endpoint on `host`.
  ThreadedReplica(ReplicaId id, stats::SamplerPtr service_time, Rng rng,
                  net::Transport& transport, HostId host, obs::Telemetry* telemetry = nullptr);
  ~ThreadedReplica();

  ThreadedReplica(const ThreadedReplica&) = delete;
  ThreadedReplica& operator=(const ThreadedReplica&) = delete;

  [[nodiscard]] ReplicaId id() const { return id_; }
  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }

  /// Enqueue a request; the worker unicasts the reply to `reply_to` when
  /// the request completes, or to nobody when it is the default id.
  /// Returns false if the replica has crashed. The optional span context
  /// attributes the queue-wait and service spans to the caller's trace
  /// (obs/span.h).
  bool submit(const proto::Request& request, EndpointId reply_to = {},
              obs::SpanContext span = {});

  /// Requests waiting in the queue right now.
  [[nodiscard]] std::size_t queue_length() const;

  /// Withdraw a queued request (cancel-on-first-reply). Returns true if
  /// the request was still waiting and got purged; false when it already
  /// started service (it will reply normally), already finished, or was
  /// never submitted here.
  bool cancel(RequestId request, ClientId client);

  /// Requests removed from the queue by cancel() before servicing.
  [[nodiscard]] std::uint64_t purged() const { return purged_.load(); }

  /// Crash: drop the queue, stop servicing, never reply again.
  void crash();
  [[nodiscard]] bool alive() const { return alive_.load(); }

  [[nodiscard]] std::uint64_t serviced() const { return serviced_.load(); }

  /// Stop intake: destroy the transport endpoint — no message reaches the
  /// replica after this. A reply still in flight on the worker degrades
  /// to a counted transport drop. Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Job {
    proto::Request request;
    EndpointId reply_to;
    std::chrono::steady_clock::time_point enqueued_at;
    obs::SpanContext span{};
  };

  void on_receive(EndpointId from, const net::Payload& message);
  void worker();

  ReplicaId id_;
  stats::SamplerPtr service_time_;
  Rng rng_;
  net::Transport& transport_;
  EndpointId endpoint_{};
  std::atomic<bool> shut_down_{false};
  BlockingQueue<Job> queue_;
  std::atomic<bool> alive_{true};
  std::atomic<std::uint64_t> serviced_{0};
  std::atomic<std::uint64_t> purged_{0};

  /// Null unless telemetry is attached (one-branch discipline).
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* replies_counter_ = nullptr;
  obs::Histogram* service_time_histogram_ = nullptr;
  obs::Histogram* queuing_delay_histogram_ = nullptr;
  obs::Counter* intake_counter_ = nullptr;
  obs::Counter* coded_chunks_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* cancels_purged_counter_ = nullptr;
  obs::Counter* cancels_ignored_counter_ = nullptr;
  obs::Counter* subscribes_counter_ = nullptr;
  obs::Counter* sent_replies_counter_ = nullptr;
  obs::Gauge* queue_length_gauge_ = nullptr;
  /// Non-null only when telemetry is attached and spans are enabled.
  obs::Telemetry* span_sink_ = nullptr;

  std::thread thread_;
};

}  // namespace aqua::runtime
