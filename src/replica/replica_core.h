// The server gateway of §5.1 and §5.4.1 as a sans-IO state machine, the
// replica-side twin of core::RequestEngine. It queues each request FIFO,
// stamping t2 on entry and t3 when its service starts, answers with t_s,
// t_q = t3 - t2 and the queue length piggybacked, and pushes the same
// data to every other subscriber. It serves as a FIFO server: a copy
// already queued when the previous service ended starts at that end, and
// every copy finishes exactly its draw after t3, however late the driver
// gets round to it. It never reads a clock, sleeps, locks or sends:
// every time arrives as an argument, and a finished request comes back
// as the payloads to send. replica::ReplicaServer drives it on
// simulator events, runtime::ThreadedReplica on a worker thread.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "net/payload.h"
#include "obs/span.h"
#include "proto/messages.h"
#include "replica/service_model.h"

namespace aqua::obs {
class Counter;
class Gauge;
class Histogram;
class Telemetry;
}  // namespace aqua::obs

namespace aqua::replica {

struct ReplicaConfig {
  /// Simulation only: server-gateway processing per message direction
  /// (demarshalling and the CORBA dynamic-invocation upcall), emulated as
  /// a delay between dequeue and t3. The threaded runtime pays its real
  /// intake cost instead and never sleeps this one.
  Duration gateway_overhead = usec(150);
  /// Application function applied to the request argument; the default
  /// echoes it (the paper's servers "responded with an integer data").
  std::function<std::int64_t(std::int64_t)> compute = [](std::int64_t x) { return x; };
  /// §8 extension: per-method service models for servers that "export
  /// multiple service interfaces". Methods not listed fall back to the
  /// replica's default model.
  std::map<std::string, ServiceModelPtr> method_models;

  /// Value-fault injection: probability that a reply carries a corrupted
  /// result ([16]'s fault class; the majority-value completion masks
  /// these, the timing fault handler deliberately does not).
  double value_fault_rate = 0.0;
  /// How a corrupted result is derived from the correct one.
  std::function<std::int64_t(std::int64_t)> corrupt = [](std::int64_t x) { return ~x; };

  /// Optional telemetry hub (non-owning, must outlive the replica).
  /// Counters replica.{requests, replies, cancels_purged, cancels_ignored,
  /// rejected, coded_chunks, subscribes, crashes, restarts}, histograms
  /// replica.service_time_us and replica.queuing_delay_us, the gauge
  /// replica.<id>.queue_length, the queue-wait and service spans, and
  /// replica.reply_lag_us when the driver reports reply departures.
  /// Null keeps every instrumented site at one branch.
  obs::Telemetry* telemetry = nullptr;
};

class ReplicaCore {
 public:
  /// A finished request: the reply for its sender, and the PerfUpdate for
  /// every other subscriber (empty when there is none).
  struct Finished {
    EndpointId reply_to;
    net::Payload reply;
    std::vector<EndpointId> perf_targets;
    net::Payload perf_update;
  };

  ReplicaCore(ReplicaId id, ServiceModelPtr service_model, Rng rng, ReplicaConfig config = {});
  ReplicaCore(const ReplicaCore&) = delete;
  ReplicaCore& operator=(const ReplicaCore&) = delete;

  /// Queue `request` at t2 = now, to be answered at `reply_to`. False,
  /// counted as rejected, after a crash. Admission times never decrease,
  /// so the queue is in t2 order.
  bool admit(TimePoint now, const proto::Request& request, EndpointId reply_to,
             obs::SpanContext span = {});
  /// Withdraw every queued copy of (request, client); returns how many.
  /// A copy already in service is out of reach: it replies normally.
  std::size_t cancel(RequestId request, ClientId client);
  /// Push PerfUpdates to `subscriber` (idempotent).
  void subscribe(EndpointId subscriber);

  /// Move the queue head into service and return when it started; empty
  /// if busy or nothing queued. The FIFO-server rule: a copy queued by the
  /// end of the previous service (t2 <= that end) starts at that end, any
  /// other at `now`, the moment the driver takes it. A driver that runs
  /// late thus does not push back the copies waiting behind it.
  std::optional<TimePoint> start(TimePoint now);
  /// Stamp t3 = `at` (the start, or later by an emulated intake) and draw
  /// the service time (the method's model, one chunk's share when coded)
  /// with the queue length at t3.
  Duration begin_service(TimePoint at);
  /// The request in service ends at t3 + the draw: its reply and
  /// PerfUpdate. The driver calls this at or after that end.
  Finished finish();
  /// The driver handed the reply that finished at `end` to its transport
  /// at `departure`: records departure - end in replica.reply_lag_us.
  void reply_departed(TimePoint end, TimePoint departure);

  /// Drop the queue and the request in service; admit nothing more.
  void crash();
  /// Back after a crash, with no queue and no subscribers.
  void restart();

  [[nodiscard]] ReplicaId id() const { return id_; }
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] bool busy() const { return busy_; }
  /// Requests waiting (excludes the one in service).
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  /// Requests fully serviced: the sample_seq of the latest reply.
  [[nodiscard]] std::uint64_t serviced() const { return serviced_; }
  /// Queued copies a cancel reclaimed, and cancels that found none.
  [[nodiscard]] std::uint64_t purged() const { return purged_; }
  [[nodiscard]] std::uint64_t cancels_ignored() const { return cancels_ignored_; }
  /// Sum of finish − start over completed requests: the draws, plus any
  /// intake the driver emulates between start and t3.
  [[nodiscard]] Duration busy_time() const { return busy_time_; }

 private:
  struct Queued {
    proto::Request request;
    EndpointId reply_to;
    TimePoint enqueued_at{};  // t2
    obs::SpanContext span{};  // trace stamp carried in from the wire
  };

  /// Requests waiting that arrived by `t` (t2 <= t): the queue a stamp at
  /// `t` sees when the driver calls in after it.
  [[nodiscard]] std::size_t queued_by(TimePoint t) const;
  void record_spans(TimePoint finish, net::Payload& reply);

  ReplicaId id_;
  ServiceModelPtr service_model_;
  Rng rng_;
  ReplicaConfig config_;

  bool alive_ = true;
  bool busy_ = false;
  std::deque<Queued> queue_;
  Queued current_{};
  TimePoint started_at_{};  // left the queue
  TimePoint service_at_{};  // t3
  Duration service_{};      // the draw
  std::optional<TimePoint> last_end_;  // end of the previous service
  std::vector<EndpointId> subscribers_;
  std::uint64_t serviced_ = 0;
  std::uint64_t purged_ = 0;
  std::uint64_t cancels_ignored_ = 0;
  Duration busy_time_ = Duration::zero();

  /// Null unless telemetry is attached (one-branch discipline).
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* replies_counter_ = nullptr;
  obs::Counter* purged_counter_ = nullptr;
  obs::Counter* ignored_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* coded_chunks_counter_ = nullptr;
  obs::Counter* subscribes_counter_ = nullptr;
  obs::Counter* crashes_counter_ = nullptr;
  obs::Counter* restarts_counter_ = nullptr;
  obs::Histogram* service_time_histogram_ = nullptr;
  obs::Histogram* queuing_delay_histogram_ = nullptr;
  obs::Histogram* reply_lag_histogram_ = nullptr;
  obs::Gauge* queue_length_gauge_ = nullptr;
  /// Non-null only when telemetry is attached and spans are enabled.
  obs::Telemetry* span_sink_ = nullptr;
};

}  // namespace aqua::replica
