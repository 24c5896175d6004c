#include "runtime/threaded_replica.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/telemetry.h"
#include "runtime/timer_slack.h"

namespace aqua::runtime {

ThreadedReplica::ThreadedReplica(ReplicaId id, stats::SamplerPtr service_time, Rng rng,
                                 net::Transport& transport, const EndpointFactory& factory,
                                 obs::Telemetry* telemetry)
    : id_(id), service_time_(std::move(service_time)), rng_(std::move(rng)), transport_(transport) {
  AQUA_REQUIRE(service_time_ != nullptr, "replica needs a service-time sampler");
  if (telemetry != nullptr) {
    auto& metrics = telemetry->metrics();
    requests_counter_ = &metrics.counter("threaded_replica.requests");
    replies_counter_ = &metrics.counter("threaded_replica.replies");
    service_time_histogram_ = &metrics.histogram("threaded_replica.service_time_us");
    queuing_delay_histogram_ = &metrics.histogram("threaded_replica.queuing_delay_us");
    intake_counter_ = &metrics.counter("replica_endpoint.requests");
    coded_chunks_counter_ = &metrics.counter("replica_endpoint.coded_chunks");
    rejected_counter_ = &metrics.counter("replica_endpoint.rejected");
    cancels_purged_counter_ = &metrics.counter("replica_endpoint.cancels_purged");
    cancels_ignored_counter_ = &metrics.counter("replica_endpoint.cancels_ignored");
    subscribes_counter_ = &metrics.counter("replica_endpoint.subscribes");
    sent_replies_counter_ = &metrics.counter("replica_endpoint.replies");
    queue_length_gauge_ = &metrics.gauge("replica_endpoint.queue_length");
    if (telemetry->spans_enabled()) span_sink_ = telemetry;
  }
  // Intake and the worker start only after the metric pointers are
  // resolved, so neither races their initialisation; the worker also
  // finds endpoint_ set.
  endpoint_ = factory(
      [this](EndpointId from, const net::Payload& message) { on_receive(from, message); });
  thread_ = std::thread([this] { worker(); });
}

ThreadedReplica::ThreadedReplica(ReplicaId id, stats::SamplerPtr service_time, Rng rng,
                                 net::Transport& transport, HostId host,
                                 obs::Telemetry* telemetry)
    : ThreadedReplica(
          id, std::move(service_time), std::move(rng), transport,
          [&transport, host](net::ReceiveFn fn) {
            return transport.create_endpoint(host, std::move(fn));
          },
          telemetry) {}

ThreadedReplica::~ThreadedReplica() {
  shutdown();
  crash();
  if (thread_.joinable()) thread_.join();
}

void ThreadedReplica::shutdown() {
  if (!shut_down_.exchange(true)) transport_.destroy_endpoint(endpoint_);
}

bool ThreadedReplica::submit(const proto::Request& request, EndpointId reply_to,
                             obs::SpanContext span) {
  if (!alive_.load()) return false;
  const bool pushed =
      queue_.push(Job{request, reply_to, std::chrono::steady_clock::now(), span});
  if (pushed && requests_counter_ != nullptr) requests_counter_->add();
  return pushed;
}

void ThreadedReplica::on_receive(EndpointId from, const net::Payload& message) {
  if (const auto* request = message.get_if<proto::Request>()) {
    if (intake_counter_ != nullptr) {
      intake_counter_->add();
      // Chunk demand: coded k-of-n dispatches, vs whole-job requests.
      if (request->code_k > 0) coded_chunks_counter_->add();
    }
    const bool accepted = submit(*request, from, message.span());
    if (intake_counter_ != nullptr) {
      if (!accepted) rejected_counter_->add();
      queue_length_gauge_->set(static_cast<double>(queue_length()));
    }
    return;
  }
  if (const auto* cancel_msg = message.get_if<proto::Cancel>()) {
    // Best-effort: purges the queued copy if service has not started;
    // otherwise the reply is already on its way and the client drops it.
    const bool purged = cancel(cancel_msg->request, cancel_msg->client);
    if (intake_counter_ != nullptr) {
      (purged ? cancels_purged_counter_ : cancels_ignored_counter_)->add();
      queue_length_gauge_->set(static_cast<double>(queue_length()));
    }
    return;
  }
  if (message.get_if<proto::Subscribe>() != nullptr) {
    if (subscribes_counter_ != nullptr) subscribes_counter_->add();
    transport_.unicast(endpoint_, from,
                       net::Payload::make(proto::Announce{id_, endpoint_}, proto::kAnnounceBytes));
  }
}

std::size_t ThreadedReplica::queue_length() const { return queue_.size(); }

bool ThreadedReplica::cancel(RequestId request, ClientId client) {
  // remove_if only reaches items still inside the queue; a job the worker
  // already popped is in service and keeps its reply. That makes the
  // cancel/service-start race safe by construction: whichever side wins
  // the queue lock decides, and both outcomes are legal protocol states.
  const std::size_t removed = queue_.remove_if([&](const Job& job) {
    return job.request.id == request && job.request.client == client;
  });
  if (removed == 0) return false;
  purged_.fetch_add(removed);
  return true;
}

void ThreadedReplica::crash() {
  alive_.store(false);
  queue_.close_and_drain();
}

void ThreadedReplica::worker() {
  use_precise_timers();
  while (auto job = queue_.pop()) {
    const auto dequeued_at = std::chrono::steady_clock::now();
    Duration service = service_time_->sample(rng_);
    // Chunk-requests of an MDS-coded job carry 1/code_k of the whole
    // demand. Scale after the draw so RNG consumption matches uncoded
    // runs (the same discipline as ServiceModel::sample_chunk).
    if (job->request.code_k > 1) {
      service = std::max(Duration{1}, service / static_cast<std::int64_t>(job->request.code_k));
    }
    // Sleep to an absolute end, so the draw alone bounds the reported t_s
    // and the bookkeeping above does not add to it.
    std::this_thread::sleep_until(dequeued_at + service);
    if (!alive_.load()) return;  // crashed mid-service: never reply

    proto::Reply reply;
    reply.request = job->request.id;
    reply.replica = id_;
    reply.method = job->request.method;
    reply.result = job->request.argument;
    reply.chunk = job->request.chunk;
    reply.code_id = job->request.code_id;
    reply.perf.service_time = std::chrono::duration_cast<Duration>(
        std::chrono::steady_clock::now() - dequeued_at);
    reply.perf.queuing_delay =
        std::chrono::duration_cast<Duration>(dequeued_at - job->enqueued_at);
    reply.perf.queue_length = static_cast<std::int64_t>(queue_.size());
    reply.perf.sample_seq = serviced_.fetch_add(1) + 1;
    if (replies_counter_ != nullptr) {
      replies_counter_->add();
      service_time_histogram_->record(reply.perf.service_time);
      queuing_delay_histogram_->record(reply.perf.queuing_delay);
    }
    if (span_sink_ != nullptr && job->span.valid()) {
      // Map onto the hub's wall-clock axis by anchoring at "now" and
      // walking back through the measured durations, so queue and
      // service spans line up exactly with the perf triple.
      const TimePoint finish = span_sink_->wall_now();
      const TimePoint dequeue = finish - reply.perf.service_time;
      const TimePoint enqueue = dequeue - reply.perf.queuing_delay;
      const ClientId client = obs::trace_client(job->span.trace_id);
      const RequestId request_id = obs::trace_request(job->span.trace_id);
      const std::uint64_t queue_span = span_sink_->next_span_id();
      const std::uint64_t service_span = span_sink_->next_span_id();
      span_sink_->record_span({.trace_id = job->span.trace_id,
                               .span_id = queue_span,
                               .parent_span_id = job->span.parent_span_id,
                               .kind = obs::SpanKind::kQueueWait,
                               .client = client,
                               .request = request_id,
                               .replica = id_,
                               .start = enqueue,
                               .end = dequeue});
      span_sink_->record_span({.trace_id = job->span.trace_id,
                               .span_id = service_span,
                               .parent_span_id = queue_span,
                               .kind = obs::SpanKind::kService,
                               .client = client,
                               .request = request_id,
                               .replica = id_,
                               .start = dequeue,
                               .end = finish});
    }
    if (job->reply_to == EndpointId{}) continue;
    net::Payload payload = net::Payload::make(reply, proto::kReplyBytes);
    if (job->span.valid()) {
      payload.set_span({.trace_id = job->span.trace_id,
                        .parent_span_id = job->span.parent_span_id,
                        .leg = obs::SpanKind::kReplyLeg,
                        .replica = id_});
    }
    if (sent_replies_counter_ != nullptr) sent_replies_counter_->add();
    // LocalTransport and UdpTransport accept sends from any thread.
    transport_.unicast(endpoint_, job->reply_to, std::move(payload));
  }
}

}  // namespace aqua::runtime
