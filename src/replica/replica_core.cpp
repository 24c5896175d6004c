#include "replica/replica_core.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/telemetry.h"

namespace aqua::replica {

ReplicaCore::ReplicaCore(ReplicaId id, ServiceModelPtr service_model, Rng rng,
                         ReplicaConfig config)
    : id_(id),
      service_model_(std::move(service_model)),
      rng_(std::move(rng)),
      config_(std::move(config)) {
  AQUA_REQUIRE(service_model_ != nullptr, "replica needs a service model");
  if (config_.telemetry != nullptr) {
    auto& metrics = config_.telemetry->metrics();
    requests_counter_ = &metrics.counter("replica.requests");
    replies_counter_ = &metrics.counter("replica.replies");
    purged_counter_ = &metrics.counter("replica.cancels_purged");
    ignored_counter_ = &metrics.counter("replica.cancels_ignored");
    rejected_counter_ = &metrics.counter("replica.rejected");
    coded_chunks_counter_ = &metrics.counter("replica.coded_chunks");
    subscribes_counter_ = &metrics.counter("replica.subscribes");
    crashes_counter_ = &metrics.counter("replica.crashes");
    restarts_counter_ = &metrics.counter("replica.restarts");
    service_time_histogram_ = &metrics.histogram("replica.service_time_us");
    queuing_delay_histogram_ = &metrics.histogram("replica.queuing_delay_us");
    reply_lag_histogram_ = &metrics.histogram("replica.reply_lag_us");
    queue_length_gauge_ =
        &metrics.gauge("replica." + std::to_string(id_.value()) + ".queue_length");
    if (config_.telemetry->spans_enabled()) span_sink_ = config_.telemetry;
  }
}

bool ReplicaCore::admit(TimePoint now, const proto::Request& request, EndpointId reply_to,
                        obs::SpanContext span) {
  // Stage 3: the server gateway enqueues the request, recording t2.
  if (alive_) queue_.push_back(Queued{request, reply_to, now, span});
  if (requests_counter_ != nullptr) {
    requests_counter_->add();
    // Chunk demand: coded k-of-n dispatches, vs whole-job requests.
    if (request.code_k > 0) coded_chunks_counter_->add();
    if (!alive_) rejected_counter_->add();
    queue_length_gauge_->set(static_cast<double>(queue_.size()));
  }
  return alive_;
}

std::size_t ReplicaCore::cancel(RequestId request, ClientId client) {
  // Every queued copy goes: a redispatch may have re-selected this
  // replica while an older copy still waited, and both are waste now.
  const std::size_t removed = std::erase_if(queue_, [&](const Queued& q) {
    return q.request.id == request && q.request.client == client;
  });
  if (removed == 0) {
    ++cancels_ignored_;
    if (ignored_counter_ != nullptr) ignored_counter_->add();
    return 0;
  }
  purged_ += removed;
  if (purged_counter_ != nullptr) {
    purged_counter_->add(removed);
    queue_length_gauge_->set(static_cast<double>(queue_.size()));
  }
  return removed;
}

void ReplicaCore::subscribe(EndpointId subscriber) {
  if (subscribes_counter_ != nullptr) subscribes_counter_->add();
  if (std::find(subscribers_.begin(), subscribers_.end(), subscriber) == subscribers_.end()) {
    subscribers_.push_back(subscriber);
  }
}

std::size_t ReplicaCore::queued_by(TimePoint t) const {
  // The queue is in t2 order (admit), and usually all of it is in.
  if (queue_.empty() || queue_.back().enqueued_at <= t) return queue_.size();
  return static_cast<std::size_t>(
      std::partition_point(queue_.begin(), queue_.end(),
                           [t](const Queued& q) { return q.enqueued_at <= t; }) -
      queue_.begin());
}

std::optional<TimePoint> ReplicaCore::start(TimePoint now) {
  if (busy_ || queue_.empty()) return std::nullopt;
  busy_ = true;
  current_ = std::move(queue_.front());
  queue_.pop_front();
  // A copy that reaches an idle replica starts when the driver takes it:
  // that handoff is real. One that was already waiting when the previous
  // service ended starts at that end, as in a FIFO server, so the
  // driver's wake-up and reply send overlap its service instead of
  // delaying it.
  const bool waited = last_end_.has_value() && current_.enqueued_at <= *last_end_;
  AQUA_ASSERT(!waited || *last_end_ <= now);
  started_at_ = waited ? *last_end_ : now;
  return started_at_;
}

Duration ReplicaCore::begin_service(TimePoint at) {
  AQUA_ASSERT(busy_);
  service_at_ = at;  // t3
  const ServiceModel* model = service_model_.get();
  if (auto it = config_.method_models.find(current_.request.method);
      it != config_.method_models.end()) {
    model = it->second.get();
  }
  // A coded chunk-request carries 1/code_k of the whole job's demand;
  // plain requests (code_k == 0) take the unscaled draw. Either way the
  // model consumes the same randomness.
  service_ = model->sample_chunk(rng_, queued_by(at), current_.request.code_k);
  return service_;
}

ReplicaCore::Finished ReplicaCore::finish() {
  AQUA_ASSERT(busy_);
  busy_ = false;
  const TimePoint end = service_at_ + service_;
  last_end_ = end;
  const proto::Request& request = current_.request;
  proto::Reply reply;
  reply.request = request.id;
  reply.replica = id_;
  reply.method = request.method;
  reply.result = config_.compute(request.argument);
  if (config_.value_fault_rate > 0.0 && rng_.bernoulli(config_.value_fault_rate)) {
    reply.result = config_.corrupt(reply.result);
  }
  reply.perf.service_time = service_;                              // t_s
  reply.perf.queuing_delay = service_at_ - current_.enqueued_at;  // t_q = t3 - t2
  reply.perf.queue_length = static_cast<std::int64_t>(queued_by(end));
  reply.perf.sample_seq = ++serviced_;
  // Echo the coding fields so the client-side collector can count this
  // reply toward its k distinct chunks (both stay zero when uncoded).
  reply.chunk = request.chunk;
  reply.code_id = request.code_id;
  busy_time_ += end - started_at_;
  if (replies_counter_ != nullptr) {
    replies_counter_->add();
    service_time_histogram_->record(reply.perf.service_time);
    queuing_delay_histogram_->record(reply.perf.queuing_delay);
    queue_length_gauge_->set(static_cast<double>(queue_.size()));
  }

  Finished done{current_.reply_to, net::Payload::make(reply, proto::kReplyBytes), {}, {}};
  if (span_sink_ != nullptr && current_.span.valid()) record_spans(end, done.reply);
  for (EndpointId subscriber : subscribers_) {
    if (subscriber != done.reply_to) done.perf_targets.push_back(subscriber);
  }
  if (!done.perf_targets.empty()) {
    done.perf_update = net::Payload::make(proto::PerfUpdate{id_, request.method, reply.perf},
                                          proto::kPerfUpdateBytes);
  }
  return done;
}

void ReplicaCore::reply_departed(TimePoint end, TimePoint departure) {
  if (reply_lag_histogram_ != nullptr) reply_lag_histogram_->record(departure - end);
}

void ReplicaCore::record_spans(TimePoint finish, net::Payload& reply) {
  // Close the queue-wait and service spans (they are only known in full
  // here) and hand the reply leg a fresh parent, so the trace tree reads
  // dispatch -> queue -> service -> reply leg.
  const obs::SpanContext& ctx = current_.span;
  auto record = [&](obs::SpanKind kind, std::uint64_t parent, TimePoint start, TimePoint end) {
    const std::uint64_t id = span_sink_->next_span_id();
    span_sink_->record_span({.trace_id = ctx.trace_id,
                             .span_id = id,
                             .parent_span_id = parent,
                             .kind = kind,
                             .client = obs::trace_client(ctx.trace_id),
                             .request = obs::trace_request(ctx.trace_id),
                             .replica = id_,
                             .start = start,
                             .end = end});
    return id;
  };
  const std::uint64_t queue_span =
      record(obs::SpanKind::kQueueWait, ctx.parent_span_id, current_.enqueued_at, service_at_);
  const std::uint64_t service_span =
      record(obs::SpanKind::kService, queue_span, service_at_, finish);
  reply.set_span({.trace_id = ctx.trace_id,
                  .parent_span_id = service_span,
                  .leg = obs::SpanKind::kReplyLeg,
                  .replica = id_});
}

void ReplicaCore::crash() {
  alive_ = false;
  busy_ = false;
  queue_.clear();
  last_end_.reset();
  if (crashes_counter_ != nullptr) crashes_counter_->add();
}

void ReplicaCore::restart() {
  alive_ = true;
  subscribers_.clear();
  if (restarts_counter_ != nullptr) restarts_counter_->add();
}

}  // namespace aqua::replica
