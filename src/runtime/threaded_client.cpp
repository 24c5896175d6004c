#include "runtime/threaded_client.h"

#include <algorithm>

#include "common/assert.h"
#include "core/model_cache.h"
#include "obs/telemetry.h"

namespace aqua::runtime {

namespace {

/// Steady-clock instants mapped onto the TimePoint axis so the
/// repository's freshness fields (last_update, observation silence) are
/// meaningful in the threaded runtime — they used to be recorded as
/// TimePoint{}, which made every staleness question unanswerable.
TimePoint mono_now() {
  return TimePoint{} + std::chrono::duration_cast<Duration>(
                           std::chrono::steady_clock::now().time_since_epoch());
}

/// The threaded runtime always guards against stale samples: UDP (and
/// LocalTransport's jittered in-process hops) can reorder replies,
/// and unlike the sim there is no bit-identity contract to preserve.
core::RepositoryConfig with_stale_guard(core::RepositoryConfig config) {
  config.reject_stale_samples = true;
  return config;
}

}  // namespace

struct ThreadedClient::RequestState {
  std::mutex mutex;
  std::condition_variable cv;
  bool delivered = false;
  proto::Reply first_reply;
  /// Completion predicate (guarded by mutex, like delivered). Left
  /// unarmed — first-of-n — for the default config, so delivery stays
  /// "first reply wins" exactly; armed k-of-n delivers at the k-th
  /// distinct chunk.
  core::ReplyCollector collector;
  /// Every replica that has replied so far, for coded cancels: a replier
  /// finished its chunk, so there is nothing left to withdraw from it.
  std::vector<ReplicaId> repliers;
  /// When the completing reply arrived: t4 of its gateway-delay sample.
  std::chrono::steady_clock::time_point delivered_at;

  /// Count one reply toward completion; the completing one is kept and
  /// wakes invoke(). Caller holds `mutex`.
  void record(const proto::Reply& reply) {
    repliers.push_back(reply.replica);
    if (delivered || !collector.record(reply.replica, reply.chunk, reply.code_id)) return;
    delivered = true;
    delivered_at = std::chrono::steady_clock::now();
    first_reply = reply;
    cv.notify_all();
  }
};

ThreadedClient::ThreadedClient(core::QosSpec qos, Rng rng, ThreadedClientConfig config)
    : qos_(qos),
      rng_(std::move(rng)),
      config_(config),
      model_cache_(std::make_shared<core::ModelCache>()),
      selector_(config.selection, core::ResponseTimeModel{config.model, model_cache_}),
      repository_(with_stale_guard(config.repository)),
      tracker_(config.failure_tracker),
      transport_(config.transport) {
  qos_.validate();
  AQUA_REQUIRE(transport_ != nullptr, "threaded client needs a transport");
  AQUA_REQUIRE(config_.give_up_deadline_factor >= 1, "give-up factor must be >= 1");
  if (config_.telemetry != nullptr) {
    obs_ = config_.telemetry;
    if (obs_->spans_enabled()) span_sink_ = obs_;
    auto& metrics = config_.telemetry->metrics();
    requests_counter_ = &metrics.counter("threaded.requests");
    answered_counter_ = &metrics.counter("threaded.answered");
    timely_counter_ = &metrics.counter("threaded.timely");
    timing_failures_counter_ = &metrics.counter("threaded.timing_failures");
    cold_starts_counter_ = &metrics.counter("threaded.cold_starts");
    response_time_histogram_ = &metrics.histogram("threaded.response_time_us");
    selection_overhead_histogram_ = &metrics.histogram("threaded.selection_overhead_us");
    td_clamped_counter_ = &metrics.counter("threaded_client.td_clamped");
  }
  endpoint_ = transport_->create_endpoint(
      config_.host,
      [this](EndpointId from, const net::Payload& message) { on_receive(from, message); });
  // The transport's subscriber list cannot shrink, so the callback
  // reaches this client through a relay the destructor severs.
  evict_relay_ = std::make_shared<HostEvictRelay>();
  evict_relay_->client = this;
  transport_->subscribe_host_state([relay = evict_relay_](HostId host, bool alive) {
    if (alive) return;
    std::lock_guard guard(relay->mutex);
    if (relay->client != nullptr) relay->client->evict_host(host);
  });
}

ThreadedClient::~ThreadedClient() { shutdown(); }

void ThreadedClient::shutdown() {
  {
    std::lock_guard guard(evict_relay_->mutex);
    evict_relay_->client = nullptr;
  }
  // Waits out a delivery in progress: no on_receive after this. Must not
  // hold mutex_ here — a delivery blocked on it would deadlock the wait.
  if (!endpoint_destroyed_.exchange(true)) transport_->destroy_endpoint(endpoint_);
}

void ThreadedClient::add_peer_replica(ReplicaId replica, EndpointId endpoint) {
  std::lock_guard lock(mutex_);
  peer_replicas_[replica] = endpoint;
  if (!repository_.contains(replica)) repository_.add_replica(replica);
}

void ThreadedClient::subscribe_to(EndpointId peer) {
  transport_->unicast(endpoint_, peer,
                      net::Payload::make(proto::Subscribe{config_.id, endpoint_},
                                         proto::kSubscribeBytes));
}

void ThreadedClient::on_receive(EndpointId from, const net::Payload& message) {
  if (const auto* reply = message.get_if<proto::Reply>()) {
    std::shared_ptr<RequestState> state;
    {
      std::lock_guard lock(mutex_);
      record_perf(reply->replica, reply->perf, reply->method);
      auto it = outstanding_.find(reply->request);
      if (it != outstanding_.end()) state = it->second;
    }
    if (state != nullptr) {
      std::lock_guard slock(state->mutex);
      state->record(*reply);
    }
    return;
  }
  if (const auto* announce = message.get_if<proto::Announce>()) {
    // The announced endpoint id is meaningless outside the replica's own
    // process; the sender handle is how WE reach it.
    add_peer_replica(announce->replica, from);
    return;
  }
  if (const auto* update = message.get_if<proto::PerfUpdate>()) {
    std::lock_guard lock(mutex_);
    record_perf(update->replica, update->perf, update->method);
  }
}

void ThreadedClient::record_perf(ReplicaId replica, const proto::PerfData& perf,
                                 const std::string& method) {
  if (!repository_.contains(replica)) return;
  repository_.record_perf(
      replica, core::PerfSample{perf.service_time, perf.queuing_delay, perf.queue_length,
                                perf.sample_seq},
      mono_now(), method);
}

void ThreadedClient::evict_host(HostId host) {
  std::lock_guard lock(mutex_);
  for (auto it = peer_replicas_.begin(); it != peer_replicas_.end();) {
    const EndpointId endpoint = it->second;
    if (transport_->endpoint_exists(endpoint) && transport_->endpoint_host(endpoint) == host) {
      repository_.remove_replica(it->first);
      model_cache_->invalidate(it->first);
      it = peer_replicas_.erase(it);
    } else {
      ++it;
    }
  }
}

ThreadedClient::Outcome ThreadedClient::invoke(std::int64_t argument) {
  using SteadyClock = std::chrono::steady_clock;
  const auto t0 = SteadyClock::now();
  const TimePoint wall_t0 = obs_ != nullptr ? obs_->wall_now() : TimePoint{};

  Outcome outcome;
  proto::Request request;
  core::SelectionResult selection;
  core::DispatchPlan plan;
  // (replica, endpoint) for every copy sent, so cancel-on-first-reply can
  // address the still-pending members.
  std::vector<std::pair<ReplicaId, EndpointId>> primary_peers;
  std::vector<std::pair<ReplicaId, EndpointId>> hedge_peers;
  core::QosSpec qos_snapshot;
  std::uint64_t trace_id = 0;
  std::uint64_t root_span = 0;
  obs::SpanContext request_ctx{};
  auto state = std::make_shared<RequestState>();
  {
    std::lock_guard lock(mutex_);
    qos_snapshot = qos_;
    request.id = RequestId{next_request_++};
    request.client = config_.id;
    request.argument = argument;

    // delta measured from the real wall clock (§5.3.3), previous value
    // used for this selection.
    const auto observations = repository_.observe_all(core::kDefaultMethod, mono_now());
    const auto select_start = SteadyClock::now();
    // rng_ powers the load score's two-choice spread; the default config
    // never draws from it here.
    selection = selector_.select(observations, qos_snapshot, overhead_.current(), &rng_);
    const auto select_end = SteadyClock::now();
    outcome.selection_overhead =
        std::chrono::duration_cast<Duration>(select_end - select_start);
    overhead_.record(outcome.selection_overhead);

    if (config_.dispatch.is_default()) {
      plan.primary = selection.selected;
    } else {
      plan = core::plan_dispatch(config_.dispatch, selection, observations, qos_snapshot,
                                 selector_.model());
    }
    // Client-side concurrency compensation: charge the primary wave now;
    // hedge copies are charged only if the timer actually fires.
    for (ReplicaId id : plan.primary) repository_.note_dispatch(id);
    outcome.redundancy = plan.primary.size() + plan.hedge.size();
    outcome.cold_start = selection.cold_start;
    outcome.hedged = plan.hedged;
    outcome.code_k = plan.code_k;
    // Arm the completion predicate before any copy goes out. Coded
    // dispatches tag their generation with the request id; uncoded ones
    // (quorum, and everything default) match the wire default of zero.
    if (!plan.completion.is_default()) {
      state->collector.arm(plan.completion, plan.coded ? request.id.value() : 0);
    }
    if (plan.coded) {
      request.code_k = plan.code_k;
      request.code_id = request.id.value();
    }
    for (ReplicaId id : plan.primary) {
      auto it = peer_replicas_.find(id);
      if (it != peer_replicas_.end()) primary_peers.emplace_back(id, it->second);
    }
    for (ReplicaId id : plan.hedge) {
      auto it = peer_replicas_.find(id);
      if (it != peer_replicas_.end()) hedge_peers.emplace_back(id, it->second);
    }
    outstanding_.emplace(request.id, state);
  }

  if (span_sink_ != nullptr) {
    trace_id = obs::make_trace_id(config_.id, request.id);
    root_span = span_sink_->next_span_id();
    const std::uint64_t dispatch_span = span_sink_->next_span_id();
    span_sink_->record_span({.trace_id = trace_id,
                             .span_id = dispatch_span,
                             .parent_span_id = root_span,
                             .kind = obs::SpanKind::kDispatch,
                             .client = config_.id,
                             .request = request.id,
                             .replica = {},
                             .start = wall_t0,
                             .end = wall_t0 + outcome.selection_overhead});
    request_ctx = {.trace_id = trace_id,
                   .parent_span_id = dispatch_span,
                   .leg = obs::SpanKind::kRequestLeg,
                   .replica = {}};
  }

  // Fresh chunk indices for coded copies — rateless MDS, so primaries
  // and later hedge copies all draw from one never-repeating sequence.
  const bool coded = plan.coded;
  std::uint32_t next_chunk = 0;

  // Send a wave of copies: coded dispatch gives each member its own
  // chunk-request; otherwise one multicast shares the body. Replies come
  // back through on_receive.
  auto send = [&](const std::vector<std::pair<ReplicaId, EndpointId>>& peers) {
    auto payload_of = [&request_ctx](const proto::Request& copy) {
      net::Payload payload = net::Payload::make(copy, proto::kRequestBytes);
      if (request_ctx.valid()) payload.set_span(request_ctx);
      return payload;
    };
    if (coded) {
      for (const auto& [id, endpoint] : peers) {
        proto::Request copy = request;
        copy.chunk = next_chunk++;
        transport_->unicast(endpoint_, endpoint, payload_of(copy));
      }
      return;
    }
    std::vector<EndpointId> endpoints;
    endpoints.reserve(peers.size());
    for (const auto& [id, endpoint] : peers) endpoints.push_back(endpoint);
    transport_->multicast(endpoint_, endpoints, payload_of(request));
  };

  // t1: the primary copies leave now. Hedge copies leave at hedge_sent_at.
  const auto t1 = SteadyClock::now();
  SteadyClock::time_point hedge_sent_at;
  send(primary_peers);

  const auto give_up = t0 + qos_snapshot.deadline * config_.give_up_deadline_factor;

  // Hedged mode: hold the backups until the hedge timer expires, unless
  // the primary answers first (the common case — the timer sits at the
  // tail of the primary's predicted response pmf).
  bool hedge_fired = false;
  if (!hedge_peers.empty()) {
    const auto hedge_at = std::min(give_up, t0 + plan.hedge_delay);
    std::unique_lock slock(state->mutex);
    state->cv.wait_until(slock, hedge_at, [&state] { return state->delivered; });
    hedge_fired = !state->delivered;
  }
  if (hedge_fired) {
    hedge_sent_at = SteadyClock::now();
    outcome.hedge_fired = true;
    hedges_fired_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard lock(mutex_);
      for (ReplicaId id : plan.hedge) repository_.note_dispatch(id);
    }
    send(hedge_peers);
  }

  // Wait for the completing reply (the first one, unless a non-default
  // predicate was armed) or give up. The give-up bound also covers the
  // coded stall path — k−1 chunks then silence returns unanswered
  // instead of hanging.
  proto::Reply first_reply;
  SteadyClock::time_point first_reply_at;
  std::vector<ReplicaId> already_replied;
  {
    std::unique_lock slock(state->mutex);
    state->cv.wait_until(slock, give_up, [&state] { return state->delivered; });
    outcome.answered = state->delivered;
    outcome.chunks_received = state->collector.distinct();
    if (outcome.answered) {
      first_reply = state->first_reply;
      first_reply_at = state->delivered_at;
      outcome.first_replica = first_reply.replica;
      outcome.result = first_reply.result;
    }
    if (coded) already_replied = state->repliers;
  }

  // Cancel-on-first-reply: purge queued copies at every member that was
  // sent the request and has not replied — for coded dispatch that is
  // every replica still owing a chunk beyond the k-th. A copy already in
  // service is never interrupted (the replica ignores the cancel), and a
  // backup whose hedge never fired was never sent anything to purge.
  if (config_.dispatch.cancel_on_first_reply && outcome.answered) {
    const proto::Cancel cancel{request.id, request.client, request.method};
    auto replied = [&](ReplicaId id) {
      if (!coded) return id == outcome.first_replica;
      return std::find(already_replied.begin(), already_replied.end(), id) !=
             already_replied.end();
    };
    std::size_t sent = 0;
    auto cancel_peers = [&](const std::vector<std::pair<ReplicaId, EndpointId>>& peers) {
      for (const auto& [id, endpoint] : peers) {
        if (replied(id)) continue;
        transport_->unicast(endpoint_, endpoint, net::Payload::make(cancel, proto::kCancelBytes));
        ++sent;
      }
    };
    cancel_peers(primary_peers);
    if (hedge_fired) cancel_peers(hedge_peers);
    outcome.cancels_sent = sent;
    cancels_sent_.fetch_add(sent, std::memory_order_relaxed);
  }

  {
    std::lock_guard lock(mutex_);
    outstanding_.erase(request.id);
  }

  const auto t4 = SteadyClock::now();
  outcome.response_time = std::chrono::duration_cast<Duration>(t4 - t0);
  outcome.timely = outcome.answered && outcome.response_time <= qos_snapshot.deadline;

  // Two-way gateway delay t_d = t4 - t1 - t_q - t_s of the copy that
  // answered, timed from when THAT copy left: a hedge copy's t_d does not
  // include the hedge wait, and no copy's includes selection. A negative
  // raw value is floored for the model but counted.
  Duration td{};
  if (outcome.answered) {
    const bool hedge_copy =
        hedge_fired && std::find(plan.hedge.begin(), plan.hedge.end(), first_reply.replica) !=
                           plan.hedge.end();
    const auto sent_at = hedge_copy ? hedge_sent_at : t1;
    td = std::chrono::duration_cast<Duration>(first_reply_at - sent_at) -
         first_reply.perf.queuing_delay - first_reply.perf.service_time;
    if (td < Duration::zero()) {
      td = Duration::zero();
      td_clamped_.fetch_add(1, std::memory_order_relaxed);
      if (td_clamped_counter_ != nullptr) td_clamped_counter_->add();
    }
  }
  if (span_sink_ != nullptr) {
    const TimePoint wall_t4 = wall_t0 + outcome.response_time;
    if (outcome.answered) {
      span_sink_->record_span({.trace_id = trace_id,
                               .span_id = span_sink_->next_span_id(),
                               .parent_span_id = root_span,
                               .kind = obs::SpanKind::kFirstReply,
                               .client = config_.id,
                               .request = request.id,
                               .replica = outcome.first_replica,
                               .start = wall_t0 + outcome.selection_overhead,
                               .end = wall_t4,
                               .ok = outcome.timely});
    }
    // The root closes whether or not any replica answered — a crashed
    // target set still yields a complete (failed) trace.
    span_sink_->record_span({.trace_id = trace_id,
                             .span_id = root_span,
                             .parent_span_id = 0,
                             .kind = obs::SpanKind::kRequest,
                             .client = config_.id,
                             .request = request.id,
                             .replica = outcome.first_replica,
                             .start = wall_t0,
                             .end = wall_t4,
                             .ok = outcome.timely});
  }
  if (requests_counter_ != nullptr) {
    requests_counter_->add();
    if (outcome.answered) answered_counter_->add();
    (outcome.timely ? timely_counter_ : timing_failures_counter_)->add();
    if (outcome.cold_start) cold_starts_counter_->add();
    response_time_histogram_->record(outcome.response_time);
    selection_overhead_histogram_->record(outcome.selection_overhead);
  }
  if (obs_ != nullptr) {
    // Same record the simulated gateway emits, so to_run_report
    // aggregates threaded (and multi-process UDP) runs unchanged.
    obs::RequestTrace tr;
    tr.client = config_.id;
    tr.request = request.id;
    tr.t0 = wall_t0;
    tr.t1 = wall_t0 + outcome.selection_overhead;
    tr.deadline = qos_snapshot.deadline;
    tr.min_probability = qos_snapshot.min_probability;
    tr.predicted_probability = selection.predicted_probability;
    tr.redundancy = outcome.redundancy;
    tr.cold_start = outcome.cold_start;
    tr.feasible = selection.feasible;
    tr.answered = outcome.answered;
    tr.timely = outcome.timely;
    if (outcome.answered) {
      tr.t4 = wall_t0 + outcome.response_time;
      tr.response_time = outcome.response_time;
      tr.service_time = first_reply.perf.service_time;
      tr.queuing_delay = first_reply.perf.queuing_delay;
      tr.gateway_delay = td;
      tr.first_replica = first_reply.replica;
    }
    obs_->record_request(tr);
    // Calibration before the violation check below: on the sample that
    // trips both detectors, the drift alert lands first in the ring.
    obs_->record_calibration(obs_->wall_now(), config_.id,
                             outcome.answered ? first_reply.replica : ReplicaId{},
                             selection.predicted_probability, outcome.timely);
  }
  {
    std::lock_guard lock(mutex_);
    tracker_.record(outcome.timely);
    if (obs_ != nullptr) {
      const bool violating = tracker_.violates(qos_snapshot.min_probability);
      if (violating && !violation_reported_) {
        violation_reported_ = true;
        obs_->record_alert({.kind = obs::AlertKind::kQosViolation,
                            .at = obs_->wall_now(),
                            .client = config_.id,
                            .replica = {},
                            .observed = tracker_.timely_fraction(),
                            .threshold = qos_snapshot.min_probability,
                            .detail = "timely fraction below requested minimum"});
      } else if (!violating && violation_reported_) {
        violation_reported_ = false;
        obs_->record_alert({.kind = obs::AlertKind::kQosRecovered,
                            .at = obs_->wall_now(),
                            .client = config_.id,
                            .replica = {},
                            .observed = tracker_.timely_fraction(),
                            .threshold = qos_snapshot.min_probability,
                            .detail = "timely fraction recovered"});
      }
    }
    if (outcome.answered && repository_.contains(first_reply.replica)) {
      repository_.record_gateway_delay(first_reply.replica, td, mono_now(),
                                       first_reply.perf.sample_seq);
    }
  }
  return outcome;
}

void ThreadedClient::remove_replica(ReplicaId id) {
  std::lock_guard lock(mutex_);
  repository_.remove_replica(id);
  model_cache_->invalidate(id);
  peer_replicas_.erase(id);
}

void ThreadedClient::set_qos(core::QosSpec qos) {
  qos.validate();
  std::lock_guard lock(mutex_);
  qos_ = qos;
  tracker_.reset();
  // A violation of the old QoS says nothing about the new one: no
  // recovery edge may follow from it (TimingFaultHandler::set_qos).
  violation_reported_ = false;
  if (obs_ != nullptr) {
    obs_->record_alert({.kind = obs::AlertKind::kQosRenegotiated,
                        .at = obs_->wall_now(),
                        .client = config_.id,
                        .replica = {},
                        .observed = static_cast<double>(count_us(qos_.deadline)),
                        .threshold = qos_.min_probability,
                        .detail = "qos renegotiated"});
  }
}

double ThreadedClient::timely_fraction() const {
  std::lock_guard lock(mutex_);
  return tracker_.timely_fraction();
}

bool ThreadedClient::qos_violated() const {
  std::lock_guard lock(mutex_);
  return tracker_.violates(qos_.min_probability);
}

std::size_t ThreadedClient::known_replicas() const {
  std::lock_guard lock(mutex_);
  return repository_.replica_count();
}

}  // namespace aqua::runtime
