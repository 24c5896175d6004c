#include "core/request_engine.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/telemetry.h"

namespace aqua::core {

namespace {

/// Reclaim a request's state this many deadlines after t0, even if some
/// copy never answered (message loss, undetected crash).
constexpr int kGcDeadlines = 10;

}  // namespace

RequestEngine::RequestEngine(ClientId client, QosSpec qos, Rng rng, EngineConfig config,
                             PolicyPtr policy)
    : client_(client),
      qos_(qos),
      rng_(std::move(rng)),
      config_(std::move(config)),
      model_cache_(std::make_shared<ModelCache>()),
      dispatch_model_(config_.model, model_cache_),
      policy_(policy ? std::move(policy)
                     : make_dynamic_policy(config_.selection, config_.model, model_cache_)),
      repository_(config_.repository),
      tracker_(config_.failure_tracker),
      obs_(config_.telemetry) {
  qos_.validate();
  if (obs_ != nullptr) {
    auto& metrics = obs_->metrics();
    const std::string& p = config_.metrics_prefix;
    requests_counter_ = &metrics.counter(p + ".requests");
    probes_counter_ = &metrics.counter(p + ".probes");
    replies_counter_ = &metrics.counter(p + ".replies");
    timely_counter_ = &metrics.counter(p + ".timely");
    timing_failures_counter_ = &metrics.counter(p + ".timing_failures");
    redispatches_counter_ = &metrics.counter(p + ".redispatches");
    hedges_counter_ = &metrics.counter(p + ".hedges_fired");
    cancels_counter_ = &metrics.counter(p + ".cancels");
    qos_violations_counter_ = &metrics.counter(p + ".qos_violations");
    replicas_evicted_counter_ = &metrics.counter(p + ".replicas_evicted");
    td_clamped_counter_ = &metrics.counter(p + ".td_clamped");
    response_time_histogram_ = &metrics.histogram(p + ".response_time_us");
    selection_delta_histogram_ = &metrics.histogram(p + ".selection_delta_us");
    // The select.* counters ride on the policy decorator; the cache and
    // repository mirror their own counters from here on.
    policy_ = make_observed_policy(std::move(policy_), obs_);
    model_cache_->set_telemetry(obs_);
    repository_.set_telemetry(obs_);
    if (obs_->spans_enabled()) span_sink_ = obs_;
  }
}

void RequestEngine::start(TimePoint now, Actions& out) {
  if (config_.probe_staleness <= Duration::zero()) return;
  arm(out, now + std::max(msec(1), config_.probe_staleness / 2), TimerKind::kProbe);
}

RequestRecord& RequestEngine::record_of(PendingRequest& pending) {
  return config_.history != nullptr ? (*config_.history)[pending.record_index] : pending.record;
}

const RequestRecord* RequestEngine::find_record(RequestId id) const {
  auto it = pending_.find(id);
  if (it == pending_.end()) return nullptr;
  const PendingRequest& pending = it->second;
  return config_.history != nullptr ? &(*config_.history)[pending.record_index] : &pending.record;
}

RequestEngine::PendingRequest RequestEngine::make_pending(RequestId id, TimePoint now) {
  PendingRequest pending;
  if (config_.history != nullptr) {
    config_.history->push_back(RequestRecord{});
    pending.record_index = config_.history->size() - 1;
  }
  RequestRecord& record = record_of(pending);
  record.request = id;
  record.intercepted_at = now;
  record.qos = qos_;
  pending.id = id;
  pending.t0 = now;
  pending.qos = qos_;
  pending.trace_id = obs::make_trace_id(client_, id);
  return pending;
}

Timer RequestEngine::arm(Actions& out, TimePoint at, TimerKind kind, RequestId request) {
  const Timer timer{next_timer_++, at, kind, request};
  out.emplace_back(ArmTimer{timer});
  return timer;
}

void RequestEngine::cancel(Actions& out, Timer& timer) {
  if (timer.id == 0) return;
  out.emplace_back(CancelTimer{timer});
  timer = Timer{};
}

void RequestEngine::set_awaiting(PendingRequest& pending, std::vector<ReplicaId> replicas) {
  for (ReplicaId replica : pending.awaiting) drop_outstanding(replica, 1);
  for (ReplicaId replica : replicas) {
    ++outstanding_[replica];
    // Client-side concurrency compensation: charge the copy against the
    // replica's repository record until its next perf sample. A pure
    // counter bump — no rng, no events, no generation change — so the
    // default (load-score-off) config stays bit-identical.
    repository_.note_dispatch(replica);
  }
  pending.awaiting = std::move(replicas);
}

void RequestEngine::add_awaiting(PendingRequest& pending, std::span<const ReplicaId> replicas) {
  for (ReplicaId replica : replicas) {
    if (std::find(pending.awaiting.begin(), pending.awaiting.end(), replica) !=
        pending.awaiting.end()) {
      continue;
    }
    ++outstanding_[replica];
    repository_.note_dispatch(replica);
    pending.awaiting.push_back(replica);
  }
}

void RequestEngine::remove_awaiting(PendingRequest& pending, ReplicaId replica) {
  const std::size_t erased = std::erase(pending.awaiting, replica);
  if (erased > 0) drop_outstanding(replica, erased);
}

void RequestEngine::erase_pending(RequestId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  for (ReplicaId replica : it->second.awaiting) drop_outstanding(replica, 1);
  pending_.erase(it);
}

void RequestEngine::drop_outstanding(ReplicaId replica, std::size_t count) {
  auto it = outstanding_.find(replica);
  if (it == outstanding_.end()) return;
  it->second -= std::min(it->second, count);
  if (it->second == 0) outstanding_.erase(it);
}

std::vector<EndpointId> RequestEngine::endpoints_of(std::span<const ReplicaId> replicas,
                                                    std::vector<std::size_t>* known) const {
  std::vector<EndpointId> targets;
  targets.reserve(replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (auto it = replica_endpoints_.find(replicas[i]); it != replica_endpoints_.end()) {
      targets.push_back(it->second);
      if (known != nullptr) known->push_back(i);
    }
  }
  return targets;
}

void RequestEngine::alert(obs::AlertKind kind, TimePoint now, ReplicaId replica, double observed,
                          double threshold, std::string detail) {
  obs_->record_alert({.kind = kind,
                      .at = now,
                      .client = client_,
                      .replica = replica,
                      .observed = observed,
                      .threshold = threshold,
                      .detail = std::move(detail)});
}

void RequestEngine::span(const PendingRequest& pending, obs::SpanKind kind, std::uint64_t id,
                         std::uint64_t parent, ReplicaId replica, TimePoint start, TimePoint end,
                         bool ok) {
  span_sink_->record_span({.trace_id = pending.trace_id,
                           .span_id = id,
                           .parent_span_id = parent,
                           .kind = kind,
                           .client = client_,
                           .request = pending.id,
                           .replica = replica,
                           .start = start,
                           .end = end,
                           .ok = ok});
}

obs::SpanContext RequestEngine::leg_span(PendingRequest& pending, std::uint64_t parent) {
  if (span_sink_ == nullptr) return {};
  return {.trace_id = pending.trace_id,
          .parent_span_id = parent,
          .leg = obs::SpanKind::kRequestLeg,
          .replica = {}};
}

RequestId RequestEngine::invoke(TimePoint now, std::int64_t argument, const std::string& method,
                                Actions& out) {
  const RequestId id = request_ids_.next();
  if (requests_counter_ != nullptr) requests_counter_->add();
  PendingRequest pending = make_pending(id, now);
  pending.method = method;
  pending.argument = argument;
  // §5.4.2: a timing failure occurs if no timely response arrives; the
  // timer also covers the case where no response arrives at all (all
  // selected replicas crashed).
  pending.deadline_timer = arm(out, now + qos_.deadline, TimerKind::kDeadline, id);
  const Duration deadline = qos_.deadline;
  auto [it, inserted] = pending_.emplace(id, std::move(pending));
  AQUA_ASSERT(inserted);
  arm(out, now + deadline * kGcDeadlines, TimerKind::kGc, id);
  arm(out, now + config_.interception, TimerKind::kSelect, id);
  return id;
}

void RequestEngine::on_timer(TimePoint now, const Timer& timer, Actions& out) {
  const RequestId id = timer.request;
  switch (timer.kind) {
    case TimerKind::kSelect:
      if (auto it = pending_.find(id); it != pending_.end()) {
        dispatch(now, id, it->second, /*redispatch=*/false, out);
      }
      return;
    case TimerKind::kTransmit:
      transmit(now, timer, out);
      return;
    case TimerKind::kDeadline:
      if (auto it = pending_.find(id); it != pending_.end()) {
        it->second.deadline_timer = Timer{};
        if (!it->second.outcome_recorded) record_outcome(now, it->second, /*timely=*/false, out);
        finish_if_complete(id);
      }
      return;
    case TimerKind::kHedge:
      if (auto it = pending_.find(id); it != pending_.end()) {
        if (it->second.hedge_timer.id == timer.id) it->second.hedge_timer = Timer{};
      }
      fire_hedge(now, id, out);
      return;
    case TimerKind::kGc:
      erase_pending(id);
      return;
    case TimerKind::kSettle:
      settle_timer_ = Timer{};
      dispatch_parked(now, out);
      return;
    case TimerKind::kProbe:
      probe_stale_replicas(now, out);
      arm(out, now + std::max(msec(1), config_.probe_staleness / 2), TimerKind::kProbe);
      return;
  }
}

void RequestEngine::dispatch(TimePoint now, RequestId id, PendingRequest& pending, bool redispatch,
                             Actions& out) {
  // Observed with the clock, so silence (liveness guess, trim filter) is set.
  const auto observations = repository_.observe_all(pending.method, now);
  // No replica known yet: the request parks until an Announce burst
  // settles; if none ever does, the deadline records the failure.
  if (observations.empty()) return;
  pending.dispatched = true;

  // §5.3.3: select with the most recently measured delta, then measure the
  // cost of this execution for the next one.
  const Duration delta_used = overhead_.current();
  const ModelCacheStats cache_before = model_cache_->stats();
  const SelectionResult selection = policy_->select(observations, pending.qos, delta_used, rng_);
  AQUA_ASSERT(!selection.selected.empty());

  std::size_t with_data = 0;
  for (const auto& obs : observations) {
    if (obs.has_data()) ++with_data;
  }
  // A policy that bypasses the cache leaves its counters untouched.
  std::size_t cached = 0;
  const ModelCacheStats& cache_after = model_cache_->stats();
  if (cache_after.hits + cache_after.misses > cache_before.hits + cache_before.misses) {
    cached = static_cast<std::size_t>(
        std::min<std::uint64_t>(cache_after.hits - cache_before.hits, with_data));
  }
  const std::size_t convolved = with_data - cached;

  // Repository bootstrap: replicas with no history ride along on every
  // request so their windows fill (the paper's active probes, §8).
  std::vector<ReplicaId> selected = selection.selected;
  if (config_.selection.include_dataless && !selection.cold_start) {
    for (const auto& obs : observations) {
      if (!obs.has_data() &&
          std::find(selected.begin(), selected.end(), obs.id) == selected.end()) {
        selected.push_back(obs.id);
      }
    }
  }

  // Split K into the transmission schedule. The default config takes the
  // identity branch: no model evaluation on the paper-policy path.
  DispatchPlan plan;
  if (config_.dispatch.is_default()) {
    plan.primary = selected;
  } else {
    SelectionResult merged = selection;
    merged.selected = selected;
    plan = plan_dispatch(config_.dispatch, merged, observations, pending.qos, dispatch_model_);
  }

  // Arm the completion predicate at the first non-default plan, once: a
  // redispatch keeps the spec and the chunks collected (fresh copies get
  // new indices). Coded dispatches tag their generation with the id.
  if (!plan.completion.is_default() && !pending.collector.armed()) {
    pending.collector.arm(plan.completion, plan.coded ? id.value() : 0);
    pending.code_k = plan.code_k;
  }

  DispatchCost cost;
  if (config_.selection_cost) {
    cost = config_.selection_cost(SelectionView{
        .request = id,
        .at = now,
        .redispatch = redispatch,
        .qos = pending.qos,
        .delta_used = delta_used,
        .selection = selection,
        .selected = selected,
        .convolved = convolved,
        .cached = cached,
        .coded_copies = pending.code_k > 0 ? plan.primary.size() + plan.hedge.size() : 0,
        .cache_hits = cache_after.hits - cache_before.hits,
        .cache_misses = cache_after.misses - cache_before.misses});
  }
  overhead_.record(cost.delta);
  if (redispatch) ++redispatches_;
  if (selection_delta_histogram_ != nullptr) {
    selection_delta_histogram_->record(cost.delta);
    if (redispatch) redispatches_counter_->add();
  }

  cancel(out, pending.hedge_timer);  // a redispatch supersedes any armed hedge
  pending.hedge_set = plan.hedge;
  set_awaiting(pending, plan.primary);
  RequestRecord& record = record_of(pending);
  record.redundancy = plan.primary.size() + plan.hedge.size();
  record.hedged = plan.hedged;
  record.code_k = pending.code_k;
  record.cold_start = selection.cold_start;
  record.feasible = selection.feasible;
  record.predicted_probability = selection.predicted_probability;
  record.redispatched = redispatch;
  record.selection_delta = cost.delta;

  if (obs_ != nullptr && !selection.feasible && !selection.cold_start && !pending.is_probe) {
    alert(obs::AlertKind::kInfeasibleSelection, now, ReplicaId{}, selection.predicted_probability,
          pending.qos.min_probability, "fallback redundancy " + std::to_string(selected.size()));
  }

  // One fresh chunk index per coded primary copy, in selection order.
  std::vector<std::uint32_t> chunks;
  if (pending.code_k > 0) {
    chunks.reserve(plan.primary.size());
    for (std::size_t i = 0; i < plan.primary.size(); ++i) chunks.push_back(pending.next_chunk++);
  }
  // The dispatch span covers interception + selection for a first
  // dispatch (t0 -> t1) and the re-selection alone for a redispatch.
  const Timer timer = arm(out, now + cost.transmit_after, TimerKind::kTransmit, id);
  pending.transmits.push_back({.timer = timer.id,
                               .dispatch_start = redispatch ? now : pending.t0,
                               .hedged = plan.hedged,
                               .hedge_delay = plan.hedge_delay,
                               .primary = std::move(plan.primary),
                               .chunks = std::move(chunks)});
}

SendRequest RequestEngine::copies_to(TimePoint now, PendingRequest& p,
                                     std::span<const ReplicaId> replicas,
                                     const std::vector<std::uint32_t>* chunks) {
  SendRequest send;
  send.request = {p.id, client_, p.method, p.argument};
  std::vector<std::size_t> known;
  send.targets = endpoints_of(replicas, &known);
  // Planned copies carry the chunks assigned at selection; hedge copies
  // get fresh indices now — rateless, so they add information whichever
  // chunks already arrived.
  const bool coded = chunks != nullptr ? !chunks->empty() : p.code_k > 0;
  for (std::size_t i : known) {
    const std::uint32_t chunk = !coded ? 0 : chunks != nullptr ? (*chunks)[i] : p.next_chunk++;
    if (coded) send.chunks.push_back(chunk);
    p.copies.push_back({replicas[i], chunk, now});
  }
  if (!send.chunks.empty()) {
    send.request.code_k = p.code_k;
    send.request.code_id = p.collector.code_id();
  }
  return send;
}

void RequestEngine::transmit(TimePoint now, const Timer& timer, Actions& out) {
  auto it = pending_.find(timer.request);
  if (it == pending_.end()) return;
  PendingRequest& p = it->second;
  auto planned_it = std::find_if(p.transmits.begin(), p.transmits.end(),
                                 [&](const PlannedTransmit& t) { return t.timer == timer.id; });
  AQUA_ASSERT(planned_it != p.transmits.end());
  const PlannedTransmit planned = std::move(*planned_it);
  p.transmits.erase(planned_it);

  SendRequest send = copies_to(now, p, planned.primary, &planned.chunks);
  p.t1 = now;
  record_of(p).transmitted_at = now;
  if (span_sink_ != nullptr) {
    if (p.root_span == 0) p.root_span = span_sink_->next_span_id();
    const std::uint64_t dispatch_span = span_sink_->next_span_id();
    span(p, obs::SpanKind::kDispatch, dispatch_span, p.root_span, ReplicaId{},
         planned.dispatch_start, now);
    send.span = leg_span(p, dispatch_span);
  }
  out.emplace_back(std::move(send));
  if (planned.hedged && !p.delivered && !p.hedge_set.empty()) {
    // The hedge delay runs from t1: the pmf quantile it was derived from
    // predicts the primary's response measured from transmission.
    p.hedge_timer = arm(out, now + planned.hedge_delay, TimerKind::kHedge, timer.request);
  }
}

void RequestEngine::fire_hedge(TimePoint now, RequestId id, Actions& out) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingRequest& pending = it->second;
  if (pending.delivered || pending.hedge_set.empty()) return;

  const std::vector<ReplicaId> hedge = std::move(pending.hedge_set);
  pending.hedge_set.clear();
  SendRequest send = copies_to(now, pending, hedge, nullptr);
  if (send.targets.empty()) return;
  add_awaiting(pending, hedge);
  ++hedges_fired_;
  record_of(pending).hedge_fired = true;
  if (hedges_counter_ != nullptr) hedges_counter_->add();
  if (span_sink_ != nullptr) {
    if (pending.root_span == 0) pending.root_span = span_sink_->next_span_id();
    send.span = leg_span(pending, pending.root_span);
  }
  out.emplace_back(std::move(send));
}

void RequestEngine::send_cancels(RequestId id, PendingRequest& pending, Actions& out) {
  if (pending.awaiting.empty()) return;
  std::vector<EndpointId> targets = endpoints_of(pending.awaiting);
  // A purged copy never replies; one already in service replies into the
  // harvest path without being awaited.
  set_awaiting(pending, {});
  if (targets.empty()) return;
  cancels_sent_ += targets.size();
  record_of(pending).cancels_sent += targets.size();
  if (cancels_counter_ != nullptr) cancels_counter_->add(targets.size());
  out.emplace_back(SendCancel{{id, client_, pending.method}, std::move(targets)});
}

TimePoint RequestEngine::take_send_time(PendingRequest& pending, const proto::Reply& reply) {
  auto it = std::find_if(pending.copies.begin(), pending.copies.end(), [&](const CopySent& c) {
    return c.replica == reply.replica && c.chunk == reply.chunk;
  });
  if (it == pending.copies.end()) return pending.t1;
  const TimePoint sent = it->at;
  pending.copies.erase(it);
  return sent;
}

bool RequestEngine::copy_in_flight(const PendingRequest& pending) const {
  return std::any_of(pending.copies.begin(), pending.copies.end(),
                     [&](const CopySent& c) { return replica_endpoints_.contains(c.replica); });
}

void RequestEngine::on_reply(TimePoint now, const proto::Reply& reply, Actions& out) {
  const TimePoint t4 = now;
  if (replies_counter_ != nullptr) replies_counter_->add();
  // Every reply, first or redundant, refreshes the repository (§5.4.1).
  const bool known = harvest(t4, reply.replica, reply.perf, reply.method);

  auto it = pending_.find(reply.request);
  if (it == pending_.end()) return;  // very late reply; its state was reclaimed
  PendingRequest& pending = it->second;

  // t_d = t4 - t1 - t_q - t_s, with t1 the send time of THIS copy: a
  // hedge copy's t_d leaves out the hedge wait, and a copy sent before a
  // redispatch keeps its own t1. A negative raw value means the clock
  // bases disagree; the clamp keeps the model sane but is counted.
  const Duration td_raw = t4 - take_send_time(pending, reply) - reply.perf.queuing_delay -
                          reply.perf.service_time;
  if (td_raw < Duration::zero()) {
    ++td_clamped_;
    if (td_clamped_counter_ != nullptr) td_clamped_counter_->add();
  }
  const Duration td = std::max(Duration::zero(), td_raw);
  if (known) repository_.record_gateway_delay(reply.replica, td, t4, reply.perf.sample_seq);

  remove_awaiting(pending, reply.replica);

  // The completion predicate decides delivery: first-of-n completes on
  // reply #1, k-of-n at the k-th distinct chunk, quorum at the k-th
  // distinct replica, a vote at the majority-th replica agreeing on one
  // value. Stale generations and duplicates never complete.
  const bool completed =
      pending.collector.record(reply.replica, reply.chunk, reply.code_id, reply.result);
  RequestRecord& record = record_of(pending);
  if (pending.collector.armed()) record.chunks_received = pending.collector.distinct();

  if (completed) {
    pending.delivered = true;
    const Duration tr = t4 - pending.t0;  // t_r = t4 - t0
    const bool timely = tr <= pending.qos.deadline;
    record.response_time = tr;
    pending.first_replica = reply.replica;
    pending.first_perf = reply.perf;
    pending.first_gateway = td;
    // Completion beat the hedge timer: the backups are never sent.
    cancel(out, pending.hedge_timer);
    pending.hedge_set.clear();
    if (config_.dispatch.cancel_on_first_reply && !pending.is_probe) {
      // For coded dispatch this fires at the k-th distinct chunk — the
      // earliest moment the remaining copies become provably redundant.
      send_cancels(reply.request, pending, out);
    }
    if (response_time_histogram_ != nullptr && !pending.is_probe) {
      response_time_histogram_->record(tr);
    }
    if (span_sink_ != nullptr) {
      if (pending.root_span == 0) pending.root_span = span_sink_->next_span_id();
      // A completing reply before the outcome closes the wait-for-first-
      // reply merge (t1 -> t4); one after it closes the late-reply window.
      const bool late = pending.outcome_recorded && !pending.is_probe;
      span(pending, late ? obs::SpanKind::kLateReply : obs::SpanKind::kFirstReply,
           span_sink_->next_span_id(), pending.root_span, reply.replica,
           late ? pending.t0 + pending.qos.deadline : pending.t1, t4, late ? false : timely);
    }
    if (!pending.outcome_recorded && !pending.is_probe) {
      cancel(out, pending.deadline_timer);
      record_outcome(now, pending, timely, out);
    } else if (obs_ != nullptr) {
      if (pending.is_probe) {
        // Probes never pass through record_outcome; trace them on reply
        // and close their root span here.
        emit_request_trace(pending, timely);
        if (span_sink_ != nullptr) {
          span(pending, obs::SpanKind::kRequest, pending.root_span, 0, reply.replica, pending.t0,
               t4, timely);
        }
      } else if (pending.trace_recorded) {
        // Late reply: the deadline already decided the outcome and
        // emitted the trace — amend it in place, like the record above.
        obs_->amend_request(pending.trace_seq, t4, tr, reply.replica, reply.perf.service_time,
                            reply.perf.queuing_delay, td);
      }
    }
    if (!pending.is_probe) {
      out.emplace_back(Deliver{{reply.request, reply.replica, reply.result, tr, timely}, record});
    }
  } else if (pending.collector.armed() && !pending.outcome_recorded && pending.awaiting.empty() &&
             pending.hedge_set.empty() && pending.transmits.empty() &&
             !copy_in_flight(pending) && !pending.collector.can_complete(0)) {
    // Every live copy answered and the predicate still fails (a split
    // vote, too few distinct chunks): waiting for the deadline cannot
    // change that. `awaiting` alone is not enough: a replica re-selected
    // by a redispatch leaves it on answering its older copy, while the
    // fresh one is still in flight. Unarmed first-of-n never gets here:
    // reply #1 completes it.
    cancel(out, pending.deadline_timer);
    record_outcome(now, pending, /*timely=*/false, out);
  }
  finish_if_complete(reply.request);
}

bool RequestEngine::harvest(TimePoint now, ReplicaId replica, const proto::PerfData& perf,
                            const std::string& method) {
  if (!replica_endpoints_.contains(replica)) return false;  // not in the current view
  const PerfSample sample{perf.service_time, perf.queuing_delay, perf.queue_length,
                          perf.sample_seq};
  repository_.record_perf(replica, sample, now, method);
  return true;
}

void RequestEngine::on_perf_update(TimePoint now, const proto::PerfUpdate& update) {
  harvest(now, update.replica, update.perf, update.method);
}

void RequestEngine::on_announce(TimePoint now, ReplicaId replica, EndpointId endpoint,
                                Actions& out) {
  auto [it, inserted] = replica_endpoints_.try_emplace(replica, endpoint);
  if (!inserted && it->second == endpoint) return;
  if (!inserted) {
    // The replica restarted with a new endpoint.
    endpoint_replicas_.erase(it->second);
    it->second = endpoint;
  }
  endpoint_replicas_[endpoint] = replica;
  repository_.add_replica(replica);
  out.emplace_back(SendSubscribe{endpoint});
  // Requests intercepted before any replica was known are still parked;
  // dispatch them once the Announce burst settles (each announce pushes
  // the settle point, so the cold-start selection sees the whole burst).
  cancel(out, settle_timer_);
  settle_timer_ = arm(out, now + config_.discovery_settle, TimerKind::kSettle);
}

void RequestEngine::dispatch_parked(TimePoint now, Actions& out) {
  std::vector<RequestId> parked;
  for (const auto& [id, pending] : pending_) {
    if (!pending.dispatched && !pending.delivered) parked.push_back(id);
  }
  for (RequestId id : parked) {
    auto it = pending_.find(id);
    if (it != pending_.end() && !it->second.dispatched) {
      dispatch(now, id, it->second, /*redispatch=*/false, out);
    }
  }
}

void RequestEngine::on_view_change(TimePoint now, std::span<const EndpointId> departed,
                                   Actions& out) {
  std::vector<ReplicaId> dead;
  for (EndpointId endpoint : departed) {
    auto it = endpoint_replicas_.find(endpoint);
    if (it == endpoint_replicas_.end()) continue;  // a client left, not a replica
    dead.push_back(it->second);
    repository_.remove_replica(it->second);
    model_cache_->invalidate(it->second);
    replica_endpoints_.erase(it->second);
    endpoint_replicas_.erase(it);
  }
  if (dead.empty()) return;
  if (obs_ != nullptr) {
    replicas_evicted_counter_->add(dead.size());
    obs_->annotate(now, "view_change",
                   "client-" + std::to_string(client_.value()) + " evicted " +
                       std::to_string(dead.size()) + " replica(s)");
    for (ReplicaId replica : dead) {
      alert(obs::AlertKind::kReplicaEvicted, now, replica, static_cast<double>(dead.size()), 0.0,
            "view change");
    }
  }

  std::vector<RequestId> to_redispatch;
  std::vector<RequestId> to_hedge;
  std::vector<RequestId> dead_probes;
  for (auto& [id, pending] : pending_) {
    for (ReplicaId replica : dead) {
      remove_awaiting(pending, replica);
      std::erase(pending.hedge_set, replica);
    }
    if (pending.delivered) continue;
    // Replies collected + copies in flight + the held hedge set must still
    // be able to complete (first-of-n: someone is still awaited).
    // Otherwise release the hedge set if that closes the gap, or reselect.
    const bool reachable =
        pending.collector.can_complete(pending.awaiting.size() + pending.hedge_set.size());
    if (!pending.awaiting.empty() && reachable) continue;
    if (pending.is_probe) {
      // A probe's only target is gone; the staleness scan re-probes
      // whoever needs it.
      dead_probes.push_back(id);
    } else if (!pending.hedge_set.empty() && reachable) {
      to_hedge.push_back(id);
    } else if (config_.redispatch_on_view_change) {
      to_redispatch.push_back(id);
    }
  }
  for (RequestId id : dead_probes) erase_pending(id);
  for (RequestId id : to_hedge) fire_hedge(now, id, out);
  for (RequestId id : to_redispatch) {
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    dispatch(now, id, it->second, /*redispatch=*/true, out);
  }
}

void RequestEngine::probe_stale_replicas(TimePoint now, Actions& out) {
  for (const auto& [replica, endpoint] : replica_endpoints_) {
    if (!repository_.contains(replica)) continue;
    if (now - repository_.observe(replica).last_update <= config_.probe_staleness) continue;
    // One probe or request in flight already refreshes the entry.
    if (outstanding_requests(replica) == 0) send_probe(now, replica, out);
  }
}

void RequestEngine::send_probe(TimePoint now, ReplicaId replica, Actions& out) {
  if (!replica_endpoints_.contains(replica)) return;
  const RequestId id = request_ids_.next();
  PendingRequest pending = make_pending(id, now);
  RequestRecord& record = record_of(pending);
  record.transmitted_at = now;
  record.probe = true;
  record.redundancy = 1;
  pending.t1 = now;
  pending.method = kDefaultMethod;
  pending.is_probe = true;
  pending.dispatched = true;
  set_awaiting(pending, {replica});
  PendingRequest& p = pending_.emplace(id, std::move(pending)).first->second;
  arm(out, now + qos_.deadline * kGcDeadlines, TimerKind::kGc, id);

  ++probes_sent_;
  if (probes_counter_ != nullptr) probes_counter_->add();
  if (obs_ != nullptr) {
    alert(obs::AlertKind::kReplicaStale, now, replica, 0.0,
          static_cast<double>(count_us(config_.probe_staleness)), "probe sent");
  }
  SendRequest send = copies_to(now, p, std::span<const ReplicaId>(&replica, 1), nullptr);
  if (span_sink_ != nullptr) {
    p.root_span = span_sink_->next_span_id();
    send.span = leg_span(p, p.root_span);
  }
  out.emplace_back(std::move(send));
}

void RequestEngine::record_outcome(TimePoint now, PendingRequest& pending, bool timely,
                                   Actions& out) {
  AQUA_ASSERT(!pending.outcome_recorded);
  pending.outcome_recorded = true;
  RequestRecord& record = record_of(pending);
  record.timely = timely;
  tracker_.record(timely);
  if (timely_counter_ != nullptr) {
    (timely ? timely_counter_ : timing_failures_counter_)->add();
  }
  if (obs_ != nullptr) {
    emit_request_trace(pending, timely);
    // Calibration before the violation check below: on the sample that
    // trips both detectors, the drift alert lands first in the ring.
    obs_->record_calibration(now, client_, pending.delivered ? pending.first_replica : ReplicaId{},
                             record.predicted_probability, timely);
  }
  if (span_sink_ != nullptr) {
    // Close the root span at decision time — min(first reply, deadline) —
    // so the span ring never holds a dangling root.
    if (pending.root_span == 0) pending.root_span = span_sink_->next_span_id();
    span(pending, obs::SpanKind::kRequest, pending.root_span, 0, pending.first_replica, pending.t0,
         now, timely);
  }
  out.emplace_back(Outcome{record});
  const bool violating = tracker_.violates(pending.qos.min_probability);
  if (violating && !violation_reported_) {
    violation_reported_ = true;
    if (obs_ != nullptr) {
      qos_violations_counter_->add();
      obs_->annotate(now, "qos_violation", "client-" + std::to_string(client_.value()));
      alert(obs::AlertKind::kQosViolation, now, ReplicaId{}, tracker_.timely_fraction(),
            pending.qos.min_probability, "timely fraction below requested minimum");
    }
    out.emplace_back(QosViolation{tracker_.timely_fraction()});
  } else if (!violating) {
    if (violation_reported_ && obs_ != nullptr) {
      alert(obs::AlertKind::kQosRecovered, now, ReplicaId{}, tracker_.timely_fraction(),
            pending.qos.min_probability, "timely fraction recovered");
    }
    violation_reported_ = false;  // re-arm after recovery
  }
}

/// Called exactly once per decided request: from record_outcome for
/// client requests and from on_reply for answered probes.
void RequestEngine::emit_request_trace(PendingRequest& pending, bool timely) {
  const RequestRecord& record = record_of(pending);
  obs::RequestTrace trace;
  trace.client = client_;
  trace.request = record.request;
  trace.probe = pending.is_probe;
  trace.t0 = record.intercepted_at;
  trace.t1 = record.transmitted_at;
  trace.deadline = pending.qos.deadline;
  trace.min_probability = pending.qos.min_probability;
  trace.predicted_probability = record.predicted_probability;
  trace.redundancy = record.redundancy;
  trace.cold_start = record.cold_start;
  trace.feasible = record.feasible;
  trace.redispatched = record.redispatched;
  trace.timely = timely;
  if (pending.delivered) {
    trace.answered = true;
    trace.t4 = pending.t0 + *record.response_time;
    trace.response_time = record.response_time;
    trace.service_time = pending.first_perf.service_time;
    trace.queuing_delay = pending.first_perf.queuing_delay;
    trace.gateway_delay = pending.first_gateway;
    trace.first_replica = pending.first_replica;
  }
  pending.trace_seq = obs_->record_request(std::move(trace));
  pending.trace_recorded = true;
}

void RequestEngine::finish_if_complete(RequestId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const PendingRequest& pending = it->second;
  if (pending.awaiting.empty() && (pending.outcome_recorded || pending.is_probe)) {
    pending_.erase(it);
  }
}

void RequestEngine::set_qos(TimePoint now, QosSpec qos) {
  qos.validate();
  qos_ = qos;
  tracker_.reset();
  // A violation of the old QoS says nothing about the new one: no
  // recovery edge may follow from it.
  violation_reported_ = false;
  if (obs_ != nullptr) {
    alert(obs::AlertKind::kQosRenegotiated, now, ReplicaId{},
          static_cast<double>(count_us(qos_.deadline)), qos_.min_probability, "qos renegotiated");
  }
}

}  // namespace aqua::core
