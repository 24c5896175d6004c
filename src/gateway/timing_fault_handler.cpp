#include "gateway/timing_fault_handler.h"

#include <algorithm>
#include <cmath>
#include <variant>

#include "common/assert.h"
#include "obs/telemetry.h"

namespace aqua::gateway {

Duration OverheadModel::selection_cost(std::size_t replicas, std::size_t window) const {
  return selection_cost(replicas, /*cached=*/0, window);
}

Duration OverheadModel::selection_cost(std::size_t convolved, std::size_t cached,
                                       std::size_t window) const {
  const double atoms = static_cast<double>(convolved) * static_cast<double>(window) *
                       static_cast<double>(window);
  const auto convolution_us = static_cast<std::int64_t>(std::llround(atoms * per_atom_ns / 1000.0));
  return base + per_replica * static_cast<std::int64_t>(convolved + cached) +
         per_cached_replica * static_cast<std::int64_t>(cached) + Duration{convolution_us};
}

TimingFaultHandler::TimingFaultHandler(sim::Simulator& simulator, net::Lan& lan,
                                       net::MulticastGroup& group, ClientId client, HostId host,
                                       core::QosSpec qos, Rng rng, HandlerConfig config,
                                       core::PolicyPtr policy)
    : simulator_(simulator),
      lan_(lan),
      group_(group),
      config_(std::move(config)),
      engine_(client, qos, std::move(rng),
              core::EngineConfig{
                  .repository = config_.repository,
                  .selection = config_.selection,
                  .model = config_.model,
                  .failure_tracker = config_.failure_tracker,
                  .dispatch = config_.dispatch,
                  .redispatch_on_view_change = config_.redispatch_on_view_change,
                  .discovery_settle = config_.discovery_settle,
                  .probe_staleness = config_.probe_staleness,
                  .interception = config_.overhead.interception,
                  .selection_cost = [this](const core::SelectionView& view) {
                    return selection_cost(view);
                  },
                  .history = &history_,
                  .telemetry = config_.telemetry,
                  .metrics_prefix = "gateway"},
              std::move(policy)) {
  endpoint_ = lan_.create_endpoint(host, [this](EndpointId, const net::Payload& message) {
    core::Actions out;
    if (const auto* reply = message.get_if<proto::Reply>()) {
      engine_.on_reply(simulator_.now(), *reply, out);
    } else if (const auto* update = message.get_if<proto::PerfUpdate>()) {
      engine_.on_perf_update(simulator_.now(), *update);
    } else if (const auto* announce = message.get_if<proto::Announce>()) {
      engine_.on_announce(simulator_.now(), announce->replica, announce->endpoint, out);
    }
    // Subscribe broadcasts from sibling clients land here too; ignored.
    run(out);
  });
  group_.join(endpoint_);
  group_.on_view_change(endpoint_,
                        [this](const net::View&, std::span<const EndpointId> departed) {
                          core::Actions out;
                          engine_.on_view_change(simulator_.now(), departed, out);
                          run(out);
                        });
  // Ask the replicas already in the group for performance updates; each
  // responds with an Announce that populates the directory.
  group_.broadcast(endpoint_, net::Payload::make(proto::Subscribe{client, endpoint_},
                                                 proto::kSubscribeBytes));
  core::Actions out;
  engine_.start(simulator_.now(), out);
  run(out);
}

TimingFaultHandler::~TimingFaultHandler() {
  for (auto& [id, event] : timers_) event.cancel();
}

RequestId TimingFaultHandler::invoke(std::int64_t argument, ReplyCallback on_reply,
                                     const std::string& method) {
  AQUA_REQUIRE(on_reply != nullptr, "reply callback must be callable");
  core::Actions out;
  const RequestId id = engine_.invoke(simulator_.now(), argument, method, out);
  callbacks_.emplace(id, std::move(on_reply));
  run(out);
  return id;
}

void TimingFaultHandler::run(core::Actions& actions) {
  for (core::Action& action : actions) {
    if (auto* send = std::get_if<core::SendRequest>(&action)) {
      auto payload_of = [&send](const proto::Request& request) {
        net::Payload payload = net::Payload::make(request, proto::kRequestBytes);
        if (send->span.valid()) payload.set_span(send->span);
        return payload;
      };
      if (send->chunks.empty()) {
        // Uncoded: one multicast payload shared by the whole set — the
        // paper's transmission exactly.
        group_.send(endpoint_, send->targets, payload_of(send->request));
        continue;
      }
      for (std::size_t i = 0; i < send->targets.size(); ++i) {
        proto::Request copy = send->request;
        copy.chunk = send->chunks[i];
        group_.send(endpoint_, std::span<const EndpointId>(&send->targets[i], 1), payload_of(copy));
      }
    } else if (auto* cancel = std::get_if<core::SendCancel>(&action)) {
      group_.send(endpoint_, cancel->targets,
                  net::Payload::make(cancel->cancel, proto::kCancelBytes));
    } else if (auto* subscribe = std::get_if<core::SendSubscribe>(&action)) {
      // Make sure the announced replica pushes its performance updates here.
      lan_.unicast(endpoint_, subscribe->target,
                   net::Payload::make(proto::Subscribe{engine_.client(), endpoint_},
                                      proto::kSubscribeBytes));
    } else if (auto* arm = std::get_if<core::ArmTimer>(&action)) {
      const core::Timer timer = arm->timer;
      timers_[timer.id] = simulator_.schedule_at(timer.at, [this, timer] {
        timers_.erase(timer.id);
        core::Actions fired;
        engine_.on_timer(simulator_.now(), timer, fired);
        run(fired);
      });
    } else if (auto* stop = std::get_if<core::CancelTimer>(&action)) {
      if (auto it = timers_.find(stop->timer.id); it != timers_.end()) {
        it->second.cancel();
        timers_.erase(it);
      }
    } else if (auto* deliver = std::get_if<core::Deliver>(&action)) {
      auto it = callbacks_.find(deliver->info.request);
      if (it == callbacks_.end()) continue;
      const ReplyCallback on_reply = std::move(it->second);
      callbacks_.erase(it);
      on_reply(deliver->info);
    } else if (auto* violation = std::get_if<core::QosViolation>(&action)) {
      if (on_violation_) on_violation_(violation->observed_timely_fraction);
    }
  }
}

core::DispatchCost TimingFaultHandler::selection_cost(const core::SelectionView& view) {
  // Replicas the model re-convolved pay the per-atom term, cache hits
  // the cheap lookup; MDS encoding + per-copy marshalling is charged per
  // chunk-request of a coded dispatch.
  Duration cost = config_.overhead.selection_cost(view.convolved, view.cached,
                                                  engine_.repository().window_size());
  cost += config_.overhead.per_chunk * static_cast<std::int64_t>(view.coded_copies);

  // Selection explainability record: every replica as Algorithm 1 saw
  // it, plus the achieved-vs-requested probability and the cache split.
  obs::Telemetry* obs = config_.telemetry;
  if (obs != nullptr && obs->selection_traces_enabled()) {
    const core::SelectionResult& selection = view.selection;
    auto is_selected = [&view](ReplicaId id) {
      return std::find(view.selected.begin(), view.selected.end(), id) != view.selected.end();
    };
    obs::SelectionTrace trace;
    trace.client = engine_.client();
    trace.request = view.request;
    trace.at = view.at;
    trace.redispatch = view.redispatch;
    trace.deadline = view.qos.deadline;
    trace.requested_probability = view.qos.min_probability;
    trace.overhead_delta = view.delta_used;
    trace.cold_start = selection.cold_start;
    trace.feasible = selection.feasible;
    trace.fallback_to_all =
        !selection.feasible && !selection.cold_start &&
        config_.selection.infeasible_fallback == core::InfeasibleFallback::kAllReplicas;
    trace.protected_count = selection.protected_count;
    trace.test_probability = selection.test_probability;
    trace.predicted_probability = selection.predicted_probability;
    trace.redundancy = view.selected.size();
    trace.cache_hits = view.cache_hits;
    trace.cache_misses = view.cache_misses;
    for (std::size_t i = 0; i < selection.ranked.size(); ++i) {
      const core::RankedReplica& ranked = selection.ranked[i];
      trace.replicas.push_back({.replica = ranked.id,
                                .rank = i,
                                .probability = ranked.probability,
                                .has_data = ranked.has_data,
                                .selected = is_selected(ranked.id),
                                .protected_member = i < selection.protected_count});
    }
    // Dataless replicas never enter the ranking; list the selected ones
    // after it so the dispatched set K is fully accounted for.
    for (ReplicaId id : view.selected) {
      const bool ranked_member =
          std::any_of(selection.ranked.begin(), selection.ranked.end(),
                      [id](const core::RankedReplica& r) { return r.id == id; });
      if (!ranked_member) {
        trace.replicas.push_back({.replica = id, .rank = trace.replicas.size(), .selected = true});
      }
    }
    obs->record_selection(std::move(trace));
  }
  return {config_.overhead.interception + cost, cost};
}

namespace {

/// Passive's deadline. A request is reclaimed 10 deadlines after t0, so
/// it outlives a double failover (one failure-detection delay each); a
/// request parks up to one deadline for its first replica.
constexpr Duration kPassiveDeadline = sec(2);

HandlerConfig interception_only() {
  HandlerConfig config;
  OverheadModel& overhead = config.overhead;
  overhead.base = overhead.per_replica = overhead.per_cached_replica = overhead.per_chunk =
      Duration::zero();
  overhead.per_atom_ns = 0.0;
  return config;
}

}  // namespace

std::unique_ptr<TimingFaultHandler> make_voting_handler(sim::Simulator& simulator, net::Lan& lan,
                                                        net::MulticastGroup& group, ClientId client,
                                                        HostId host, Duration vote_timeout) {
  HandlerConfig config = interception_only();
  config.dispatch.completion = core::CompletionSpec::majority_value();
  config.redispatch_on_view_change = false;
  return std::make_unique<TimingFaultHandler>(simulator, lan, group, client, host,
                                              core::QosSpec{vote_timeout, 0.0}, Rng{0}, config,
                                              core::make_all_replicas_policy());
}

std::unique_ptr<TimingFaultHandler> make_passive_handler(sim::Simulator& simulator, net::Lan& lan,
                                                         net::MulticastGroup& group,
                                                         ClientId client, HostId host) {
  HandlerConfig config = interception_only();
  config.selection.include_dataless = false;  // backups stay idle
  return std::make_unique<TimingFaultHandler>(simulator, lan, group, client, host,
                                              core::QosSpec{kPassiveDeadline, 0.0}, Rng{0},
                                              config, core::make_primary_policy());
}

}  // namespace aqua::gateway
