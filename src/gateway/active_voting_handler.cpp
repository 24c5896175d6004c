#include "gateway/active_voting_handler.h"

#include "common/assert.h"
#include "common/log.h"

namespace aqua::gateway {

ActiveVotingHandler::ActiveVotingHandler(sim::Simulator& simulator, net::Lan& lan,
                                         net::MulticastGroup& group, ClientId client, HostId host,
                                         Rng rng, VotingConfig config)
    : simulator_(simulator),
      lan_(lan),
      group_(group),
      client_(client),
      rng_(std::move(rng)),
      config_(config) {
  AQUA_REQUIRE(config_.vote_timeout > Duration::zero(), "vote timeout must be positive");
  endpoint_ = lan_.create_endpoint(
      host, [this](EndpointId from, const net::Payload& m) { on_receive(from, m); });
  group_.join(endpoint_);
  group_.on_view_change(endpoint_, [this](const net::View&, std::span<const EndpointId> departed) {
    for (EndpointId gone : departed) {
      if (auto it = endpoint_replicas_.find(gone); it != endpoint_replicas_.end()) {
        replica_endpoints_.erase(it->second);
        endpoint_replicas_.erase(it);
      }
    }
  });
  group_.broadcast(endpoint_,
                   net::Payload::make(proto::Subscribe{client_, endpoint_}, proto::kSubscribeBytes));
}

RequestId ActiveVotingHandler::invoke(std::int64_t argument, ReplyCallback on_reply,
                                      const std::string& method) {
  AQUA_REQUIRE(on_reply != nullptr, "reply callback must be callable");
  const RequestId id = request_ids_.next();

  PendingVote pending;
  pending.t0 = simulator_.now();
  pending.on_reply = std::move(on_reply);
  pending.argument = argument;
  pending.method = method;
  pending.timeout = simulator_.schedule_after(config_.vote_timeout, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end() || it->second.delivered) return;
    deliver(id, it->second, /*decided=*/false);
  });
  pending_.emplace(id, std::move(pending));

  simulator_.schedule_after(config_.interception, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    dispatch(id, it->second);
  });
  return id;
}

void ActiveVotingHandler::dispatch(RequestId id, PendingVote& pending) {
  if (replica_endpoints_.empty()) return;  // handle_announce re-dispatches
  pending.dispatched_flag = true;
  std::vector<EndpointId> targets;
  targets.reserve(replica_endpoints_.size());
  for (const auto& [replica, endpoint] : replica_endpoints_) targets.push_back(endpoint);
  pending.dispatched = targets.size();
  proto::Request request{id, client_, pending.method, pending.argument};
  group_.send(endpoint_, targets, net::Payload::make(request, proto::kRequestBytes));
}

void ActiveVotingHandler::on_receive(EndpointId, const net::Payload& message) {
  if (const auto* reply = message.get_if<proto::Reply>()) {
    handle_reply(*reply);
    return;
  }
  if (const auto* announce = message.get_if<proto::Announce>()) {
    handle_announce(*announce);
    return;
  }
  // Performance updates and sibling-client subscribes are irrelevant to
  // the voting handler.
}

void ActiveVotingHandler::handle_reply(const proto::Reply& reply) {
  auto it = pending_.find(reply.request);
  if (it == pending_.end()) return;
  PendingVote& pending = it->second;
  if (pending.delivered) return;
  ++pending.replies;
  const std::size_t votes = ++pending.tally[reply.result];
  const std::size_t majority = pending.dispatched / 2 + 1;
  if (votes >= majority) {
    deliver(reply.request, pending, /*decided=*/true);
    return;
  }
  // All replies are in but nothing reached a majority (ties / heavy
  // corruption): fail fast instead of waiting for the timeout.
  if (pending.replies >= pending.dispatched) {
    deliver(reply.request, pending, /*decided=*/false);
  }
}

void ActiveVotingHandler::deliver(RequestId id, PendingVote& pending, bool decided) {
  pending.delivered = true;
  pending.timeout.cancel();
  VotedReply out;
  out.request = id;
  out.decided = decided;
  out.dispatched = pending.dispatched;
  out.response_time = simulator_.now() - pending.t0;
  if (decided) {
    // The value with the most votes (ties broken by value; a decided
    // delivery means one value reached the majority threshold).
    std::size_t best = 0;
    for (const auto& [value, votes] : pending.tally) {
      if (votes > best) {
        best = votes;
        out.result = value;
      }
    }
    out.votes = best;
    out.dissenting = pending.replies - best;
    ++decided_;
  } else {
    out.votes = 0;
    out.dissenting = pending.replies;
    ++undecided_;
  }
  ReplyCallback cb = std::move(pending.on_reply);
  pending_.erase(id);
  cb(out);
}

void ActiveVotingHandler::handle_announce(const proto::Announce& announce) {
  auto [it, inserted] = replica_endpoints_.try_emplace(announce.replica, announce.endpoint);
  if (!inserted && it->second == announce.endpoint) return;
  if (!inserted) {
    endpoint_replicas_.erase(it->second);
    it->second = announce.endpoint;
  }
  endpoint_replicas_[announce.endpoint] = announce.replica;
  lan_.unicast(endpoint_, announce.endpoint,
               net::Payload::make(proto::Subscribe{client_, endpoint_}, proto::kSubscribeBytes));
  parked_dispatch_.cancel();
  parked_dispatch_ = simulator_.schedule_after(config_.discovery_settle, [this] {
    std::vector<RequestId> parked;
    for (const auto& [id, pending] : pending_) {
      if (!pending.dispatched_flag && !pending.delivered) parked.push_back(id);
    }
    for (RequestId id : parked) {
      auto found = pending_.find(id);
      if (found != pending_.end() && !found->second.dispatched_flag) dispatch(id, found->second);
    }
  });
}

}  // namespace aqua::gateway
