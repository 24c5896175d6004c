#include "gateway/passive_handler.h"

#include "common/assert.h"
#include "common/log.h"

namespace aqua::gateway {

PassiveReplicationHandler::PassiveReplicationHandler(sim::Simulator& simulator, net::Lan& lan,
                                                     net::MulticastGroup& group, ClientId client,
                                                     HostId host, PassiveConfig config)
    : simulator_(simulator), lan_(lan), group_(group), client_(client), config_(config) {
  endpoint_ = lan_.create_endpoint(
      host, [this](EndpointId from, const net::Payload& m) { on_receive(from, m); });
  group_.join(endpoint_);
  group_.on_view_change(endpoint_, [this](const net::View&, std::span<const EndpointId> departed) {
    on_view_change(departed);
  });
  group_.broadcast(endpoint_,
                   net::Payload::make(proto::Subscribe{client_, endpoint_}, proto::kSubscribeBytes));
}

std::optional<ReplicaId> PassiveReplicationHandler::primary() const {
  if (replica_endpoints_.empty()) return std::nullopt;
  return replica_endpoints_.begin()->first;
}

RequestId PassiveReplicationHandler::invoke(std::int64_t argument, ReplyCallback on_reply,
                                            const std::string& method) {
  AQUA_REQUIRE(on_reply != nullptr, "reply callback must be callable");
  const RequestId id = request_ids_.next();
  PendingRequest pending;
  pending.t0 = simulator_.now();
  pending.argument = argument;
  pending.method = method;
  pending.on_reply = std::move(on_reply);
  pending_.emplace(id, std::move(pending));
  simulator_.schedule_after(config_.interception, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    send_to_primary(id, it->second);
  });
  return id;
}

void PassiveReplicationHandler::send_to_primary(RequestId id, PendingRequest& pending) {
  if (replica_endpoints_.empty()) return;  // re-sent on the next announce
  const auto [replica, ep] = *replica_endpoints_.begin();
  pending.sent = true;
  pending.sent_to = replica;
  proto::Request request{id, client_, pending.method, pending.argument};
  lan_.unicast(endpoint_, ep, net::Payload::make(request, proto::kRequestBytes));
}

void PassiveReplicationHandler::on_receive(EndpointId, const net::Payload& message) {
  if (const auto* reply = message.get_if<proto::Reply>()) {
    handle_reply(*reply);
    return;
  }
  if (const auto* announce = message.get_if<proto::Announce>()) {
    handle_announce(*announce);
    return;
  }
}

void PassiveReplicationHandler::handle_reply(const proto::Reply& reply) {
  auto it = pending_.find(reply.request);
  if (it == pending_.end()) return;
  PendingRequest& pending = it->second;
  PassiveReply out;
  out.request = reply.request;
  out.primary = reply.replica;
  out.result = reply.result;
  out.response_time = simulator_.now() - pending.t0;
  out.failovers = pending.failovers;
  ReplyCallback cb = std::move(pending.on_reply);
  pending_.erase(it);
  cb(out);
}

void PassiveReplicationHandler::handle_announce(const proto::Announce& announce) {
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
      if (!pending.sent) parked.push_back(id);
    }
    for (RequestId id : parked) {
      auto found = pending_.find(id);
      if (found != pending_.end() && !found->second.sent) send_to_primary(id, found->second);
    }
  });
}

void PassiveReplicationHandler::on_view_change(std::span<const EndpointId> departed) {
  bool primary_lost = false;
  for (EndpointId gone : departed) {
    auto it = endpoint_replicas_.find(gone);
    if (it == endpoint_replicas_.end()) continue;
    const ReplicaId dead = it->second;
    if (primary() == dead) primary_lost = true;
    replica_endpoints_.erase(dead);
    endpoint_replicas_.erase(it);
    // Any request in flight to the dead replica fails over to the new
    // primary.
    for (auto& [id, pending] : pending_) {
      if (pending.sent && pending.sent_to == dead) {
        ++pending.failovers;
        ++failovers_;
        AQUA_LOG_DEBUG << "passive handler: failing request " << id.value()
                       << " over after primary crash";
        send_to_primary(id, pending);
      }
    }
  }
  (void)primary_lost;
}

}  // namespace aqua::gateway
