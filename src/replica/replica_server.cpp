#include "replica/replica_server.h"

#include "common/assert.h"
#include "common/log.h"

namespace aqua::replica {

ReplicaServer::ReplicaServer(sim::Simulator& simulator, net::Lan& lan, net::MulticastGroup& group,
                             ReplicaId id, HostId host, ServiceModelPtr service_model, Rng rng,
                             ReplicaConfig config)
    : simulator_(simulator),
      lan_(lan),
      group_(group),
      host_(host),
      gateway_overhead_(config.gateway_overhead),
      core_(id, std::move(service_model), std::move(rng), std::move(config)) {
  AQUA_REQUIRE(gateway_overhead_ >= Duration::zero(), "gateway overhead must be non-negative");
  open_endpoint();
}

void ReplicaServer::open_endpoint() {
  endpoint_ = lan_.create_endpoint(
      host_, [this](EndpointId from, const net::Payload& m) { on_receive(from, m); });
  group_.join(endpoint_);
  group_.broadcast(endpoint_,
                   net::Payload::make(proto::Announce{id(), endpoint_}, proto::kAnnounceBytes));
}

void ReplicaServer::on_receive(EndpointId from, const net::Payload& message) {
  if (!core_.alive()) return;
  if (const auto* request = message.get_if<proto::Request>()) {
    core_.admit(simulator_.now(), *request, from, message.span());
    start_next();
  } else if (message.get_if<proto::Subscribe>() != nullptr) {
    core_.subscribe(from);
    // Confirm identity to the subscriber so its directory stays complete
    // regardless of join order.
    lan_.unicast(endpoint_, from,
                 net::Payload::make(proto::Announce{id(), endpoint_}, proto::kAnnounceBytes));
  } else if (const auto* cancel = message.get_if<proto::Cancel>()) {
    core_.cancel(cancel->request, cancel->client);
  } else if (message.get_if<proto::Announce>() == nullptr) {  // peers' announces are ignored
    AQUA_LOG_WARN << "replica " << id().value() << ": dropping unknown message type";
  }
}

void ReplicaServer::start_next() {
  if (!core_.start(simulator_.now())) return;
  // The gateway overhead covers demarshalling + the DII upcall; it is part
  // of the observable queuing-to-service transition, so t3 is taken after
  // it elapses, and the draw sees the queue as it is then.
  completion_ = simulator_.schedule_after(gateway_overhead_, [this] {
    const Duration service = core_.begin_service(simulator_.now());
    completion_ = simulator_.schedule_after(service, [this] { finish_current(); });
  });
}

void ReplicaServer::finish_current() {
  ReplicaCore::Finished done = core_.finish();  // now is exactly t3 + the draw
  lan_.unicast(endpoint_, done.reply_to, std::move(done.reply));
  std::erase_if(done.perf_targets,
                [this](EndpointId subscriber) { return !lan_.endpoint_exists(subscriber); });
  lan_.multicast(endpoint_, done.perf_targets, std::move(done.perf_update));
  start_next();
}

bool ReplicaServer::crash(const char* what) {
  if (!core_.alive()) return false;
  core_.crash();
  completion_.cancel();
  lan_.destroy_endpoint(endpoint_);
  AQUA_LOG_DEBUG << "replica " << id().value() << " crashed (" << what << ") at "
                 << to_string(simulator_.now());
  return true;
}

void ReplicaServer::crash_process() {
  if (crash("process")) group_.report_member_failure(endpoint_);
}

void ReplicaServer::crash_host() {
  if (crash("host")) lan_.set_host_alive(host_, false);
}

void ReplicaServer::restart() {
  if (core_.alive()) return;
  if (!lan_.host_alive(host_)) lan_.set_host_alive(host_, true);
  core_.restart();
  open_endpoint();
  AQUA_LOG_DEBUG << "replica " << id().value() << " restarted at " << to_string(simulator_.now());
}

}  // namespace aqua::replica
