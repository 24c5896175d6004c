#include "timed_transport.h"

#include "workloads.h"

namespace perfbench {

using aqua::EndpointId;
using aqua::HostId;
using aqua::net::Payload;

EndpointId TimedTransport::create_endpoint(HostId host, aqua::net::ReceiveFn on_receive) {
  const std::uint64_t h = host.value();
  const bool is_replica = h >= 1 && h <= replicas_;
  const std::size_t replica = is_replica ? static_cast<std::size_t>(h - 1) : 0;
  return inner_.create_endpoint(
      host, [this, is_replica, replica, fn = std::move(on_receive)](EndpointId from,
                                                                    const Payload& message) {
        deliveries_.fetch_add(1, std::memory_order_relaxed);
        const aqua::proto::Reply* reply = is_replica ? nullptr : message.get_if<aqua::proto::Reply>();
        if (reply != nullptr) client_replies_.fetch_add(1, std::memory_order_relaxed);
        if (stamps_ == nullptr) {
          fn(from, message);
          return;
        }
        const auto* request = is_replica ? message.get_if<aqua::proto::Request>() : nullptr;
        const std::int64_t entry = now_ns();
        fn(from, message);
        const std::int64_t exit = now_ns();
        if (request != nullptr) {
          stamps_->set(request->id.value(), replica, WireStamps::kReplicaEntry, entry);
          stamps_->set(request->id.value(), replica, WireStamps::kReplicaExit, exit);
        } else if (reply != nullptr) {
          const std::size_t from_replica = static_cast<std::size_t>(reply->replica.value() - 1);
          stamps_->set(reply->request.value(), from_replica, WireStamps::kClientEntry, entry);
          stamps_->set(reply->request.value(), from_replica, WireStamps::kClientExit, exit);
        }
      });
}

void TimedTransport::unicast(EndpointId from, EndpointId to, Payload message) {
  sends_.fetch_add(1, std::memory_order_relaxed);
  if (stamps_ == nullptr) {
    inner_.unicast(from, to, std::move(message));
    return;
  }
  const auto* reply = message.get_if<aqua::proto::Reply>();
  if (reply == nullptr) {
    inner_.unicast(from, to, std::move(message));
    return;
  }
  // Copy what the stamps need first: the payload is moved into the call.
  const std::uint64_t request = reply->request.value();
  const auto replica = static_cast<std::size_t>(reply->replica.value() - 1);
  const std::int64_t queue_us = reply->perf.queuing_delay.count();
  const std::int64_t service_us = reply->perf.service_time.count();
  const std::int64_t start = now_ns();
  inner_.unicast(from, to, std::move(message));
  const std::int64_t end = now_ns();
  stamps_->set(request, replica, WireStamps::kReplyStart, start);
  stamps_->set(request, replica, WireStamps::kReplyEnd, end);
  stamps_->set(request, replica, WireStamps::kQueueUs, queue_us);
  stamps_->set(request, replica, WireStamps::kServiceUs, service_us);
}

void TimedTransport::multicast(EndpointId from, std::span<const EndpointId> to,
                               Payload message) {
  if (!to.empty()) sends_.fetch_add(to.size(), std::memory_order_relaxed);
  if (stamps_ == nullptr) {
    inner_.multicast(from, to, std::move(message));
    return;
  }
  const auto* request = message.get_if<aqua::proto::Request>();
  const std::uint64_t request_id = request != nullptr ? request->id.value() : 0;
  const std::int64_t argument = request != nullptr ? request->argument : 0;
  const std::int64_t start = now_ns();
  inner_.multicast(from, to, std::move(message));
  const std::int64_t end = now_ns();
  if (request_id != 0) {
    stamps_->set_request_of(argument, request_id);
    stamps_->set_send(request_id, start, end);
  }
}

}  // namespace perfbench
