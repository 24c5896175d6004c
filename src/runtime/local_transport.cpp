#include "runtime/local_transport.h"

#include "common/assert.h"
#include "obs/telemetry.h"

namespace aqua::runtime {

Duration NetDelayModel::sample(Rng& rng) const {
  Duration delay = base;
  if (jitter_max > Duration::zero()) delay += Duration{rng.uniform_int(0, count_us(jitter_max))};
  return modulation ? modulation->apply(delay) : delay;
}

LocalTransport::LocalTransport(NetDelayModel net, Rng rng)
    : net_(std::move(net)), rng_(std::move(rng)) {}

EndpointId LocalTransport::create_endpoint(HostId host, net::ReceiveFn on_receive) {
  AQUA_REQUIRE(on_receive != nullptr, "endpoint receive callback must be callable");
  std::lock_guard lock(mutex_);
  const EndpointId id = endpoint_ids_.next();
  endpoints_.emplace(
      id, Endpoint{host, std::make_shared<const net::ReceiveFn>(std::move(on_receive))});
  return id;
}

void LocalTransport::destroy_endpoint(EndpointId endpoint) {
  std::unique_lock lock(mutex_);
  endpoints_.erase(endpoint);
  // Every callback runs on the delivery thread, so when a callback calls
  // this no other one is running, and waiting would wait for itself.
  if (std::this_thread::get_id() == delivery_thread_) return;
  delivered_cv_.wait(lock, [&] { return delivering_ != endpoint; });
}

void LocalTransport::unicast(EndpointId from, EndpointId to, net::Payload message) {
  Duration delay;
  {
    std::lock_guard lock(mutex_);
    ++sent_;
    if (sent_counter_ != nullptr) sent_counter_->add();
    if (!endpoints_.contains(from)) return drop_locked();  // sender destroyed, reply in flight
    delay = net_.sample(rng_);
  }
  if (!executor_.post_after(
          delay, [this, from, to, message = std::move(message)] { deliver(from, to, message); })) {
    std::lock_guard lock(mutex_);
    drop_locked();
  }
}

void LocalTransport::multicast(EndpointId from, std::span<const EndpointId> to,
                               net::Payload message) {
  for (EndpointId destination : to) unicast(from, destination, message);
}

void LocalTransport::deliver(EndpointId from, EndpointId to, const net::Payload& message) {
  std::shared_ptr<const net::ReceiveFn> on_receive;
  {
    std::lock_guard lock(mutex_);
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) return drop_locked();
    on_receive = it->second.on_receive;
    ++delivered_;
    if (delivered_counter_ != nullptr) delivered_counter_->add();
    delivering_ = to;
    delivery_thread_ = std::this_thread::get_id();
  }
  (*on_receive)(from, message);
  {
    std::lock_guard lock(mutex_);
    delivering_ = EndpointId{};
  }
  delivered_cv_.notify_all();
}

HostId LocalTransport::endpoint_host(EndpointId endpoint) const {
  std::lock_guard lock(mutex_);
  auto it = endpoints_.find(endpoint);
  return it == endpoints_.end() ? HostId{} : it->second.host;
}

bool LocalTransport::endpoint_exists(EndpointId endpoint) const {
  std::lock_guard lock(mutex_);
  return endpoints_.contains(endpoint);
}

void LocalTransport::set_telemetry(obs::Telemetry* telemetry) {
  auto counter = [telemetry](const char* name) {
    return telemetry == nullptr ? nullptr : &telemetry->metrics().counter(name);
  };
  std::lock_guard lock(mutex_);
  sent_counter_ = counter("lan.sent");
  delivered_counter_ = counter("lan.delivered");
  dropped_counter_ = counter("lan.dropped");
}

void LocalTransport::drop_locked() {
  ++dropped_;
  if (dropped_counter_ != nullptr) dropped_counter_->add();
}

}  // namespace aqua::runtime
