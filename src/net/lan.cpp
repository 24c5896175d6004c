#include "net/lan.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/log.h"
#include "obs/telemetry.h"

namespace aqua::net {

LanConfig in_process_lan(Duration one_way, Duration jitter) {
  LanConfig config;
  config.stack_delay = one_way;
  config.wire_base = Duration::zero();
  config.per_byte_us = 0.0;
  config.jitter_median = jitter;
  if (jitter == Duration::zero()) config.jitter_sigma = 0.0;
  config.multicast_member_cost = Duration::zero();
  config.local_delay = one_way;
  return config;
}

Lan::Lan(Scheduler& scheduler, Rng rng, LanConfig config)
    : scheduler_(scheduler), config_(config), rng_(std::move(rng)) {
  AQUA_REQUIRE(config_.loss_rate >= 0.0 && config_.loss_rate < 1.0, "loss rate must be in [0, 1)");
  AQUA_REQUIRE(config_.per_byte_us >= 0.0, "per-byte cost must be non-negative");
  AQUA_REQUIRE(config_.jitter_sigma == 0.0 || config_.jitter_median > Duration::zero(),
               "jitter_median must be positive when jitter_sigma > 0 (log of the median "
               "parameterizes the lognormal)");
  if (config_.spike.enabled) {
    AQUA_REQUIRE(config_.spike.delay_factor >= 1.0, "spike factor must be >= 1");
    schedule_next_spike();
  }
}

EndpointId Lan::create_endpoint(HostId host, ReceiveFn on_receive) {
  AQUA_REQUIRE(on_receive != nullptr, "endpoint receive callback must be callable");
  std::lock_guard lock(mutex_);
  const EndpointId id = endpoint_ids_.next();
  endpoints_.emplace(id,
                     Endpoint{host, std::make_shared<const ReceiveFn>(std::move(on_receive))});
  host_alive_.try_emplace(host, true);
  return id;
}

void Lan::destroy_endpoint(EndpointId endpoint) {
  std::unique_lock lock(mutex_);
  endpoints_.erase(endpoint);
  std::erase_if(last_delivery_, [endpoint](const auto& entry) {
    return entry.first.first == endpoint || entry.first.second == endpoint;
  });
  // Deliveries run one at a time on the scheduler's thread, so a caller
  // on that thread is the running callback (or runs between deliveries),
  // and waiting would wait for itself.
  if (std::this_thread::get_id() == delivery_thread_) return;
  delivered_cv_.wait(lock, [&] { return delivering_ != endpoint; });
}

void Lan::set_host_alive(HostId host, bool alive) {
  std::vector<HostStateFn> subscribers;
  {
    std::lock_guard lock(mutex_);
    auto [it, inserted] = host_alive_.try_emplace(host, true);
    if (!inserted && it->second == alive) return;
    it->second = alive;
    subscribers = host_state_subscribers_;
  }
  for (const HostStateFn& fn : subscribers) fn(host, alive);
}

bool Lan::alive_locked(HostId host) const {
  auto it = host_alive_.find(host);
  return it == host_alive_.end() ? true : it->second;
}

void Lan::subscribe_host_state(HostStateFn fn) {
  AQUA_REQUIRE(fn != nullptr, "host-state callback must be callable");
  std::lock_guard lock(mutex_);
  host_state_subscribers_.push_back(std::move(fn));
}

HostId Lan::endpoint_host(EndpointId endpoint) const {
  std::lock_guard lock(mutex_);
  auto it = endpoints_.find(endpoint);
  AQUA_REQUIRE(it != endpoints_.end(), "unknown endpoint");
  return it->second.host;
}

void Lan::unicast(EndpointId from, EndpointId to, Payload message) {
  std::lock_guard lock(mutex_);
  send_locked(from, to, std::move(message), 1);
}

void Lan::multicast(EndpointId from, std::span<const EndpointId> to, Payload message) {
  if (to.empty()) return;
  std::lock_guard lock(mutex_);
  // The payload's body is shared, but the envelope (span stamp, size) is
  // copied per destination — move it into the final send.
  for (std::size_t i = 0; i + 1 < to.size(); ++i) send_locked(from, to[i], message, to.size());
  send_locked(from, to.back(), std::move(message), to.size());
}

void Lan::send_locked(EndpointId from, EndpointId to, Payload message, std::size_t fanout) {
  ++sent_;
  if (sent_counter_ != nullptr) sent_counter_->add();
  auto src_it = endpoints_.find(from);
  if (src_it == endpoints_.end() || !alive_locked(src_it->second.host)) {
    return drop_locked();  // the sending process is gone
  }
  auto dst_it = endpoints_.find(to);
  if (dst_it == endpoints_.end()) return drop_locked();
  if (config_.loss_rate > 0.0 && src_it->second.host != dst_it->second.host &&
      rng_.bernoulli(config_.loss_rate)) {
    return drop_locked();
  }
  Duration fault_delay = Duration::zero();
  if (message_filter_) {
    const FilterVerdict verdict = message_filter_(from, to, message);
    if (verdict.drop) {
      ++fault_dropped_;
      if (fault_dropped_counter_ != nullptr) fault_dropped_counter_->add();
      return drop_locked();
    }
    fault_delay = std::max(Duration::zero(), verdict.extra_delay);
  }
  const Duration delay =
      sample_delay(src_it->second, dst_it->second, message.wire_bytes(), fanout) + fault_delay;
  if (delay_histogram_ != nullptr) delay_histogram_->record(delay);
  const TimePoint sent_at = scheduler_.now();
  TimePoint deliver_at = sent_at + delay;
  if (config_.fifo_per_pair) {
    // Ensemble is FIFO per sender: never schedule a delivery before an
    // earlier message on the same pair. Scheduling under the lock keeps
    // equal instants in send order on the scheduler's queue too.
    TimePoint& last = last_delivery_[{from, to}];
    if (deliver_at < last) deliver_at = last;
    last = deliver_at;
  }
  if (!scheduler_.run_at(deliver_at, [this, from, to, sent_at, message = std::move(message)] {
        arrive(from, to, sent_at, message);
      })) {
    drop_locked();  // the scheduler is shutting down
  }
}

void Lan::arrive(EndpointId from, EndpointId to, TimePoint sent_at, const Payload& message) {
  std::shared_ptr<const ReceiveFn> on_receive;
  obs::Telemetry* span_sink = nullptr;
  {
    std::lock_guard lock(mutex_);
    auto it = endpoints_.find(to);
    if (it == endpoints_.end() || !alive_locked(it->second.host)) return drop_locked();
    ++delivered_;
    if (delivered_counter_ != nullptr) delivered_counter_->add();
    on_receive = it->second.on_receive;
    span_sink = span_sink_;
    delivering_ = to;
    delivery_thread_ = std::this_thread::get_id();
  }
  if (span_sink != nullptr && message.span().valid()) {
    const obs::SpanContext& ctx = message.span();
    span_sink->record_span({.trace_id = ctx.trace_id,
                            .span_id = span_sink->next_span_id(),
                            .parent_span_id = ctx.parent_span_id,
                            .kind = ctx.leg,
                            .client = obs::trace_client(ctx.trace_id),
                            .request = obs::trace_request(ctx.trace_id),
                            .replica = ctx.replica,
                            .start = sent_at,
                            .end = scheduler_.now()});
  }
  (*on_receive)(from, message);
  {
    std::lock_guard lock(mutex_);
    delivering_ = EndpointId{};
  }
  delivered_cv_.notify_all();
}

void Lan::drop_locked() {
  ++dropped_;
  if (dropped_counter_ != nullptr) dropped_counter_->add();
}

Duration Lan::sample_delay(const Endpoint& src, const Endpoint& dst, std::int64_t bytes,
                           std::size_t fanout) {
  double us = 0.0;
  if (src.host == dst.host) {
    us = static_cast<double>(count_us(config_.local_delay));
  } else {
    us = static_cast<double>(count_us(config_.stack_delay)) +
         static_cast<double>(count_us(config_.wire_base)) +
         config_.per_byte_us * static_cast<double>(bytes);
    if (config_.jitter_sigma > 0.0) {
      const double mu = std::log(static_cast<double>(count_us(config_.jitter_median)));
      us += std::exp(mu + config_.jitter_sigma * rng_.normal01());
    }
  }
  if (fanout > 1) {
    us += static_cast<double>(count_us(config_.multicast_member_cost)) *
          static_cast<double>(fanout - 1);
  }
  if (spike_override_.has_value()) {
    us *= *spike_override_;
  } else if (spike_active_) {
    us *= config_.spike.delay_factor;
  }
  return Duration{static_cast<std::int64_t>(std::llround(us))};
}

void Lan::force_spike(double delay_factor) {
  AQUA_REQUIRE(delay_factor >= 1.0, "forced spike factor must be >= 1");
  std::lock_guard lock(mutex_);
  spike_override_ = delay_factor;
  if (spikes_counter_ != nullptr) spikes_counter_->add();
}

void Lan::set_telemetry(obs::Telemetry* telemetry) {
  std::lock_guard lock(mutex_);
  if (telemetry == nullptr) {
    sent_counter_ = nullptr;
    delivered_counter_ = nullptr;
    dropped_counter_ = nullptr;
    fault_dropped_counter_ = nullptr;
    spikes_counter_ = nullptr;
    delay_histogram_ = nullptr;
    span_sink_ = nullptr;
    return;
  }
  span_sink_ = telemetry->spans_enabled() ? telemetry : nullptr;
  auto& metrics = telemetry->metrics();
  sent_counter_ = &metrics.counter("lan.sent");
  delivered_counter_ = &metrics.counter("lan.delivered");
  dropped_counter_ = &metrics.counter("lan.dropped");
  fault_dropped_counter_ = &metrics.counter("lan.fault_dropped");
  spikes_counter_ = &metrics.counter("lan.spikes");
  delay_histogram_ = &metrics.histogram("lan.delay_us");
}

void Lan::schedule_next_spike() {
  const Duration gap{static_cast<std::int64_t>(
      std::llround(rng_.exponential(static_cast<double>(count_us(config_.spike.mean_interval)))))};
  scheduler_.run_at(scheduler_.now() + gap, [this] {
    std::lock_guard lock(mutex_);
    spike_active_ = true;
    if (spikes_counter_ != nullptr) spikes_counter_->add();
    AQUA_LOG_DEBUG << "lan: traffic spike begins at " << to_string(scheduler_.now());
    const Duration len{static_cast<std::int64_t>(std::llround(
        rng_.exponential(static_cast<double>(count_us(config_.spike.mean_duration)))))};
    scheduler_.run_at(scheduler_.now() + len, [this] {
      std::lock_guard guard(mutex_);
      spike_active_ = false;
      AQUA_LOG_DEBUG << "lan: traffic spike ends at " << to_string(scheduler_.now());
      schedule_next_spike();
    });
  });
}

}  // namespace aqua::net
