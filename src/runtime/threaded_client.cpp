#include "runtime/threaded_client.h"

#include <algorithm>
#include <condition_variable>
#include <variant>

#include "common/assert.h"

namespace aqua::runtime {

namespace {

core::EngineConfig engine_config(const ThreadedClientConfig& config) {
  core::EngineConfig engine;
  engine.repository = config.repository;
  // The threaded runtime always guards against stale samples: UDP (and
  // LocalTransport's jittered in-process hops) can reorder replies, and
  // unlike the sim there is no bit-identity contract to preserve.
  engine.repository.reject_stale_samples = true;
  engine.selection = config.selection;
  engine.model = config.model;
  engine.failure_tracker = config.failure_tracker;
  engine.dispatch = config.dispatch;
  // delta is the wall-clock cost of the selection itself (§5.3.3), read
  // when the engine prices it; the copies then leave at once.
  engine.selection_cost = [](const core::SelectionView& view) {
    return core::DispatchCost{steady_now() - view.at, Duration::zero()};
  };
  engine.telemetry = config.telemetry;
  engine.metrics_prefix = "threaded";
  return engine;
}

}  // namespace

struct ThreadedClient::Waiter {
  std::condition_variable cv;
  bool delivered = false;
  /// The engine retired the request undelivered: nothing can deliver it.
  bool dropped = false;
  core::ReplyInfo info;
  /// The record as of delivery, else as of the outcome (the deadline).
  core::RequestRecord record;
};

ThreadedClient::ThreadedClient(core::QosSpec qos, Rng rng, ThreadedClientConfig config)
    : config_(config),
      transport_(config.transport),
      engine_(config.id, qos, std::move(rng), engine_config(config)) {
  AQUA_REQUIRE(transport_ != nullptr, "threaded client needs a transport");
  AQUA_REQUIRE(config_.give_up_deadline_factor >= 1, "give-up factor must be >= 1");
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

template <typename Event>
void ThreadedClient::drive(Event&& event) {
  Outbox out;
  {
    std::lock_guard lock(mutex_);
    scratch_.clear();
    event(steady_now(), scratch_);
    apply(scratch_, out);
    run_due_timers(out);
  }
  flush(out);
}

void ThreadedClient::apply(core::Actions& actions, Outbox& out) {
  for (core::Action& action : actions) {
    if (auto* arm = std::get_if<core::ArmTimer>(&action)) {
      const core::Timer& timer = arm->timer;
      switch (timer.kind) {
        case core::TimerKind::kSelect:
        case core::TimerKind::kTransmit:
          // Due at once (no modelled interception or selection cost here);
          // the arming thread runs them before it unlocks.
          immediate_.push_back(timer);
          continue;
        case core::TimerKind::kGc:
          // Armed t0 + 10 deadlines, so nearly in order; reclamation may
          // lag a little when the QoS shrinks, which costs only memory.
          gc_timers_.push_back(timer);
          continue;
        default:
          break;
      }
      // A new earliest timer may precede what every caller sleeps for.
      auto it = wake_timers_.emplace(TimerKey{timer.at, timer.id}, timer).first;
      if (it == wake_timers_.begin()) {
        for (auto& [id, waiter] : waiters_) out.wake.push_back(waiter);
      }
    } else if (auto* stop = std::get_if<core::CancelTimer>(&action)) {
      wake_timers_.erase(TimerKey{stop->timer.at, stop->timer.id});
    } else if (auto* deliver = std::get_if<core::Deliver>(&action)) {
      auto it = waiters_.find(deliver->info.request);
      if (it == waiters_.end()) continue;  // the caller gave up
      Waiter& waiter = *it->second;
      waiter.delivered = true;
      waiter.info = deliver->info;
      waiter.record = deliver->record;
      out.wake.push_back(it->second);
    } else if (auto* outcome = std::get_if<core::Outcome>(&action)) {
      auto it = waiters_.find(outcome->record.request);
      if (it == waiters_.end()) continue;
      it->second->record = outcome->record;
      // Failed fast (a split vote, a coded request left short): decided
      // undelivered and already retired, so the caller need not wait out
      // its give-up bound. A request decided at its deadline that is still
      // live keeps its caller waiting for a late reply.
      if (!outcome->record.response_time &&
          engine_.find_record(outcome->record.request) == nullptr) {
        it->second->dropped = true;
        out.wake.push_back(it->second);
      }
    } else if (std::holds_alternative<core::SendRequest>(action) ||
               std::holds_alternative<core::SendCancel>(action) ||
               std::holds_alternative<core::SendSubscribe>(action)) {
      out.sends.push_back(std::move(action));
    }
    // QosViolation: the engine's alert is the threaded runtime's signal.
  }
}

void ThreadedClient::run_due_timers(Outbox& out) {
  for (;;) {
    const TimePoint now = steady_now();
    core::Timer timer;
    if (!immediate_.empty()) {
      timer = immediate_.front();
      immediate_.pop_front();
    } else if (!wake_timers_.empty() && wake_timers_.begin()->first.first <= now) {
      timer = wake_timers_.begin()->second;
      wake_timers_.erase(wake_timers_.begin());
    } else if (!gc_timers_.empty() && gc_timers_.front().at <= now) {
      timer = gc_timers_.front();
      gc_timers_.pop_front();
    } else {
      return;
    }
    scratch_.clear();
    engine_.on_timer(now, timer, scratch_);
    apply(scratch_, out);
  }
}

void ThreadedClient::flush(Outbox& out) {
  for (core::Action& action : out.sends) {
    if (endpoint_destroyed_.load()) break;
    if (auto* send = std::get_if<core::SendRequest>(&action)) {
      if (send->targets.empty()) continue;
      auto payload_of = [&send](const proto::Request& request) {
        net::Payload payload = net::Payload::make(request, proto::kRequestBytes);
        if (send->span.valid()) payload.set_span(send->span);
        return payload;
      };
      if (send->chunks.empty()) {
        transport_->multicast(endpoint_, send->targets, payload_of(send->request));
        continue;
      }
      for (std::size_t i = 0; i < send->targets.size(); ++i) {
        proto::Request copy = send->request;
        copy.chunk = send->chunks[i];
        transport_->unicast(endpoint_, send->targets[i], payload_of(copy));
      }
    } else if (auto* cancel = std::get_if<core::SendCancel>(&action)) {
      transport_->multicast(endpoint_, cancel->targets,
                            net::Payload::make(cancel->cancel, proto::kCancelBytes));
    } else if (auto* subscribe = std::get_if<core::SendSubscribe>(&action)) {
      // The replica pushes its PerfUpdates for other clients' requests.
      subscribe_to(subscribe->target);
    }
  }
  for (const std::shared_ptr<Waiter>& waiter : out.wake) waiter->cv.notify_one();
  out.sends.clear();
  out.wake.clear();
}

void ThreadedClient::add_peer_replica(ReplicaId replica, EndpointId endpoint) {
  drive([&](TimePoint now, core::Actions& out) {
    engine_.on_announce(now, replica, endpoint, out);
  });
}

void ThreadedClient::subscribe_to(EndpointId peer) {
  transport_->unicast(endpoint_, peer,
                      net::Payload::make(proto::Subscribe{config_.id, endpoint_},
                                         proto::kSubscribeBytes));
}

void ThreadedClient::on_receive(EndpointId from, const net::Payload& message) {
  if (const auto* reply = message.get_if<proto::Reply>()) {
    drive([&](TimePoint now, core::Actions& out) { engine_.on_reply(now, *reply, out); });
  } else if (const auto* announce = message.get_if<proto::Announce>()) {
    // The announced endpoint id is meaningless outside the replica's own
    // process; the sender handle is how WE reach it.
    add_peer_replica(announce->replica, from);
  } else if (const auto* update = message.get_if<proto::PerfUpdate>()) {
    drive([&](TimePoint now, core::Actions&) { engine_.on_perf_update(now, *update); });
  }
}

void ThreadedClient::evict_host(HostId host) {
  drive([&](TimePoint now, core::Actions& out) {
    std::vector<EndpointId> departed;
    for (const auto& [replica, endpoint] : engine_.directory()) {
      if (transport_->endpoint_exists(endpoint) && transport_->endpoint_host(endpoint) == host) {
        departed.push_back(endpoint);
      }
    }
    engine_.on_view_change(now, departed, out);
  });
}

void ThreadedClient::remove_replica(ReplicaId id) {
  drive([&](TimePoint now, core::Actions& out) {
    auto it = engine_.directory().find(id);
    if (it == engine_.directory().end()) return;
    const EndpointId departed = it->second;
    engine_.on_view_change(now, std::span<const EndpointId>(&departed, 1), out);
  });
}

ThreadedClient::Outcome ThreadedClient::invoke(std::int64_t argument) {
  const auto waiter = std::make_shared<Waiter>();
  Outbox out;
  std::unique_lock lock(mutex_);
  const TimePoint t0 = steady_now();
  scratch_.clear();
  const RequestId id = engine_.invoke(t0, argument, core::kDefaultMethod, scratch_);
  const TimePoint give_up = t0 + engine_.qos().deadline * config_.give_up_deadline_factor;
  waiters_.emplace(id, waiter);
  apply(scratch_, out);
  // Run due timers (selection and transmission come due at once), send
  // outside the lock, and sleep until the completing reply, the next
  // timer or the give-up bound. The bound also covers the coded stall
  // path: k−1 chunks then silence returns unanswered instead of hanging.
  for (;;) {
    run_due_timers(out);
    if (!out.sends.empty() || !out.wake.empty()) {
      lock.unlock();
      flush(out);
      lock.lock();
      continue;
    }
    if (waiter->delivered || waiter->dropped || steady_now() >= give_up) break;
    TimePoint wake = give_up;
    if (!wake_timers_.empty()) wake = std::min(wake, wake_timers_.begin()->first.first);
    waiter->cv.wait_until(lock, to_steady(wake));
  }
  waiters_.erase(id);
  if (!waiter->delivered) {
    if (const core::RequestRecord* live = engine_.find_record(id)) waiter->record = *live;
  }
  lock.unlock();

  const core::RequestRecord& record = waiter->record;
  return {.answered = waiter->delivered,
          .timely = waiter->delivered && waiter->info.timely,
          .response_time = waiter->delivered ? waiter->info.response_time : steady_now() - t0,
          .redundancy = record.redundancy,
          .cold_start = record.cold_start,
          .first_replica = waiter->info.replica,
          .result = waiter->info.result,
          .selection_overhead = record.selection_delta,
          .hedged = record.hedged,
          .hedge_fired = record.hedge_fired,
          .cancels_sent = record.cancels_sent,
          .code_k = record.code_k,
          .chunks_received = record.chunks_received};
}

void ThreadedClient::set_qos(core::QosSpec qos) {
  std::lock_guard lock(mutex_);
  engine_.set_qos(steady_now(), qos);
}

}  // namespace aqua::runtime
