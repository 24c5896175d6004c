#include "runtime/threaded_replica.h"

#include "runtime/timer_slack.h"

namespace aqua::runtime {

ThreadedReplica::ThreadedReplica(ReplicaId id, replica::ServiceModelPtr service, Rng rng,
                                 net::Transport& transport, const EndpointFactory& factory,
                                 replica::ReplicaConfig config)
    : transport_(transport),
      core_(id, std::move(service), std::move(rng), std::move(config)) {
  // Intake and the worker start only after the core is built, so neither
  // races its initialisation; the worker also finds endpoint_ set.
  endpoint_ = factory(
      [this](EndpointId from, const net::Payload& message) { on_receive(from, message); });
  thread_ = std::thread([this] { worker(); });
}

ThreadedReplica::ThreadedReplica(ReplicaId id, replica::ServiceModelPtr service, Rng rng,
                                 net::Transport& transport, HostId host,
                                 replica::ReplicaConfig config)
    : ThreadedReplica(
          id, std::move(service), std::move(rng), transport,
          [&transport, host](net::ReceiveFn fn) {
            return transport.create_endpoint(host, std::move(fn));
          },
          std::move(config)) {}

ThreadedReplica::~ThreadedReplica() {
  shutdown();
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void ThreadedReplica::shutdown() {
  if (!shut_down_.exchange(true)) transport_.destroy_endpoint(endpoint_);
}

bool ThreadedReplica::submit(const proto::Request& request, EndpointId reply_to,
                             obs::SpanContext span) {
  // t2 is read under the mutex, so admission times never go back even
  // when several threads submit: the core's queue stays in t2 order.
  std::unique_lock lock(mutex_);
  if (!core_.admit(steady_now(), request, reply_to, span)) return false;
  lock.unlock();
  work_.notify_one();
  return true;
}

void ThreadedReplica::on_receive(EndpointId from, const net::Payload& message) {
  if (const auto* request = message.get_if<proto::Request>()) {
    submit(*request, from, message.span());
  } else if (const auto* cancel = message.get_if<proto::Cancel>()) {
    // Only queued copies are in reach; one the worker already started
    // keeps its reply, and the client drops it. Whichever side takes the
    // mutex first decides, and both outcomes are legal protocol states.
    std::lock_guard lock(mutex_);
    core_.cancel(cancel->request, cancel->client);
  } else if (message.get_if<proto::Subscribe>() != nullptr) {
    {
      std::lock_guard lock(mutex_);
      core_.subscribe(from);
    }
    transport_.unicast(endpoint_, from,
                       net::Payload::make(proto::Announce{id(), endpoint_}, proto::kAnnounceBytes));
  }
}

void ThreadedReplica::crash() {
  std::unique_lock lock(mutex_);
  if (core_.alive()) core_.crash();
  lock.unlock();
  work_.notify_one();
}

void ThreadedReplica::worker() {
  use_precise_timers();
  std::unique_lock lock(mutex_);
  for (;;) {
    work_.wait(lock, [this] { return stopping_ || !core_.alive() || core_.queue_length() > 0; });
    if (stopping_ || !core_.alive()) return;
    // A copy that waited starts when the previous one ended (the core's
    // FIFO-server rule), so the end below may already have passed: the
    // late wake-up and the reply send of the previous copy then ran
    // during this copy's service instead of before it.
    const TimePoint t3 = *core_.start(steady_now());
    const TimePoint end = t3 + core_.begin_service(t3);
    lock.unlock();
    // Sleep to an absolute end, so the draw alone is the reported t_s and
    // the bookkeeping above does not add to it.
    std::this_thread::sleep_until(to_steady(end));
    lock.lock();
    if (stopping_ || !core_.alive()) return;  // crashed mid-service: never reply
    replica::ReplicaCore::Finished done = core_.finish();
    lock.unlock();
    const TimePoint departure = steady_now();
    // The wall-clock Lan and UdpTransport accept sends from any thread.
    if (done.reply_to != EndpointId{}) {
      transport_.unicast(endpoint_, done.reply_to, std::move(done.reply));
    }
    if (!done.perf_targets.empty()) {
      transport_.multicast(endpoint_, done.perf_targets, std::move(done.perf_update));
    }
    lock.lock();
    core_.reply_departed(end, departure);
  }
}

}  // namespace aqua::runtime
