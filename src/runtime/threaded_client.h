// Wall-clock client handler: the threaded driver of core::RequestEngine,
// over a net::Transport (a wall-clock net::Lan in process, UdpTransport
// across processes), with delta measured from the REAL wall clock as in the
// paper's implementation. invoke() blocks until the completing reply or
// a give-up timeout. No thread of its own runs the engine's timers: a
// blocked invoke() sleeps until its delivery or the engine's next timer,
// and runs every timer that is due; timers that outlive their caller
// (state reclamation) run at the next invoke or message.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/request_engine.h"
#include "net/transport.h"

namespace aqua::obs {
class Telemetry;
}  // namespace aqua::obs

namespace aqua::runtime {

struct ThreadedClientConfig {
  core::RepositoryConfig repository;
  core::SelectionConfig selection;
  core::ModelConfig model;
  core::FailureTrackerConfig failure_tracker;
  /// invoke() returns unanswered after deadline * this factor.
  int give_up_deadline_factor = 4;

  /// Speculative-redundancy dispatch (hedged requests, cancel-on-first-
  /// reply, adaptive trimming). The default is the paper's full-K
  /// multicast: invoke() then takes the identity path with no extra
  /// model evaluation or rng draws.
  core::DispatchConfig dispatch;

  /// Identity used for trace ids (obs/span.h packs client + request into
  /// one id, so two clients sharing a hub must have distinct ids).
  /// ThreadedSystem::add_client assigns these automatically.
  ClientId id{};

  /// Optional telemetry hub (non-owning; must outlive the client). The
  /// threaded.* counters and histograms are updated from whichever
  /// threads call invoke() — several clients sharing one hub exercise the
  /// registry's concurrency guarantees. Null keeps every site at one
  /// branch.
  obs::Telemetry* telemetry = nullptr;

  /// Required (non-owning; must outlive the client, and accept sends from
  /// any thread). The client creates its own endpoint on `host` and
  /// invoke() multicasts requests over it. Replicas are discovered via
  /// add_peer_replica() or the Subscribe/Announce handshake, and a host
  /// reported dead by the transport is evicted like a membership view
  /// change.
  net::Transport* transport = nullptr;
  HostId host{};
};

class ThreadedClient {
 public:
  struct Outcome {
    bool answered = false;
    bool timely = false;
    Duration response_time{};
    std::size_t redundancy = 0;
    bool cold_start = false;
    ReplicaId first_replica{};
    std::int64_t result = 0;
    /// The rest mirror core::RequestRecord as of delivery (or give-up);
    /// selection_overhead is its wall-clock selection_delta.
    Duration selection_overhead{};
    bool hedged = false;
    bool hedge_fired = false;
    std::size_t cancels_sent = 0;
    std::uint32_t code_k = 0;
    std::size_t chunks_received = 0;
  };

  /// `config.transport` must be set. The client starts with no replicas.
  ThreadedClient(core::QosSpec qos, Rng rng, ThreadedClientConfig config);
  ~ThreadedClient();

  ThreadedClient(const ThreadedClient&) = delete;
  ThreadedClient& operator=(const ThreadedClient&) = delete;

  /// Issue one request and block for the completing reply (or give up).
  Outcome invoke(std::int64_t argument);

  /// Remove a crashed replica from consideration: a membership view
  /// change, so requests it leaves unable to complete are redispatched.
  void remove_replica(ReplicaId id);

  /// The client's own endpoint on the transport.
  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }

  /// Make `replica`, reachable at `endpoint`, a selection candidate.
  /// Idempotent per replica (later calls update the endpoint).
  void add_peer_replica(ReplicaId replica, EndpointId endpoint);

  /// Send a Subscribe to a peer endpoint; its Announce reply runs
  /// add_peer_replica with the replica behind that address.
  void subscribe_to(EndpointId peer);

  void set_qos(core::QosSpec qos);
  [[nodiscard]] core::QosSpec qos() const {
    return locked([](const Engine& e) { return e.qos(); });
  }

  /// Stop message intake: destroy the transport endpoint, waiting out a
  /// delivery in progress — after this no message can touch this client.
  /// Part of ThreadedSystem's phased teardown, called before replica
  /// threads are joined. Idempotent.
  void shutdown();

  /// Snapshots of the engine's state and lifetime counters (thread-safe).
  [[nodiscard]] double timely_fraction() const {
    return locked([](const Engine& e) { return e.failure_tracker().timely_fraction(); });
  }
  [[nodiscard]] bool qos_violated() const {
    return locked(
        [](const Engine& e) { return e.failure_tracker().violates(e.qos().min_probability); });
  }
  [[nodiscard]] std::size_t known_replicas() const {
    return locked([](const Engine& e) { return e.directory().size(); });
  }
  [[nodiscard]] std::uint64_t hedges_fired() const { return locked(&Engine::hedges_fired); }
  [[nodiscard]] std::uint64_t cancels_sent() const { return locked(&Engine::cancels_sent); }
  /// Gateway-delay samples whose raw t_d was negative and got floored.
  [[nodiscard]] std::uint64_t td_clamped() const { return locked(&Engine::td_clamped); }

 private:
  /// One blocked invoke(), filled in by the engine's actions.
  struct Waiter;
  /// What a pass under mutex_ leaves for after the unlock: the sends, and
  /// the callers to wake (woken unlocked, so they do not wake only to
  /// block on the mutex).
  struct Outbox {
    core::Actions sends;
    std::vector<std::shared_ptr<Waiter>> wake;
  };
  /// Host-eviction relay shared with the transport's subscriber list:
  /// the transport cannot unsubscribe, so the callback goes through this
  /// block and the destructor severs `client` under its mutex.
  struct HostEvictRelay {
    std::mutex mutex;
    ThreadedClient* client = nullptr;
  };
  using Engine = core::RequestEngine;
  using TimerKey = std::pair<TimePoint, std::uint64_t>;

  /// Read the engine under mutex_; `read` returns by value.
  template <typename Read>
  std::invoke_result_t<Read, const Engine&> locked(Read read) const {
    std::lock_guard lock(mutex_);
    return std::invoke(read, engine_);
  }
  void on_receive(EndpointId from, const net::Payload& message);
  void evict_host(HostId host);
  /// Feed one event to the engine (under mutex_) and run every timer now
  /// due; the sends it produced leave after the lock is released.
  template <typename Event>
  void drive(Event&& event);
  /// Carry out actions under mutex_, leaving sends and wake-ups in `out`.
  void apply(core::Actions& actions, Outbox& out);
  /// Fire every timer due by now. Caller holds mutex_.
  void run_due_timers(Outbox& out);
  /// Transmit the sends and wake the callers. Caller must NOT hold mutex_.
  void flush(Outbox& out);

  ThreadedClientConfig config_;
  net::Transport* transport_ = nullptr;

  mutable std::mutex mutex_;  // guards everything below up to the endpoint
  core::RequestEngine engine_;
  core::Actions scratch_;
  /// Timers due at once; timers a waiting caller sleeps for; and the
  /// ones only reclaiming state (kGc), which run at the next event
  /// instead of waking anyone.
  std::deque<core::Timer> immediate_;
  std::map<TimerKey, core::Timer> wake_timers_;
  std::deque<core::Timer> gc_timers_;
  std::unordered_map<RequestId, std::shared_ptr<Waiter>> waiters_;

  /// Created in the constructor and destroyed by shutdown().
  EndpointId endpoint_{};
  std::atomic<bool> endpoint_destroyed_{false};
  std::shared_ptr<HostEvictRelay> evict_relay_;
};

}  // namespace aqua::runtime
