// Wall-clock client handler: the paper's selection loop over real threads.
//
// invoke() runs the same pipeline as the simulated timing fault handler —
// observe repository, select with Algorithm 1 (delta measured from the
// REAL wall clock, as the paper's implementation does), fan the request
// out over a net::Transport (LocalTransport in process, UdpTransport
// across processes), deliver the first reply, harvest performance data
// from every reply — and blocks until the first reply or a give-up
// timeout.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/failure_tracker.h"
#include "core/info_repository.h"
#include "core/policies.h"
#include "core/qos.h"
#include "core/selection.h"
#include "net/transport.h"
#include "proto/messages.h"

namespace aqua::obs {
class Counter;
class Histogram;
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
    /// Wall-clock cost of model + selection for this invocation.
    Duration selection_overhead{};
    /// True when the dispatch plan split K (hedged mode, warm history).
    bool hedged = false;
    /// True when the hedge timer expired and the backup copies were sent.
    bool hedge_fired = false;
    /// Cancels sent to still-pending replicas after the completing reply.
    std::size_t cancels_sent = 0;
    /// Coded dispatch: distinct chunks required (0 = uncoded) and
    /// distinct chunk-replies collected by the time invoke() returned.
    std::uint32_t code_k = 0;
    std::size_t chunks_received = 0;
  };

  /// `config.transport` must be set. The client starts with no replicas.
  ThreadedClient(core::QosSpec qos, Rng rng, ThreadedClientConfig config);
  ~ThreadedClient();

  ThreadedClient(const ThreadedClient&) = delete;
  ThreadedClient& operator=(const ThreadedClient&) = delete;

  /// Issue one request and block for the first reply (or give up).
  Outcome invoke(std::int64_t argument);

  /// Remove a crashed replica from consideration (the runtime analogue of
  /// the membership view change).
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
  [[nodiscard]] const core::QosSpec& qos() const { return qos_; }

  /// Stop message intake: destroy the transport endpoint, waiting out a
  /// delivery in progress — after this no message can touch this client.
  /// Part of ThreadedSystem's phased teardown, called before replica
  /// threads are joined. Idempotent.
  void shutdown();

  /// Snapshot accessors (thread-safe).
  [[nodiscard]] double timely_fraction() const;
  [[nodiscard]] bool qos_violated() const;
  [[nodiscard]] std::size_t known_replicas() const;

  /// Lifetime dispatch counters (thread-safe).
  [[nodiscard]] std::uint64_t hedges_fired() const {
    return hedges_fired_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cancels_sent() const {
    return cancels_sent_.load(std::memory_order_relaxed);
  }
  /// Gateway-delay samples whose raw t_d was negative and got floored.
  [[nodiscard]] std::uint64_t td_clamped() const {
    return td_clamped_.load(std::memory_order_relaxed);
  }

 private:
  struct RequestState;
  /// Host-eviction relay shared with the transport's subscriber list:
  /// the transport cannot unsubscribe, so the callback goes through this
  /// block and the destructor severs `client` under its mutex.
  struct HostEvictRelay {
    std::mutex mutex;
    ThreadedClient* client = nullptr;
  };

  void on_receive(EndpointId from, const net::Payload& message);
  /// Harvest a piggybacked sample into the repository. Caller holds mutex_.
  void record_perf(ReplicaId replica, const proto::PerfData& perf, const std::string& method);
  void evict_host(HostId host);

  core::QosSpec qos_;
  Rng rng_;
  ThreadedClientConfig config_;
  /// Shared with selector_'s model; guarded by mutex_ like the repository
  /// (selection only ever runs under the lock).
  std::shared_ptr<core::ModelCache> model_cache_;
  core::ReplicaSelector selector_;

  mutable std::mutex mutex_;  // guards repository_, tracker_, overhead_, rng_
  core::InfoRepository repository_;
  core::TimingFailureTracker tracker_;
  core::OverheadEstimator overhead_;
  std::uint64_t next_request_ = 1;

  /// peer_replicas_ and outstanding_ are guarded by mutex_; the endpoint
  /// is created in the constructor and destroyed by shutdown().
  net::Transport* transport_ = nullptr;
  EndpointId endpoint_{};
  std::atomic<bool> endpoint_destroyed_{false};
  std::unordered_map<ReplicaId, EndpointId> peer_replicas_;
  std::unordered_map<RequestId, std::shared_ptr<RequestState>> outstanding_;
  std::shared_ptr<HostEvictRelay> evict_relay_;

  /// Alert edge state (guarded by mutex_): the last reported
  /// QoS-violation level, for violation/recovery edge detection.
  bool violation_reported_ = false;

  std::atomic<std::uint64_t> hedges_fired_{0};
  std::atomic<std::uint64_t> cancels_sent_{0};
  std::atomic<std::uint64_t> td_clamped_{0};

  /// Null unless telemetry is attached; safe to update without mutex_
  /// (counters and histograms are internally atomic).
  obs::Telemetry* obs_ = nullptr;
  /// Non-null only when telemetry is attached and spans are enabled.
  obs::Telemetry* span_sink_ = nullptr;
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* answered_counter_ = nullptr;
  obs::Counter* timely_counter_ = nullptr;
  obs::Counter* timing_failures_counter_ = nullptr;
  obs::Counter* cold_starts_counter_ = nullptr;
  obs::Histogram* response_time_histogram_ = nullptr;
  obs::Histogram* selection_overhead_histogram_ = nullptr;
  obs::Counter* td_clamped_counter_ = nullptr;
};

}  // namespace aqua::runtime
