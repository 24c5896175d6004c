// The timing fault handler (§5.4) — the client-side gateway protocol
// handler that this paper contributes — on the simulator. The request
// lifecycle (§5.4.1–5.4.2) is core::RequestEngine; this driver joins the
// service group, carries the engine's sends over it, turns its timers
// into Simulator events, feeds it the group's view changes, and charges
// the handler's own processing (OverheadModel) as simulated delay.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "core/policies.h"
#include "core/qos.h"
#include "core/request_engine.h"
#include "net/group.h"
#include "net/lan.h"
#include "sim/simulator.h"

namespace aqua::obs {
class Telemetry;
}  // namespace aqua::obs

namespace aqua::gateway {

/// Cost model for the handler's own processing, charged in simulated time
/// so that the overhead-compensation path (§5.3.3) is exercised
/// deterministically. Calibrated against the fig3 micro-benchmarks: the
/// distribution computation (~90% of delta) scales with n * l^2 atoms,
/// the subset selection (~10%) with n log n.
struct OverheadModel {
  /// Fixed interception + marshalling cost (t0 -> selection start).
  Duration interception = usec(120);
  /// Fixed selection cost.
  Duration base = usec(40);
  /// Added per replica with history.
  Duration per_replica = usec(12);
  /// Added per replica per (window length)^2 convolution atom, in
  /// nanoseconds (the dominant term of the distribution computation).
  double per_atom_ns = 80.0;
  /// Added per replica served from the model cache: a map lookup plus
  /// one cdf evaluation instead of the full convolution.
  Duration per_cached_replica = usec(2);
  /// Added per chunk-request of a coded dispatch: MDS encoding and the
  /// per-copy marshalling that multicast would otherwise share.
  Duration per_chunk = usec(6);

  /// Uncached estimate: every replica pays the convolution term.
  [[nodiscard]] Duration selection_cost(std::size_t replicas, std::size_t window) const;

  /// Split estimate: `convolved` replicas pay the per-atom convolution
  /// term, `cached` replicas only per_cached_replica. The handler uses
  /// the model-cache hit/miss counters of each selection to charge this
  /// form, tightening the delta fed back into §5.3.3's compensation.
  [[nodiscard]] Duration selection_cost(std::size_t convolved, std::size_t cached,
                                        std::size_t window) const;
};

struct HandlerConfig {
  core::RepositoryConfig repository;
  core::SelectionConfig selection;
  core::ModelConfig model;
  core::FailureTrackerConfig failure_tracker;
  OverheadModel overhead;

  /// Speculative-redundancy dispatch (hedging, cancel-on-first-reply,
  /// adaptive redundancy). The default reproduces the paper's full-K
  /// multicast exactly — same events, same randomness, same traces.
  core::DispatchConfig dispatch;

  /// Extension: when a view change leaves a pending request with no live
  /// selected replica, re-run selection and re-send instead of letting
  /// the client wait forever.
  bool redispatch_on_view_change = true;

  /// Requests intercepted before any replica is known wait until the
  /// Announce burst has been quiet for this long, so the cold-start
  /// "select all replicas" really sees all of them (announces from the
  /// initial Subscribe spread over the LAN jitter).
  Duration discovery_settle = msec(1);

  /// §8 extension ("our work can also be extended to use active probes
  /// [5] when a replica's performance information is obsolete"): when
  /// positive, any replica whose repository entry is older than this is
  /// sent a lightweight probe request. Probe outcomes refresh the windows
  /// but never count toward the client's timing statistics. Zero
  /// disables probing.
  Duration probe_staleness = Duration::zero();

  /// Optional telemetry hub (non-owning; must outlive the handler).
  /// When set, the handler mirrors its request lifecycle into gateway.*
  /// metrics, emits one obs::RequestTrace per decided request and one
  /// obs::SelectionTrace per Algorithm-1 run, wraps the policy in the
  /// observed decorator, and attaches the model cache + repository
  /// counters. Null (the default) keeps every instrumented site at one
  /// branch and never perturbs the simulation: telemetry schedules no
  /// events and draws no randomness.
  obs::Telemetry* telemetry = nullptr;
};

/// The engine's reply and record types, under their gateway names.
using ReplyInfo = core::ReplyInfo;
using RequestRecord = core::RequestRecord;

/// The simulation driver of core::RequestEngine: maps its timers onto
/// Simulator events and its sends onto the multicast group, and charges
/// OverheadModel's interception and selection cost as simulated delay.
class TimingFaultHandler {
 public:
  using ReplyCallback = std::function<void(const ReplyInfo&)>;
  /// Invoked when the observed timely fraction drops below the client's
  /// requested minimum probability (§5.4.2).
  using QosViolationCallback = std::function<void(double observed_timely_fraction)>;

  /// Creates the handler's gateway endpoint on `host`, joins the service
  /// group and subscribes to replica performance updates.
  TimingFaultHandler(sim::Simulator& simulator, net::Lan& lan, net::MulticastGroup& group,
                     ClientId client, HostId host, core::QosSpec qos, Rng rng,
                     HandlerConfig config = {}, core::PolicyPtr policy = nullptr);
  ~TimingFaultHandler();

  TimingFaultHandler(const TimingFaultHandler&) = delete;
  TimingFaultHandler& operator=(const TimingFaultHandler&) = delete;

  /// Intercept one client request (t0 = now). `on_reply` fires once, for
  /// the first reply; redundant replies only update the repository.
  RequestId invoke(std::int64_t argument, ReplyCallback on_reply,
                   const std::string& method = core::kDefaultMethod);

  /// Runtime QoS renegotiation (§4); resets the failure tracker.
  void set_qos(core::QosSpec qos) { engine_.set_qos(simulator_.now(), qos); }
  [[nodiscard]] const core::QosSpec& qos() const { return engine_.qos(); }

  void on_qos_violation(QosViolationCallback fn) { on_violation_ = std::move(fn); }

  /// Raw per-request log, in invocation order.
  [[nodiscard]] const std::vector<RequestRecord>& history() const { return history_; }

  // The engine's state. known_replicas: the Announce directory;
  // overhead_delta: the delta of §5.3.3's compensation; td_clamped: raw
  // t_d = t4 - t1 - t_q - t_s below zero (each copy is timed from its own
  // send, so nonzero means clock bases disagree); outstanding_requests:
  // requests and probes in flight to one replica.
  [[nodiscard]] ClientId client() const { return engine_.client(); }
  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }
  [[nodiscard]] const core::InfoRepository& repository() const { return engine_.repository(); }
  [[nodiscard]] const core::TimingFailureTracker& failure_tracker() const {
    return engine_.failure_tracker();
  }
  [[nodiscard]] std::size_t known_replicas() const { return engine_.directory().size(); }
  [[nodiscard]] Duration overhead_delta() const { return engine_.overhead_delta(); }
  [[nodiscard]] std::uint64_t probes_sent() const { return engine_.probes_sent(); }
  [[nodiscard]] std::uint64_t hedges_fired() const { return engine_.hedges_fired(); }
  [[nodiscard]] std::uint64_t cancels_sent() const { return engine_.cancels_sent(); }
  [[nodiscard]] std::uint64_t redispatches() const { return engine_.redispatches(); }
  [[nodiscard]] std::uint64_t td_clamped() const { return engine_.td_clamped(); }
  [[nodiscard]] const core::ModelCache& model_cache() const { return engine_.model_cache(); }
  [[nodiscard]] std::size_t outstanding_requests(ReplicaId replica) const {
    return engine_.outstanding_requests(replica);
  }

 private:
  /// Carry out the engine's actions in order.
  void run(core::Actions& actions);
  /// OverheadModel's price of one selection, plus its SelectionTrace.
  core::DispatchCost selection_cost(const core::SelectionView& view);

  sim::Simulator& simulator_;
  net::Lan& lan_;
  net::MulticastGroup& group_;
  HandlerConfig config_;
  std::vector<RequestRecord> history_;
  core::RequestEngine engine_;
  EndpointId endpoint_;
  std::unordered_map<std::uint64_t, sim::EventHandle> timers_;  // engine timer id -> event
  std::unordered_map<RequestId, ReplyCallback> callbacks_;
  QosViolationCallback on_violation_;
};

// The sibling handlers of §2 as presets of the same engine. Neither runs
// Algorithm 1, so their OverheadModel charges only the interception.

/// AQuA's active handler ([16]): every request goes to every known
/// replica and is delivered once a strict majority of them return one
/// value, masking a value fault as well as a crash. The QoS deadline is
/// `vote_timeout`: a vote still open then is a timing failure, though a
/// majority that forms later is still delivered, untimely. A vote split
/// at its last reply fails at once and delivers nothing (its history()
/// record keeps no response_time). Replicas lost to a view change are
/// not replaced.
std::unique_ptr<TimingFaultHandler> make_voting_handler(sim::Simulator& simulator, net::Lan& lan,
                                                        net::MulticastGroup& group, ClientId client,
                                                        HostId host, Duration vote_timeout = sec(2));

/// AQuA's passive handler ([17]): every request goes to the primary, the
/// lowest-id known replica, alone. When a view change removes it, the
/// engine's redispatch fails its requests over to the next id.
std::unique_ptr<TimingFaultHandler> make_passive_handler(sim::Simulator& simulator, net::Lan& lan,
                                                         net::MulticastGroup& group,
                                                         ClientId client, HostId host);

}  // namespace aqua::gateway
