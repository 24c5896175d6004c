// The request lifecycle of the timing fault handler (§5.4.1–5.4.2) as a
// sans-IO state machine (https://sans-io.readthedocs.io/): intercept at
// t0, select with Algorithm 1, plan the transmission (multicast, hedged
// or coded), deliver the completing reply, harvest t_s, t_q and
// t_d = t4 - t1 - t_q - t_s from EVERY reply (each copy timed from its
// own send) and count timing failures. The engine never reads a clock,
// sleeps, sends or schedules: every input carries `now`, and every effect
// comes back as an Action for the driver to carry out in order.
// gateway::TimingFaultHandler drives it on sim::Simulator events;
// runtime::ThreadedClient on caller threads and a net::Transport.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "core/completion.h"
#include "core/failure_tracker.h"
#include "core/info_repository.h"
#include "core/model_cache.h"
#include "core/policies.h"
#include "core/qos.h"
#include "core/selection.h"
#include "obs/alerts.h"
#include "obs/span.h"
#include "proto/messages.h"

namespace aqua::obs {
class Counter;
class Histogram;
class Telemetry;
}  // namespace aqua::obs

namespace aqua::core {

/// Delivered to the application for the completing reply of a request.
struct ReplyInfo {
  RequestId request;
  ReplicaId replica;
  std::int64_t result = 0;
  Duration response_time{};  // t_r = t4 - t0
  bool timely = false;
};

/// One request's record (experiment raw data).
struct RequestRecord {
  RequestId request;
  TimePoint intercepted_at{};  // t0
  TimePoint transmitted_at{};  // t1
  QosSpec qos;
  std::size_t redundancy = 0;  // |K|
  bool cold_start = false;
  bool feasible = false;
  double predicted_probability = 0.0;
  bool redispatched = false;
  bool probe = false;        // a staleness probe, outside client statistics
  bool hedged = false;       // K split: the rest held behind the hedge timer
  bool hedge_fired = false;  // ... and the held-back members were sent
  std::size_t cancels_sent = 0;  // after the completing reply
  /// Coded dispatch: distinct chunks required (0 = uncoded). Any armed
  /// predicate: distinct chunks or repliers collected.
  std::uint32_t code_k = 0;
  std::size_t chunks_received = 0;
  Duration selection_delta{};  // delta charged for the latest selection
  std::optional<Duration> response_time;  // empty until delivery
  bool timely = false;
};

enum class TimerKind : std::uint8_t {
  kSelect,    ///< interception elapsed: run Algorithm 1
  kTransmit,  ///< selection cost elapsed: send the planned copies (t1)
  kDeadline,  ///< t0 + t: a timing failure unless the outcome is decided
  kHedge,     ///< release the held-back members of K
  kGc,        ///< t0 + 10 t: reclaim the request's state
  kSettle,    ///< the Announce burst went quiet: dispatch parked requests
  kProbe,     ///< staleness-probe scan (probe_staleness > 0)
};

/// A timer the driver fires by calling on_timer(now >= at, timer). A
/// cancelled timer must never be fired.
struct Timer {
  std::uint64_t id = 0;  // 0 = none
  TimePoint at{};
  TimerKind kind = TimerKind::kSelect;
  RequestId request{};  // none for kSettle and kProbe
};

/// One multicast body to every target, or (coded) target i its own copy
/// with chunk index chunks[i].
struct SendRequest {
  proto::Request request;
  std::vector<EndpointId> targets;
  std::vector<std::uint32_t> chunks;
  obs::SpanContext span;  // invalid when spans are off
};
struct SendCancel {
  proto::Cancel cancel;
  std::vector<EndpointId> targets;
};
/// Ask a newly announced replica to push its performance updates to us.
struct SendSubscribe {
  EndpointId target;
};
struct ArmTimer {
  Timer timer;
};
struct CancelTimer {
  Timer timer;
};
/// The completing reply of a client request (never of a probe).
struct Deliver {
  ReplyInfo info;
  RequestRecord record;
};
/// The timely fraction fell below the client's requested minimum (§5.4.2).
struct QosViolation {
  double observed_timely_fraction = 0.0;
};
/// The request's outcome was decided: at its completing reply or at its
/// deadline, whichever came first.
struct Outcome {
  RequestRecord record;
};

using Action = std::variant<SendRequest, SendCancel, SendSubscribe, ArmTimer, CancelTimer, Deliver,
                            QosViolation, Outcome>;
using Actions = std::vector<Action>;

/// What the driver's cost function sees of one Algorithm-1 run.
struct SelectionView {
  RequestId request;
  TimePoint at{};
  bool redispatch = false;
  const QosSpec& qos;
  Duration delta_used{};
  const SelectionResult& selection;
  std::span<const ReplicaId> selected;  // K, dataless bootstrap included
  /// Replicas with history the model re-convolved vs served from its
  /// cache (a policy bypassing the cache counts all as convolved).
  std::size_t convolved = 0;
  std::size_t cached = 0;
  std::size_t coded_copies = 0;  // chunk-requests (0 when uncoded)
  /// Model-cache traffic of selection plus dispatch planning.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

struct DispatchCost {
  Duration delta{};           // fed back into §5.3.3's compensation
  Duration transmit_after{};  // selection -> t1
};

using SelectionCostFn = std::function<DispatchCost(const SelectionView&)>;

struct EngineConfig {
  RepositoryConfig repository;
  SelectionConfig selection;
  ModelConfig model;
  FailureTrackerConfig failure_tracker;
  DispatchConfig dispatch;
  /// The fields below mean what HandlerConfig's do.
  bool redispatch_on_view_change = true;
  Duration discovery_settle = msec(1);
  Duration probe_staleness = Duration::zero();
  Duration interception = Duration::zero();  // t0 -> selection start
  /// Prices each selection; unset charges nothing and transmits at once.
  SelectionCostFn selection_cost;
  /// When set, every request's record lives here, in invocation order.
  std::vector<RequestRecord>* history = nullptr;
  /// Optional hub (non-owning); metrics are named `<metrics_prefix>.*`.
  obs::Telemetry* telemetry = nullptr;
  std::string metrics_prefix = "gateway";
};

class RequestEngine {
 public:
  RequestEngine(ClientId client, QosSpec qos, Rng rng, EngineConfig config,
                PolicyPtr policy = nullptr);

  RequestEngine(const RequestEngine&) = delete;
  RequestEngine& operator=(const RequestEngine&) = delete;

  /// Arms the first staleness-probe scan, if probing is on.
  void start(TimePoint now, Actions& out);

  /// Intercept one client request (t0 = now).
  RequestId invoke(TimePoint now, std::int64_t argument, const std::string& method, Actions& out);

  void on_reply(TimePoint now, const proto::Reply& reply, Actions& out);
  void on_perf_update(TimePoint now, const proto::PerfUpdate& update);
  /// `replica` is reachable at `endpoint` (a restart may move it).
  void on_announce(TimePoint now, ReplicaId replica, EndpointId endpoint, Actions& out);
  /// The replicas at `departed` are gone (other endpoints are ignored).
  void on_view_change(TimePoint now, std::span<const EndpointId> departed, Actions& out);
  void on_timer(TimePoint now, const Timer& timer, Actions& out);

  /// Runtime QoS renegotiation (§4); resets the failure tracker.
  void set_qos(TimePoint now, QosSpec qos);

  [[nodiscard]] ClientId client() const { return client_; }
  [[nodiscard]] const QosSpec& qos() const { return qos_; }
  [[nodiscard]] const InfoRepository& repository() const { return repository_; }
  [[nodiscard]] const TimingFailureTracker& failure_tracker() const { return tracker_; }
  [[nodiscard]] const ModelCache& model_cache() const { return *model_cache_; }
  [[nodiscard]] Duration overhead_delta() const { return overhead_.current(); }
  /// The Announce directory: replica -> endpoint.
  [[nodiscard]] const std::unordered_map<ReplicaId, EndpointId>& directory() const {
    return replica_endpoints_;
  }
  /// The live record of a pending request, or null once it is retired.
  [[nodiscard]] const RequestRecord* find_record(RequestId id) const;

  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }
  [[nodiscard]] std::uint64_t hedges_fired() const { return hedges_fired_; }
  [[nodiscard]] std::uint64_t cancels_sent() const { return cancels_sent_; }
  /// Re-selections after a view change left a request short of replies.
  [[nodiscard]] std::uint64_t redispatches() const { return redispatches_; }
  /// Gateway-delay samples whose raw t_d was negative and got floored.
  [[nodiscard]] std::uint64_t td_clamped() const { return td_clamped_; }

  /// Requests and probes currently in flight to `replica`.
  [[nodiscard]] std::size_t outstanding_requests(ReplicaId replica) const {
    auto it = outstanding_.find(replica);
    return it == outstanding_.end() ? 0 : it->second;
  }

 private:
  /// One copy in flight, for its own t_d.
  struct CopySent {
    ReplicaId replica;
    std::uint32_t chunk = 0;
    TimePoint at{};
  };
  /// A selection waiting for its transmit timer.
  struct PlannedTransmit {
    std::uint64_t timer = 0;
    TimePoint dispatch_start{};
    bool hedged = false;
    Duration hedge_delay{};
    std::vector<ReplicaId> primary;
    std::vector<std::uint32_t> chunks;
  };
  struct PendingRequest {
    RequestId id;
    std::size_t record_index = 0;  // into config.history, when set
    RequestRecord record;          // otherwise
    TimePoint t0{};
    TimePoint t1{};
    QosSpec qos;
    std::string method;
    std::int64_t argument = 0;
    std::vector<ReplicaId> awaiting;  // copies sent and not yet answered
    bool dispatched = false;          // selection ran with a non-empty directory
    bool delivered = false;
    bool outcome_recorded = false;
    bool is_probe = false;
    Timer deadline_timer;
    std::vector<ReplicaId> hedge_set;  // held back, not awaited until fired
    Timer hedge_timer;
    std::vector<PlannedTransmit> transmits;
    std::vector<CopySent> copies;
    /// Unarmed it is first-of-n; a non-default plan arms it once.
    ReplyCollector collector;
    std::uint32_t code_k = 0;      // chunks per coded copy (0 = uncoded)
    std::uint32_t next_chunk = 0;  // rateless: every new index adds information
    /// The completing reply, for the request trace.
    ReplicaId first_replica{};
    proto::PerfData first_perf;
    Duration first_gateway{};
    std::uint64_t trace_seq = 0;  // of the emitted RequestTrace, for amends
    bool trace_recorded = false;
    std::uint64_t trace_id = 0;
    std::uint64_t root_span = 0;  // allocated lazily, closed at the outcome
  };

  RequestRecord& record_of(PendingRequest& pending);
  PendingRequest make_pending(RequestId id, TimePoint now);
  Timer arm(Actions& out, TimePoint at, TimerKind kind, RequestId request = {});
  static void cancel(Actions& out, Timer& timer);

  void dispatch(TimePoint now, RequestId id, PendingRequest& pending, bool redispatch,
                Actions& out);
  void transmit(TimePoint now, const Timer& timer, Actions& out);
  void fire_hedge(TimePoint now, RequestId id, Actions& out);
  void send_cancels(RequestId id, PendingRequest& pending, Actions& out);
  void dispatch_parked(TimePoint now, Actions& out);
  void probe_stale_replicas(TimePoint now, Actions& out);
  void send_probe(TimePoint now, ReplicaId replica, Actions& out);
  /// The copies to the members of `replicas` still in the directory, each
  /// noted with its send time. `chunks` are the planned chunk indices
  /// (empty: uncoded); null assigns fresh ones if the request is coded.
  SendRequest copies_to(TimePoint now, PendingRequest& p, std::span<const ReplicaId> replicas,
                        const std::vector<std::uint32_t>* chunks);
  /// Endpoints of `replicas` still in the directory; `known` receives
  /// their positions in `replicas`.
  std::vector<EndpointId> endpoints_of(std::span<const ReplicaId> replicas,
                                       std::vector<std::size_t>* known = nullptr) const;
  /// Send time of the copy `reply` answers (t1 if none matches).
  /// Whether a copy sent to a replica still in the directory has not
  /// answered yet (a departed replica's copy never will).
  [[nodiscard]] bool copy_in_flight(const PendingRequest& pending) const;
  TimePoint take_send_time(PendingRequest& pending, const proto::Reply& reply);
  /// Record a piggybacked or pushed sample of a replica in the view.
  bool harvest(TimePoint now, ReplicaId replica, const proto::PerfData& perf,
               const std::string& method);
  obs::SpanContext leg_span(PendingRequest& pending, std::uint64_t parent);
  void alert(obs::AlertKind kind, TimePoint now, ReplicaId replica, double observed,
             double threshold, std::string detail);
  void span(const PendingRequest& pending, obs::SpanKind kind, std::uint64_t id,
            std::uint64_t parent, ReplicaId replica, TimePoint start, TimePoint end,
            bool ok = true);
  void record_outcome(TimePoint now, PendingRequest& pending, bool timely, Actions& out);
  void emit_request_trace(PendingRequest& pending, bool timely);
  void finish_if_complete(RequestId id);

  // The awaiting set is only changed through these, which keep the
  // per-replica outstanding_ counts in sync.
  void set_awaiting(PendingRequest& pending, std::vector<ReplicaId> replicas);
  void add_awaiting(PendingRequest& pending, std::span<const ReplicaId> replicas);
  void remove_awaiting(PendingRequest& pending, ReplicaId replica);
  void erase_pending(RequestId id);
  void drop_outstanding(ReplicaId replica, std::size_t count);

  ClientId client_;
  QosSpec qos_;
  Rng rng_;
  EngineConfig config_;
  std::shared_ptr<ModelCache> model_cache_;
  ResponseTimeModel dispatch_model_;  // the hedge-delay quantile
  PolicyPtr policy_;
  InfoRepository repository_;
  TimingFailureTracker tracker_;
  OverheadEstimator overhead_;

  IdGenerator<RequestId> request_ids_;
  std::uint64_t next_timer_ = 1;
  std::unordered_map<ReplicaId, EndpointId> replica_endpoints_;
  std::unordered_map<EndpointId, ReplicaId> endpoint_replicas_;
  std::unordered_map<RequestId, PendingRequest> pending_;
  /// replica -> number of pending awaiting entries naming it (absent = 0).
  std::unordered_map<ReplicaId, std::size_t> outstanding_;
  Timer settle_timer_;
  bool violation_reported_ = false;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t hedges_fired_ = 0;
  std::uint64_t cancels_sent_ = 0;
  std::uint64_t redispatches_ = 0;
  std::uint64_t td_clamped_ = 0;

  /// Null when telemetry is off: one branch on every instrumented site.
  obs::Telemetry* obs_ = nullptr;
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* probes_counter_ = nullptr;
  obs::Counter* replies_counter_ = nullptr;
  obs::Counter* timely_counter_ = nullptr;
  obs::Counter* timing_failures_counter_ = nullptr;
  obs::Counter* redispatches_counter_ = nullptr;
  obs::Counter* hedges_counter_ = nullptr;
  obs::Counter* cancels_counter_ = nullptr;
  obs::Counter* qos_violations_counter_ = nullptr;
  obs::Counter* replicas_evicted_counter_ = nullptr;
  obs::Counter* td_clamped_counter_ = nullptr;
  obs::Histogram* response_time_histogram_ = nullptr;
  obs::Histogram* selection_delta_histogram_ = nullptr;
  /// Non-null only when telemetry is attached and spans are on.
  obs::Telemetry* span_sink_ = nullptr;
};

}  // namespace aqua::core
