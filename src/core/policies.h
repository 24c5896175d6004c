// Selection policies: the paper's dynamic algorithm plus the baseline
// schemes it is motivated against (§1, §7).
//
// The related single-replica schemes (nearest replica, best historical
// mean, probing) "assign a single replica to each client and do not
// consider the case in which a replica may fail while servicing a
// request". These baselines let the benches quantify the gap: failure
// probability and replica cost under identical workloads.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "common/rng.h"
#include "core/completion.h"
#include "core/selection.h"

namespace aqua::obs {
class Telemetry;
}  // namespace aqua::obs

namespace aqua::core {

class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  /// Choose the replicas for one request. Stateless policies ignore
  /// `rng`; randomised ones (random-k) consume it.
  [[nodiscard]] virtual SelectionResult select(std::span<const ReplicaObservation> observations,
                                               const QosSpec& qos, Duration overhead_delta,
                                               Rng& rng) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

using PolicyPtr = std::unique_ptr<SelectionPolicy>;

/// The paper's Algorithm 1 (with configuration). When `cache` is set, the
/// policy memoizes convolved response pmfs in it, re-convolving only
/// replicas whose repository windows changed since the last selection;
/// results are identical either way.
PolicyPtr make_dynamic_policy(SelectionConfig config = {}, ModelConfig model = {},
                              std::shared_ptr<ModelCache> cache = nullptr);

/// Single replica with the lowest estimated mean response time
/// (mean(S) + mean(W) + T) — the "best historical average" baseline [19].
PolicyPtr make_fastest_mean_policy();

/// Single replica with the highest F_Ri(t) but no redundancy — an
/// oracle-ish probabilistic baseline that still cannot survive a crash.
PolicyPtr make_best_probability_policy(ModelConfig model = {});

/// k replicas drawn uniformly at random without replacement.
PolicyPtr make_random_policy(std::size_t k);

/// k replicas in a fixed rotation (load-balancing baseline).
PolicyPtr make_round_robin_policy(std::size_t k);

/// Every available replica (maximum fault tolerance, zero scalability).
PolicyPtr make_all_replicas_policy();

/// The lowest-id known replica and no other, cold repository included:
/// the primary of AQuA's passive handler (§2, [17]). Backups carry no
/// load until a view change removes the primary. make_static_k_policy(1)
/// is not this: it ranks by F_Ri(t) and sends a cold start to everyone.
PolicyPtr make_primary_policy();

/// The k replicas with the highest F_Ri(t) regardless of the client's
/// probability request (static redundancy baseline). With `load.enabled`
/// the k are picked by the load-compensated score instead (suspect
/// skipping and two-choice spreading included) — the herd-safe informed
/// placement the coded bench pits against blind random spreading.
PolicyPtr make_static_k_policy(std::size_t k, ModelConfig model = {}, LoadScoreConfig load = {});

/// How the gateway transmits a request to the selected set K.
///
/// The paper's Algorithm 1 is replicate-early: the whole K goes out at
/// t1. Poloczek & Ciucu show that flips from a latency win into overload
/// collapse as utilization rises; Sun/Koksal/Shroff place the optimum on
/// a load-dependent spectrum. The hedged mode is the replicate-late end:
/// only the best-ranked member at t1, the rest held back behind a hedge
/// timer that usually never fires.
enum class DispatchMode {
  kMulticast,
  kHedged,
};

/// Speculative-redundancy knobs layered over a SelectionPolicy. The
/// defaults reproduce the paper's behaviour exactly (full-K multicast,
/// no cancels, no trimming) — every figure harness relies on that.
struct DispatchConfig {
  DispatchMode mode = DispatchMode::kMulticast;

  /// Send proto::Cancel to every still-awaiting member of K when the
  /// first reply arrives, purging queued copies (work conservation).
  bool cancel_on_first_reply = false;

  /// Hedge delay = this quantile of the primary replica's predicted
  /// response pmf: the hedge fires only in the tail where the primary
  /// is unlikely to still answer in time.
  double hedge_quantile = 0.95;

  /// Clamp the hedge delay into [min, max] * deadline so a degenerate
  /// pmf can neither fire the hedge instantly (re-creating multicast)
  /// nor push it past the point where backups can still help.
  double min_hedge_fraction = 0.05;
  double max_hedge_fraction = 0.5;

  /// Utilization-adaptive redundancy: when the mean piggybacked queue
  /// length across known replicas reaches the threshold, trim K to the
  /// cap — redundancy is surplus exactly when every queue is deep.
  bool adaptive_redundancy = false;
  std::int64_t overload_queue_threshold = 4;
  std::size_t overload_redundancy_cap = 2;

  /// Live-replica filter for the overload mean: observations silent for
  /// longer than this (a crashed member still inside the §5.4 failure
  /// detection window, its stale low queue_length frozen in the
  /// repository) are excluded, so one dead replica cannot drag the
  /// signal below the threshold. Zero = auto (4 x the request deadline,
  /// mirroring the runtime's give-up factor); negative = include all
  /// (the pre-fix behaviour, kept for ablation). Only consulted when
  /// adaptive_redundancy is on, and only effective when the caller
  /// observed with a clock (otherwise silence is zero = always live).
  Duration overload_staleness_bound{};

  /// When is the request complete? The default (first-of-n) is the
  /// paper's first-reply-wins semantics. k_of_n(k) turns the request
  /// into a divisible job: K chunk-requests are MDS-coded so any k
  /// distinct chunk-replies reconstruct the result; quorum(k) demands
  /// k distinct repliers of the whole request; majority_value() a
  /// strict majority of K agreeing on one value.
  CompletionSpec completion{};

  [[nodiscard]] bool is_default() const {
    return mode == DispatchMode::kMulticast && !cancel_on_first_reply &&
           !adaptive_redundancy && completion.is_default();
  }
};

/// Transmission schedule for one request, derived from a SelectionResult.
struct DispatchPlan {
  /// Sent at t1.
  std::vector<ReplicaId> primary;
  /// Sent at t1 + hedge_delay unless the primary answered first.
  std::vector<ReplicaId> hedge;
  Duration hedge_delay{};
  /// True when the plan actually split K (hedged mode, warm repository).
  bool hedged = false;
  /// Members of K dropped by the adaptive-redundancy rule.
  std::size_t trimmed = 0;
  /// True when the request goes out as MDS-coded chunk-requests; each
  /// dispatched copy then carries a distinct chunk index and a
  /// chunk-sized (1/code_k) service demand.
  bool coded = false;
  /// Chunks required to reconstruct (k of the k-of-n predicate),
  /// clamped to the post-trim set size. Zero when not coded.
  std::uint32_t code_k = 0;
  /// The predicate the reply collector should be armed with — the
  /// config's spec with k clamped to what was actually dispatched.
  CompletionSpec completion{};
};

/// Split the selected set into the transmission schedule. With the
/// default config this is the identity plan (primary = K, no model
/// evaluation, no extra randomness), so the paper-policy path is
/// bit-identical. Cold-start selections are never hedged, trimmed or
/// coded: bootstrap traffic must reach everyone, whole. Their completion
/// predicate is armed like any other's (a k-of-n one needs one of the
/// whole copies).
[[nodiscard]] DispatchPlan plan_dispatch(const DispatchConfig& config,
                                         const SelectionResult& selection,
                                         std::span<const ReplicaObservation> observations,
                                         const QosSpec& qos, const ResponseTimeModel& model);

/// Transparent telemetry decorator: forwards every select() to `inner`
/// unchanged (same result, same rng draws, same name()) and mirrors the
/// outcome into `telemetry` — counters select.calls / select.cold_starts
/// / select.infeasible plus the select.redundancy histogram. With a null
/// telemetry the per-selection cost is one branch, so benches can
/// measure the disabled path against the bare policy.
PolicyPtr make_observed_policy(PolicyPtr inner, obs::Telemetry* telemetry);

}  // namespace aqua::core
