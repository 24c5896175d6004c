#include "core/policies.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/assert.h"
#include "core/model_cache.h"
#include "obs/telemetry.h"
#include "stats/empirical_pmf.h"

namespace aqua::core {
namespace {

Duration fraction_of(Duration d, double fraction) {
  return Duration{static_cast<std::int64_t>(
      std::llround(static_cast<double>(count_us(d)) * fraction))};
}

/// Shared helper: cold-repository bootstrap — pick everything.
bool cold_start_all(std::span<const ReplicaObservation> observations, SelectionResult& result) {
  const bool cold = std::none_of(observations.begin(), observations.end(),
                                 [](const ReplicaObservation& o) { return o.has_data(); });
  if (!cold) return false;
  result.cold_start = true;
  for (const ReplicaObservation& obs : observations) result.selected.push_back(obs.id);
  return true;
}

class DynamicPolicy final : public SelectionPolicy {
 public:
  DynamicPolicy(SelectionConfig config, ModelConfig model, std::shared_ptr<ModelCache> cache)
      : selector_(config, ResponseTimeModel{model, std::move(cache)}) {}

  SelectionResult select(std::span<const ReplicaObservation> observations, const QosSpec& qos,
                         Duration overhead_delta, Rng& rng) override {
    // The selector only draws from the rng for the power-of-two-choices
    // spread, i.e. never under the default (load-score-off) config.
    return selector_.select(observations, qos, overhead_delta, &rng);
  }

  std::string name() const override { return "dynamic"; }

 private:
  ReplicaSelector selector_;
};

class FastestMeanPolicy final : public SelectionPolicy {
 public:
  SelectionResult select(std::span<const ReplicaObservation> observations, const QosSpec& qos,
                         Duration, Rng&) override {
    AQUA_REQUIRE(!observations.empty(), "selection requires at least one replica");
    qos.validate();
    SelectionResult result;
    if (cold_start_all(observations, result)) return result;
    double best = std::numeric_limits<double>::infinity();
    ReplicaId best_id;
    for (const ReplicaObservation& obs : observations) {
      if (!obs.has_data()) continue;
      const double mean_us =
          stats::EmpiricalPmf::from_samples(obs.service_samples).mean_us() +
          stats::EmpiricalPmf::from_samples(obs.queuing_samples).mean_us() +
          static_cast<double>(count_us(obs.gateway_delay));
      if (mean_us < best) {
        best = mean_us;
        best_id = obs.id;
      }
    }
    result.selected.push_back(best_id);
    result.feasible = true;
    return result;
  }

  std::string name() const override { return "fastest-mean"; }
};

class BestProbabilityPolicy final : public SelectionPolicy {
 public:
  explicit BestProbabilityPolicy(ModelConfig model) : model_(model) {}

  SelectionResult select(std::span<const ReplicaObservation> observations, const QosSpec& qos,
                         Duration overhead_delta, Rng&) override {
    AQUA_REQUIRE(!observations.empty(), "selection requires at least one replica");
    qos.validate();
    SelectionResult result;
    if (cold_start_all(observations, result)) return result;
    Duration deadline = qos.deadline - overhead_delta;
    double best = -1.0;
    ReplicaId best_id;
    for (const ReplicaObservation& obs : observations) {
      if (!obs.has_data()) continue;
      const double p = model_.probability_by(obs, deadline);
      result.ranked.push_back({obs.id, p, true});
      if (p > best) {
        best = p;
        best_id = obs.id;
      }
    }
    result.selected.push_back(best_id);
    result.predicted_probability = best;
    result.feasible = best >= qos.min_probability;
    return result;
  }

  std::string name() const override { return "best-probability"; }

 private:
  ResponseTimeModel model_;
};

class RandomPolicy final : public SelectionPolicy {
 public:
  explicit RandomPolicy(std::size_t k) : k_(k) {}

  SelectionResult select(std::span<const ReplicaObservation> observations, const QosSpec& qos,
                         Duration, Rng& rng) override {
    AQUA_REQUIRE(!observations.empty(), "selection requires at least one replica");
    qos.validate();
    SelectionResult result;
    if (cold_start_all(observations, result)) return result;
    std::vector<std::size_t> indices(observations.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    std::shuffle(indices.begin(), indices.end(), rng);
    const std::size_t take = std::min(k_, indices.size());
    for (std::size_t i = 0; i < take; ++i) {
      result.selected.push_back(observations[indices[i]].id);
    }
    result.feasible = true;
    return result;
  }

  std::string name() const override { return "random-" + std::to_string(k_); }

 private:
  std::size_t k_;
};

class RoundRobinPolicy final : public SelectionPolicy {
 public:
  explicit RoundRobinPolicy(std::size_t k) : k_(k) {}

  SelectionResult select(std::span<const ReplicaObservation> observations, const QosSpec& qos,
                         Duration, Rng&) override {
    AQUA_REQUIRE(!observations.empty(), "selection requires at least one replica");
    qos.validate();
    SelectionResult result;
    if (cold_start_all(observations, result)) return result;
    const std::size_t n = observations.size();
    const std::size_t take = std::min(k_, n);
    for (std::size_t i = 0; i < take; ++i) {
      result.selected.push_back(observations[(cursor_ + i) % n].id);
    }
    cursor_ = (cursor_ + take) % n;
    result.feasible = true;
    return result;
  }

  std::string name() const override { return "round-robin-" + std::to_string(k_); }

 private:
  std::size_t k_;
  std::size_t cursor_ = 0;
};

class AllReplicasPolicy final : public SelectionPolicy {
 public:
  SelectionResult select(std::span<const ReplicaObservation> observations, const QosSpec& qos,
                         Duration, Rng&) override {
    AQUA_REQUIRE(!observations.empty(), "selection requires at least one replica");
    qos.validate();
    SelectionResult result;
    for (const ReplicaObservation& obs : observations) result.selected.push_back(obs.id);
    result.feasible = true;
    return result;
  }

  std::string name() const override { return "all-replicas"; }
};

class PrimaryPolicy final : public SelectionPolicy {
 public:
  SelectionResult select(std::span<const ReplicaObservation> observations, const QosSpec& qos,
                         Duration, Rng&) override {
    AQUA_REQUIRE(!observations.empty(), "selection requires at least one replica");
    qos.validate();
    SelectionResult result;
    result.selected.push_back(std::min_element(observations.begin(), observations.end(),
                                               [](const ReplicaObservation& a,
                                                  const ReplicaObservation& b) {
                                                 return a.id < b.id;
                                               })
                                  ->id);
    result.feasible = true;
    return result;
  }

  std::string name() const override { return "primary"; }
};

class ObservedPolicy final : public SelectionPolicy {
 public:
  ObservedPolicy(PolicyPtr inner, obs::Telemetry* telemetry) : inner_(std::move(inner)) {
    AQUA_REQUIRE(inner_ != nullptr, "observed policy requires an inner policy");
    if (telemetry != nullptr) {
      auto& metrics = telemetry->metrics();
      calls_ = &metrics.counter("select.calls");
      cold_starts_ = &metrics.counter("select.cold_starts");
      infeasible_ = &metrics.counter("select.infeasible");
      suspect_skips_ = &metrics.counter("select.suspect_skips");
      redundancy_ = &metrics.histogram("select.redundancy");
    }
  }

  SelectionResult select(std::span<const ReplicaObservation> observations, const QosSpec& qos,
                         Duration overhead_delta, Rng& rng) override {
    SelectionResult result = inner_->select(observations, qos, overhead_delta, rng);
    if (calls_ != nullptr) {
      calls_->add();
      if (result.cold_start) cold_starts_->add();
      if (!result.feasible && !result.cold_start) infeasible_->add();
      if (result.suspects > 0) suspect_skips_->add(result.suspects);
      redundancy_->record_value(static_cast<std::int64_t>(result.redundancy()));
    }
    return result;
  }

  std::string name() const override { return inner_->name(); }

 private:
  PolicyPtr inner_;
  obs::Counter* calls_ = nullptr;
  obs::Counter* cold_starts_ = nullptr;
  obs::Counter* infeasible_ = nullptr;
  obs::Counter* suspect_skips_ = nullptr;
  obs::Histogram* redundancy_ = nullptr;
};

class StaticKPolicy final : public SelectionPolicy {
 public:
  StaticKPolicy(std::size_t k, ModelConfig model, LoadScoreConfig load)
      : k_(k), model_(model), load_(load) {}

  SelectionResult select(std::span<const ReplicaObservation> observations, const QosSpec& qos,
                         Duration overhead_delta, Rng& rng) override {
    AQUA_REQUIRE(!observations.empty(), "selection requires at least one replica");
    qos.validate();
    SelectionResult result;
    if (cold_start_all(observations, result)) return result;
    const Duration deadline = qos.deadline - overhead_delta;
    std::vector<const ReplicaObservation*> suspect_obs;
    const auto rank_one = [&](const ReplicaObservation& obs) {
      RankedReplica ranked{obs.id, obs.has_data() ? model_.probability_by(obs, deadline) : 0.0,
                           obs.has_data()};
      if (load_.enabled && obs.has_data()) {
        ranked.score = load_score(model_, obs, deadline, load_);
      }
      result.ranked.push_back(ranked);
    };
    for (const ReplicaObservation& obs : observations) {
      if (load_.enabled && obs.has_data() && load_suspect(obs, qos, load_)) {
        suspect_obs.push_back(&obs);
      } else {
        rank_one(obs);
      }
    }
    const bool any_ranked_data =
        std::any_of(result.ranked.begin(), result.ranked.end(),
                    [](const RankedReplica& r) { return r.has_data; });
    if (!any_ranked_data && !suspect_obs.empty()) {
      // Every data-bearing replica looked dead: rank them anyway rather
      // than dispatch only to dataless strangers.
      for (const ReplicaObservation* obs : suspect_obs) rank_one(*obs);
      suspect_obs.clear();
    }
    result.suspects = suspect_obs.size();
    if (load_.enabled) {
      std::sort(result.ranked.begin(), result.ranked.end(),
                [](const RankedReplica& a, const RankedReplica& b) {
                  if (a.score != b.score) return a.score > b.score;
                  if (a.probability != b.probability) return a.probability > b.probability;
                  return a.id < b.id;
                });
      two_choice_spread(result.ranked, observations, load_, rng);
    } else {
      std::sort(result.ranked.begin(), result.ranked.end(),
                [](const RankedReplica& a, const RankedReplica& b) {
                  if (a.probability != b.probability) return a.probability > b.probability;
                  return a.id < b.id;
                });
    }
    const std::size_t take = std::min(k_, result.ranked.size());
    double prod = 1.0;
    for (std::size_t i = 0; i < take; ++i) {
      result.selected.push_back(result.ranked[i].id);
      prod *= 1.0 - result.ranked[i].probability;
    }
    result.predicted_probability = 1.0 - prod;
    result.feasible = result.predicted_probability >= qos.min_probability;
    return result;
  }

  std::string name() const override {
    return (load_.enabled ? "static-load-" : "static-") + std::to_string(k_);
  }

 private:
  std::size_t k_;
  ResponseTimeModel model_;
  LoadScoreConfig load_;
};

}  // namespace

PolicyPtr make_dynamic_policy(SelectionConfig config, ModelConfig model,
                              std::shared_ptr<ModelCache> cache) {
  return std::make_unique<DynamicPolicy>(config, model, std::move(cache));
}

PolicyPtr make_fastest_mean_policy() { return std::make_unique<FastestMeanPolicy>(); }

PolicyPtr make_best_probability_policy(ModelConfig model) {
  return std::make_unique<BestProbabilityPolicy>(model);
}

PolicyPtr make_random_policy(std::size_t k) {
  AQUA_REQUIRE(k >= 1, "random policy needs k >= 1");
  return std::make_unique<RandomPolicy>(k);
}

PolicyPtr make_round_robin_policy(std::size_t k) {
  AQUA_REQUIRE(k >= 1, "round-robin policy needs k >= 1");
  return std::make_unique<RoundRobinPolicy>(k);
}

PolicyPtr make_all_replicas_policy() { return std::make_unique<AllReplicasPolicy>(); }

PolicyPtr make_primary_policy() { return std::make_unique<PrimaryPolicy>(); }

PolicyPtr make_static_k_policy(std::size_t k, ModelConfig model, LoadScoreConfig load) {
  AQUA_REQUIRE(k >= 1, "static policy needs k >= 1");
  return std::make_unique<StaticKPolicy>(k, model, load);
}

PolicyPtr make_observed_policy(PolicyPtr inner, obs::Telemetry* telemetry) {
  return std::make_unique<ObservedPolicy>(std::move(inner), telemetry);
}

DispatchPlan plan_dispatch(const DispatchConfig& config, const SelectionResult& selection,
                           std::span<const ReplicaObservation> observations, const QosSpec& qos,
                           const ResponseTimeModel& model) {
  DispatchPlan plan;
  plan.primary = selection.selected;
  // Cold-start and one-member plans go out whole: never trimmed, coded or
  // hedged. Their completion predicate is armed all the same, or a vote
  // or quorum would take the first cold-start reply as the answer.
  const bool split = plan.primary.size() > 1 && !selection.cold_start;

  if (split && config.adaptive_redundancy) {
    // Overload signal: mean piggybacked queue length across every LIVE
    // replica with history. When all queues are deep, each extra copy
    // of the request mostly adds queueing, not tail protection — trim
    // K to the cap, keeping the best-ranked members (selected order is
    // protected-first, then candidates by rank). Replicas silent past
    // the staleness bound are excluded: a crashed member's frozen (and
    // typically low) queue_length would otherwise bias the mean down
    // exactly when the survivors are drowning.
    Duration staleness_bound = config.overload_staleness_bound;
    if (staleness_bound == Duration::zero()) staleness_bound = qos.deadline * 4;
    double total = 0.0;
    std::size_t with_data = 0;
    for (const ReplicaObservation& obs : observations) {
      if (!obs.has_data()) continue;
      if (staleness_bound > Duration::zero() && obs.silence > staleness_bound) continue;
      total += static_cast<double>(obs.queue_length);
      ++with_data;
    }
    const std::size_t cap = std::max<std::size_t>(config.overload_redundancy_cap, 1);
    if (with_data > 0 && cap < plan.primary.size() &&
        total / static_cast<double>(with_data) >=
            static_cast<double>(config.overload_queue_threshold)) {
      plan.trimmed = plan.primary.size() - cap;
      plan.primary.resize(cap);
    }
  }

  if (!config.completion.is_default()) {
    // Clamp the predicate to what is actually going out: an
    // over-ambitious k must not leave a request waiting on replies that
    // can never exist, and a majority is one of what was sent. Coding
    // only engages for k-of-n — a quorum or a vote reads whole requests,
    // so its copies stay uncoded.
    CompletionSpec spec = config.completion;
    const std::size_t sent = std::max<std::size_t>(plan.primary.size(), 1);
    spec.k = spec.kind == CompletionKind::kMajorityValue ? plan.primary.size() / 2 + 1
                                                         : std::clamp<std::size_t>(spec.k, 1, sent);
    if (spec.kind == CompletionKind::kKOfN) {
      if (split) {
        plan.coded = true;
        plan.code_k = static_cast<std::uint32_t>(spec.k);
      } else {
        spec.k = 1;  // uncoded copies each carry the whole result
      }
    }
    plan.completion = spec;
  }
  if (!split) return plan;

  // A coded plan must keep at least k members in the primary wave —
  // hedging below k would guarantee the hedge timer fires every time.
  const std::size_t keep =
      plan.coded ? std::min<std::size_t>(plan.code_k, plan.primary.size()) : 1;
  if (config.mode == DispatchMode::kHedged && plan.primary.size() > keep) {
    plan.hedge.assign(plan.primary.begin() + static_cast<std::ptrdiff_t>(keep),
                      plan.primary.end());
    plan.primary.resize(keep);
    plan.hedged = true;
    // Hedge delay: the point on the primary's predicted response pmf
    // past which it probably missed — only then is the backup traffic
    // worth its cost. Clamped so a stale or degenerate pmf cannot
    // collapse the mode into plain multicast or hold the hedge past
    // usefulness.
    const Duration min_delay = fraction_of(qos.deadline, config.min_hedge_fraction);
    const Duration max_delay = fraction_of(qos.deadline, config.max_hedge_fraction);
    Duration delay = max_delay;
    const auto primary_obs =
        std::find_if(observations.begin(), observations.end(),
                     [&](const ReplicaObservation& o) { return o.id == plan.primary.front(); });
    if (primary_obs != observations.end() && primary_obs->has_data()) {
      const stats::EmpiricalPmf pmf = model.response_pmf(*primary_obs);
      if (!pmf.empty()) delay = pmf.quantile(config.hedge_quantile);
    }
    plan.hedge_delay = std::clamp(delay, min_delay, max_delay);
  }
  return plan;
}

}  // namespace aqua::core
