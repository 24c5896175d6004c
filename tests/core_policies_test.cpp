#include "core/policies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace aqua::core {
namespace {

ReplicaObservation make_obs(std::uint64_t id, std::int64_t service_ms, std::int64_t queue_ms = 0,
                            std::int64_t gateway_ms = 0) {
  ReplicaObservation obs;
  obs.id = ReplicaId{id};
  obs.service_samples = {msec(service_ms)};
  obs.queuing_samples = {msec(queue_ms)};
  obs.gateway_delay = msec(gateway_ms);
  return obs;
}

std::vector<ReplicaObservation> five_replicas() {
  // Mean responses: r1=50, r2=80, r3=110, r4=140, r5=170 ms.
  std::vector<ReplicaObservation> obs;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    obs.push_back(make_obs(i, 20 + static_cast<std::int64_t>(i) * 30));
  }
  return obs;
}

const QosSpec kQos{msec(100), 0.5};

TEST(PoliciesTest, FastestMeanPicksLowestMeanResponse) {
  auto policy = make_fastest_mean_policy();
  Rng rng{1};
  const auto result = policy->select(five_replicas(), kQos, Duration::zero(), rng);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0], ReplicaId{1});
  EXPECT_EQ(policy->name(), "fastest-mean");
}

TEST(PoliciesTest, FastestMeanAccountsForQueueAndGateway) {
  // r1 has small service but huge queuing; r2 wins on the sum.
  std::vector<ReplicaObservation> obs{make_obs(1, 10, 200, 0), make_obs(2, 50, 10, 5)};
  auto policy = make_fastest_mean_policy();
  Rng rng{1};
  const auto result = policy->select(obs, kQos, Duration::zero(), rng);
  EXPECT_EQ(result.selected[0], ReplicaId{2});
}

TEST(PoliciesTest, BestProbabilityPicksHighestF) {
  // At 100ms: r1 (50ms) F=1, r5 (170ms) F=0.
  auto policy = make_best_probability_policy();
  Rng rng{1};
  const auto result = policy->select(five_replicas(), kQos, Duration::zero(), rng);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0], ReplicaId{1});
  EXPECT_DOUBLE_EQ(result.predicted_probability, 1.0);
}

TEST(PoliciesTest, RandomPolicySelectsKDistinct) {
  auto policy = make_random_policy(3);
  Rng rng{42};
  const auto result = policy->select(five_replicas(), kQos, Duration::zero(), rng);
  EXPECT_EQ(result.selected.size(), 3u);
  std::set<ReplicaId> unique(result.selected.begin(), result.selected.end());
  EXPECT_EQ(unique.size(), 3u);
  EXPECT_EQ(policy->name(), "random-3");
}

TEST(PoliciesTest, RandomPolicyClampsToAvailable) {
  auto policy = make_random_policy(10);
  Rng rng{42};
  const auto result = policy->select(five_replicas(), kQos, Duration::zero(), rng);
  EXPECT_EQ(result.selected.size(), 5u);
}

TEST(PoliciesTest, RandomPolicyVariesAcrossCalls) {
  auto policy = make_random_policy(1);
  Rng rng{42};
  std::set<ReplicaId> seen;
  for (int i = 0; i < 50; ++i) {
    const auto result = policy->select(five_replicas(), kQos, Duration::zero(), rng);
    seen.insert(result.selected[0]);
  }
  EXPECT_GT(seen.size(), 2u);
}

TEST(PoliciesTest, RoundRobinCyclesThroughReplicas) {
  auto policy = make_round_robin_policy(2);
  Rng rng{1};
  const auto r1 = policy->select(five_replicas(), kQos, Duration::zero(), rng);
  const auto r2 = policy->select(five_replicas(), kQos, Duration::zero(), rng);
  const auto r3 = policy->select(five_replicas(), kQos, Duration::zero(), rng);
  EXPECT_EQ(r1.selected, (std::vector<ReplicaId>{ReplicaId{1}, ReplicaId{2}}));
  EXPECT_EQ(r2.selected, (std::vector<ReplicaId>{ReplicaId{3}, ReplicaId{4}}));
  EXPECT_EQ(r3.selected, (std::vector<ReplicaId>{ReplicaId{5}, ReplicaId{1}}));
}

TEST(PoliciesTest, AllReplicasSelectsEverything) {
  auto policy = make_all_replicas_policy();
  Rng rng{1};
  const auto result = policy->select(five_replicas(), kQos, Duration::zero(), rng);
  EXPECT_EQ(result.selected.size(), 5u);
}

TEST(PoliciesTest, StaticKPicksTopKByProbability) {
  auto policy = make_static_k_policy(2);
  Rng rng{1};
  const auto result = policy->select(five_replicas(), kQos, Duration::zero(), rng);
  ASSERT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.selected[0], ReplicaId{1});
  EXPECT_EQ(result.selected[1], ReplicaId{2});
}

TEST(PoliciesTest, DynamicPolicyWrapsAlgorithm1) {
  auto policy = make_dynamic_policy();
  Rng rng{1};
  const auto result = policy->select(five_replicas(), QosSpec{msec(100), 0.0},
                                     Duration::zero(), rng);
  EXPECT_EQ(result.selected.size(), 2u);  // minimum redundancy of Algorithm 1
  EXPECT_EQ(policy->name(), "dynamic");
}

TEST(PoliciesTest, EveryPolicyHandlesColdStart) {
  std::vector<ReplicaObservation> cold;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ReplicaObservation obs;
    obs.id = ReplicaId{i};
    cold.push_back(obs);
  }
  Rng rng{1};
  std::vector<PolicyPtr> policies;
  policies.push_back(make_dynamic_policy());
  policies.push_back(make_fastest_mean_policy());
  policies.push_back(make_best_probability_policy());
  policies.push_back(make_random_policy(2));
  policies.push_back(make_round_robin_policy(2));
  policies.push_back(make_all_replicas_policy());
  policies.push_back(make_static_k_policy(2));
  for (auto& policy : policies) {
    const auto result = policy->select(cold, kQos, Duration::zero(), rng);
    EXPECT_EQ(result.selected.size(), 4u) << policy->name() << " must bootstrap on cold start";
  }
}

TEST(PoliciesTest, EveryPolicyRejectsEmptyObservations) {
  Rng rng{1};
  std::vector<PolicyPtr> policies;
  policies.push_back(make_dynamic_policy());
  policies.push_back(make_fastest_mean_policy());
  policies.push_back(make_random_policy(1));
  policies.push_back(make_all_replicas_policy());
  for (auto& policy : policies) {
    EXPECT_THROW(policy->select({}, kQos, Duration::zero(), rng), std::invalid_argument)
        << policy->name();
  }
}

TEST(PoliciesTest, FactoryValidation) {
  EXPECT_THROW(make_random_policy(0), std::invalid_argument);
  EXPECT_THROW(make_round_robin_policy(0), std::invalid_argument);
  EXPECT_THROW(make_static_k_policy(0), std::invalid_argument);
}

// ---- plan_dispatch: the speculative-redundancy transmission schedule ----

SelectionResult selection_of(std::vector<ReplicaId> ids) {
  SelectionResult selection;
  selection.selected = std::move(ids);
  return selection;
}

TEST(PlanDispatchTest, DefaultConfigIsTheIdentityPlan) {
  const auto obs = five_replicas();
  const auto selection = selection_of({ReplicaId{1}, ReplicaId{2}, ReplicaId{3}});
  const DispatchPlan plan =
      plan_dispatch(DispatchConfig{}, selection, obs, kQos, ResponseTimeModel{});
  EXPECT_EQ(plan.primary, selection.selected);
  EXPECT_TRUE(plan.hedge.empty());
  EXPECT_FALSE(plan.hedged);
  EXPECT_EQ(plan.trimmed, 0u);
}

TEST(PlanDispatchTest, HedgedModeSplitsBestFromBackups) {
  DispatchConfig config;
  config.mode = DispatchMode::kHedged;
  const auto obs = five_replicas();
  const auto selection = selection_of({ReplicaId{1}, ReplicaId{2}, ReplicaId{3}});
  const DispatchPlan plan = plan_dispatch(config, selection, obs, kQos, ResponseTimeModel{});
  ASSERT_TRUE(plan.hedged);
  ASSERT_EQ(plan.primary.size(), 1u);
  EXPECT_EQ(plan.primary[0], ReplicaId{1});
  EXPECT_EQ(plan.hedge, (std::vector<ReplicaId>{ReplicaId{2}, ReplicaId{3}}));
  // The hedge delay is clamped into [min, max] fractions of the deadline.
  EXPECT_GE(plan.hedge_delay, msec(5));    // 0.05 * 100ms
  EXPECT_LE(plan.hedge_delay, msec(50));   // 0.5 * 100ms
}

TEST(PlanDispatchTest, SingleMemberSelectionIsNeverSplit) {
  DispatchConfig config;
  config.mode = DispatchMode::kHedged;
  const auto obs = five_replicas();
  const auto selection = selection_of({ReplicaId{1}});
  const DispatchPlan plan = plan_dispatch(config, selection, obs, kQos, ResponseTimeModel{});
  EXPECT_FALSE(plan.hedged);
  EXPECT_EQ(plan.primary.size(), 1u);
  EXPECT_TRUE(plan.hedge.empty());
}

TEST(PlanDispatchTest, ColdStartIsNeverHedgedOrTrimmed) {
  DispatchConfig config;
  config.mode = DispatchMode::kHedged;
  config.adaptive_redundancy = true;
  config.overload_queue_threshold = 0;
  auto obs = five_replicas();
  for (auto& o : obs) o.queue_length = 10;
  auto selection = selection_of({ReplicaId{1}, ReplicaId{2}, ReplicaId{3}});
  selection.cold_start = true;  // bootstrap traffic must reach everyone
  const DispatchPlan plan = plan_dispatch(config, selection, obs, kQos, ResponseTimeModel{});
  EXPECT_EQ(plan.primary, selection.selected);
  EXPECT_FALSE(plan.hedged);
  EXPECT_EQ(plan.trimmed, 0u);
}

TEST(PlanDispatchTest, ColdStartAndSingleMemberPlansArmTheClampedPredicateUncoded) {
  const auto obs = five_replicas();
  auto cold = selection_of({ReplicaId{1}, ReplicaId{2}, ReplicaId{3}});
  cold.cold_start = true;
  const auto single = selection_of({ReplicaId{4}});
  auto plan_for = [&](CompletionSpec spec, const SelectionResult& selection) {
    DispatchConfig config;
    config.completion = spec;
    return plan_dispatch(config, selection, obs, kQos, ResponseTimeModel{});
  };
  const DispatchPlan vote = plan_for(CompletionSpec::majority_value(), cold);
  EXPECT_EQ(vote.completion.kind, CompletionKind::kMajorityValue);
  EXPECT_EQ(vote.completion.k, 2u);
  const DispatchPlan quorum = plan_for(CompletionSpec::quorum(5), cold);
  EXPECT_EQ(quorum.completion.kind, CompletionKind::kQuorum);
  EXPECT_EQ(quorum.completion.k, 3u);
  for (const SelectionResult& selection : {cold, single}) {
    const DispatchPlan chunks = plan_for(CompletionSpec::k_of_n(2), selection);
    EXPECT_EQ(chunks.completion.kind, CompletionKind::kKOfN);
    EXPECT_EQ(chunks.completion.k, 1u);  // whole copies: any one will do
    EXPECT_FALSE(chunks.coded);
    EXPECT_EQ(chunks.code_k, 0u);
    EXPECT_EQ(chunks.primary, selection.selected);
  }
  EXPECT_EQ(plan_for(CompletionSpec::majority_value(), single).completion.k, 1u);
}

TEST(PlanDispatchTest, AdaptiveRedundancyTrimsWhenMeanQueueReachesThreshold) {
  DispatchConfig config;
  config.adaptive_redundancy = true;
  config.overload_queue_threshold = 2;
  config.overload_redundancy_cap = 2;
  auto obs = five_replicas();
  for (auto& o : obs) o.queue_length = 3;
  const auto selection =
      selection_of({ReplicaId{1}, ReplicaId{2}, ReplicaId{3}, ReplicaId{4}});
  const DispatchPlan plan = plan_dispatch(config, selection, obs, kQos, ResponseTimeModel{});
  EXPECT_EQ(plan.primary, (std::vector<ReplicaId>{ReplicaId{1}, ReplicaId{2}}));
  EXPECT_EQ(plan.trimmed, 2u);
  EXPECT_FALSE(plan.hedged);
}

TEST(PlanDispatchTest, AdaptiveRedundancyLeavesShallowQueuesAlone) {
  DispatchConfig config;
  config.adaptive_redundancy = true;
  config.overload_queue_threshold = 2;
  config.overload_redundancy_cap = 1;
  const auto obs = five_replicas();  // queue_length 0 everywhere
  const auto selection = selection_of({ReplicaId{1}, ReplicaId{2}, ReplicaId{3}});
  const DispatchPlan plan = plan_dispatch(config, selection, obs, kQos, ResponseTimeModel{});
  EXPECT_EQ(plan.primary, selection.selected);
  EXPECT_EQ(plan.trimmed, 0u);
}

TEST(PlanDispatchTest, AdaptiveTrimComposesWithHedging) {
  DispatchConfig config;
  config.mode = DispatchMode::kHedged;
  config.adaptive_redundancy = true;
  config.overload_queue_threshold = 1;
  config.overload_redundancy_cap = 2;
  auto obs = five_replicas();
  for (auto& o : obs) o.queue_length = 4;
  const auto selection =
      selection_of({ReplicaId{1}, ReplicaId{2}, ReplicaId{3}, ReplicaId{4}});
  const DispatchPlan plan = plan_dispatch(config, selection, obs, kQos, ResponseTimeModel{});
  // Trimmed to the cap first, then the survivors split primary/hedge.
  EXPECT_EQ(plan.trimmed, 2u);
  ASSERT_TRUE(plan.hedged);
  EXPECT_EQ(plan.primary, (std::vector<ReplicaId>{ReplicaId{1}}));
  EXPECT_EQ(plan.hedge, (std::vector<ReplicaId>{ReplicaId{2}}));
}

TEST(PlanDispatchTest, AdaptiveTrimIgnoresSilentReplicas) {
  // A crashed member's frozen (low) queue_length must not drag the
  // overload mean down exactly when the survivors are drowning. Four
  // live replicas at queue 3 cross the threshold; the fifth is silent
  // far past the auto staleness bound (4 x deadline) with queue 0 and
  // must be excluded from the mean.
  DispatchConfig config;
  config.adaptive_redundancy = true;
  config.overload_queue_threshold = 3;
  config.overload_redundancy_cap = 2;
  auto obs = five_replicas();
  for (auto& o : obs) o.queue_length = 3;
  obs[4].queue_length = 0;              // frozen pre-crash snapshot
  obs[4].silence = kQos.deadline * 10;  // silent long past the bound
  const auto selection =
      selection_of({ReplicaId{1}, ReplicaId{2}, ReplicaId{3}, ReplicaId{4}});
  const DispatchPlan plan = plan_dispatch(config, selection, obs, kQos, ResponseTimeModel{});
  EXPECT_EQ(plan.trimmed, 2u);  // live mean 3 >= 3; include-all mean 2.4 would not trim
}

TEST(PlanDispatchTest, AdaptiveTrimLegacyIncludeAllMean) {
  // Negative staleness bound restores the pre-fix include-everyone mean
  // (the ablation arm): the crashed replica's zero dilutes the mean
  // below the threshold and the trim never engages.
  DispatchConfig config;
  config.adaptive_redundancy = true;
  config.overload_queue_threshold = 3;
  config.overload_redundancy_cap = 2;
  config.overload_staleness_bound = msec(-1);
  auto obs = five_replicas();
  for (auto& o : obs) o.queue_length = 3;
  obs[4].queue_length = 0;
  obs[4].silence = kQos.deadline * 10;
  const auto selection =
      selection_of({ReplicaId{1}, ReplicaId{2}, ReplicaId{3}, ReplicaId{4}});
  const DispatchPlan plan = plan_dispatch(config, selection, obs, kQos, ResponseTimeModel{});
  EXPECT_EQ(plan.trimmed, 0u);
}

TEST(PlanDispatchTest, IsDefaultDetectsEverySpeculativeKnob) {
  EXPECT_TRUE(DispatchConfig{}.is_default());
  DispatchConfig hedged;
  hedged.mode = DispatchMode::kHedged;
  EXPECT_FALSE(hedged.is_default());
  DispatchConfig cancel;
  cancel.cancel_on_first_reply = true;
  EXPECT_FALSE(cancel.is_default());
  DispatchConfig adaptive;
  adaptive.adaptive_redundancy = true;
  EXPECT_FALSE(adaptive.is_default());
  // Tuning the hedge shape alone changes nothing until the mode is on.
  DispatchConfig tuned;
  tuned.hedge_quantile = 0.5;
  tuned.min_hedge_fraction = 0.2;
  EXPECT_TRUE(tuned.is_default());
}

}  // namespace
}  // namespace aqua::core
