// Tests of the response-pmf model cache: generation-based invalidation
// against a live InfoRepository, and the central equivalence property —
// cached and uncached selection are bit-for-bit identical.
#include "core/model_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/info_repository.h"
#include "core/response_time_model.h"
#include "core/selection.h"

namespace aqua::core {
namespace {

const QosSpec kQos{msec(150), 0.9};

PerfSample sample(std::int64_t service_ms, std::int64_t queue_ms = 0,
                  std::int64_t queue_length = 0) {
  return PerfSample{msec(service_ms), msec(queue_ms), queue_length};
}

class ModelCacheTest : public ::testing::Test {
 protected:
  ModelCacheTest()
      : cache_(std::make_shared<ModelCache>()), model_(ModelConfig{}, cache_) {}

  std::shared_ptr<ModelCache> cache_;
  ResponseTimeModel model_;
  InfoRepository repo_;
};

TEST_F(ModelCacheTest, SteadyStateLookupsAreHits) {
  repo_.add_replica(ReplicaId{1});
  repo_.record_perf(ReplicaId{1}, sample(100), TimePoint{});

  EXPECT_DOUBLE_EQ(model_.probability_by(repo_.observe(ReplicaId{1}), msec(150)), 1.0);
  EXPECT_EQ(cache_->stats().misses, 1u);
  EXPECT_EQ(cache_->stats().hits, 0u);

  // Repository untouched: every further lookup is a hit, same answer.
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(model_.probability_by(repo_.observe(ReplicaId{1}), msec(150)), 1.0);
  }
  EXPECT_EQ(cache_->stats().misses, 1u);
  EXPECT_EQ(cache_->stats().hits, 5u);
  EXPECT_EQ(cache_->size(), 1u);
}

TEST_F(ModelCacheTest, NewPerfSampleInvalidates) {
  repo_.add_replica(ReplicaId{1});
  repo_.record_perf(ReplicaId{1}, sample(100), TimePoint{});
  (void)model_.probability_by(repo_.observe(ReplicaId{1}), msec(150));

  repo_.record_perf(ReplicaId{1}, sample(300), TimePoint{});
  // The stale entry is replaced, and the fresh pmf reflects the new window.
  EXPECT_DOUBLE_EQ(model_.probability_by(repo_.observe(ReplicaId{1}), msec(150)), 0.5);
  EXPECT_EQ(cache_->stats().misses, 2u);
  EXPECT_EQ(cache_->stats().invalidations, 1u);
  EXPECT_EQ(cache_->size(), 1u);
}

TEST_F(ModelCacheTest, GatewayDelayMeasurementInvalidates) {
  repo_.add_replica(ReplicaId{1});
  repo_.record_perf(ReplicaId{1}, sample(100), TimePoint{});
  EXPECT_DOUBLE_EQ(model_.probability_by(repo_.observe(ReplicaId{1}), msec(120)), 1.0);

  repo_.record_gateway_delay(ReplicaId{1}, msec(50), TimePoint{});
  // R shifts to 150ms: the cached 100ms pmf must not be served.
  EXPECT_DOUBLE_EQ(model_.probability_by(repo_.observe(ReplicaId{1}), msec(120)), 0.0);
  EXPECT_EQ(cache_->stats().invalidations, 1u);
}

TEST_F(ModelCacheTest, MethodsCacheIndependently) {
  repo_.add_replica(ReplicaId{1});
  repo_.record_perf(ReplicaId{1}, sample(100), TimePoint{}, "alpha");
  repo_.record_perf(ReplicaId{1}, sample(200), TimePoint{}, "beta");

  EXPECT_DOUBLE_EQ(model_.probability_by(repo_.observe(ReplicaId{1}, "alpha"), msec(150)), 1.0);
  EXPECT_DOUBLE_EQ(model_.probability_by(repo_.observe(ReplicaId{1}, "beta"), msec(150)), 0.0);
  EXPECT_EQ(cache_->size(), 2u);
  EXPECT_EQ(cache_->stats().misses, 2u);

  // A new sample for beta (same queue length) leaves alpha's entry valid.
  repo_.record_perf(ReplicaId{1}, sample(200), TimePoint{}, "beta");
  EXPECT_DOUBLE_EQ(model_.probability_by(repo_.observe(ReplicaId{1}, "alpha"), msec(150)), 1.0);
  EXPECT_EQ(cache_->stats().hits, 1u);
  EXPECT_DOUBLE_EQ(model_.probability_by(repo_.observe(ReplicaId{1}, "beta"), msec(150)), 0.0);
  EXPECT_EQ(cache_->stats().misses, 3u);
}

TEST_F(ModelCacheTest, QueueLengthChangeInvalidatesEveryMethod) {
  // queue_length feeds the backlog-shift model of EVERY method, so a
  // change must invalidate sibling methods' entries too.
  repo_.add_replica(ReplicaId{1});
  repo_.record_perf(ReplicaId{1}, sample(100), TimePoint{}, "alpha");
  repo_.record_perf(ReplicaId{1}, sample(100), TimePoint{}, "beta");
  (void)model_.probability_by(repo_.observe(ReplicaId{1}, "alpha"), msec(150));
  (void)model_.probability_by(repo_.observe(ReplicaId{1}, "beta"), msec(150));
  const auto misses_before = cache_->stats().misses;

  repo_.record_perf(ReplicaId{1}, sample(100, 0, /*queue_length=*/3), TimePoint{}, "beta");
  (void)model_.probability_by(repo_.observe(ReplicaId{1}, "alpha"), msec(150));
  (void)model_.probability_by(repo_.observe(ReplicaId{1}, "beta"), msec(150));
  EXPECT_EQ(cache_->stats().misses, misses_before + 2);
}

TEST_F(ModelCacheTest, InvalidateDropsAllEntriesOfAReplica) {
  repo_.add_replica(ReplicaId{1});
  repo_.add_replica(ReplicaId{2});
  repo_.record_perf(ReplicaId{1}, sample(100), TimePoint{}, "alpha");
  repo_.record_perf(ReplicaId{1}, sample(100), TimePoint{}, "beta");
  repo_.record_perf(ReplicaId{2}, sample(100), TimePoint{});
  (void)model_.probability_by(repo_.observe(ReplicaId{1}, "alpha"), msec(150));
  (void)model_.probability_by(repo_.observe(ReplicaId{1}, "beta"), msec(150));
  (void)model_.probability_by(repo_.observe(ReplicaId{2}), msec(150));
  ASSERT_EQ(cache_->size(), 3u);

  // Membership change: replica 1 leaves the repository and the cache.
  repo_.remove_replica(ReplicaId{1});
  cache_->invalidate(ReplicaId{1});
  EXPECT_EQ(cache_->size(), 1u);
  EXPECT_EQ(cache_->stats().evictions, 2u);

  // Replica 2's entry survives.
  (void)model_.probability_by(repo_.observe(ReplicaId{2}), msec(150));
  EXPECT_EQ(cache_->stats().hits, 1u);
}

TEST_F(ModelCacheTest, RemovedThenReaddedReplicaNeverAliases) {
  // Generations come from one repository-global counter, so a re-added
  // replica can never reuse a stamp and accidentally hit a stale entry —
  // even if invalidate() were forgotten.
  repo_.add_replica(ReplicaId{1});
  repo_.record_perf(ReplicaId{1}, sample(100), TimePoint{});
  const auto first = repo_.generation(ReplicaId{1});
  (void)model_.probability_by(repo_.observe(ReplicaId{1}), msec(150));

  repo_.remove_replica(ReplicaId{1});
  repo_.add_replica(ReplicaId{1});
  repo_.record_perf(ReplicaId{1}, sample(400), TimePoint{});
  EXPECT_GT(repo_.generation(ReplicaId{1}), first);
  EXPECT_DOUBLE_EQ(model_.probability_by(repo_.observe(ReplicaId{1}), msec(150)), 0.0);
  EXPECT_EQ(cache_->stats().hits, 0u);
}

TEST_F(ModelCacheTest, DifferentConfigNeverHits) {
  repo_.add_replica(ReplicaId{1});
  repo_.record_perf(ReplicaId{1}, sample(100, 0, /*queue_length=*/2), TimePoint{});

  ModelConfig shifted_cfg;
  shifted_cfg.queue_backlog_shift = true;
  ResponseTimeModel shifted{shifted_cfg, cache_};  // same cache, other config

  EXPECT_DOUBLE_EQ(model_.probability_by(repo_.observe(ReplicaId{1}), msec(150)), 1.0);
  // Entry exists and the generation matches, but the config differs: the
  // shifted model must not be served the unshifted pmf.
  EXPECT_DOUBLE_EQ(shifted.probability_by(repo_.observe(ReplicaId{1}), msec(150)), 0.0);
  EXPECT_EQ(cache_->stats().hits, 0u);
  EXPECT_EQ(cache_->stats().misses, 2u);
}

TEST_F(ModelCacheTest, HandBuiltObservationsBypassTheCache) {
  // generation == 0 marks observations not produced by a repository;
  // nothing may be cached for them.
  ReplicaObservation obs;
  obs.id = ReplicaId{1};
  obs.service_samples = {msec(100)};
  obs.queuing_samples = {Duration::zero()};
  EXPECT_DOUBLE_EQ(model_.probability_by(obs, msec(150)), 1.0);
  EXPECT_EQ(cache_->stats().hits, 0u);
  EXPECT_EQ(cache_->stats().misses, 0u);
  EXPECT_EQ(cache_->size(), 0u);
}

TEST_F(ModelCacheTest, ClearEmptiesTheCache) {
  repo_.add_replica(ReplicaId{1});
  repo_.record_perf(ReplicaId{1}, sample(100), TimePoint{});
  (void)model_.probability_by(repo_.observe(ReplicaId{1}), msec(150));
  ASSERT_EQ(cache_->size(), 1u);
  cache_->clear();
  EXPECT_EQ(cache_->size(), 0u);
  EXPECT_EQ(cache_->stats().evictions, 1u);
  (void)model_.probability_by(repo_.observe(ReplicaId{1}), msec(150));
  EXPECT_EQ(cache_->stats().misses, 2u);
}

// ---------------------------------------------------------------------------
// Equivalence property: over randomized repository histories, a selector
// sharing a cache and a cache-less selector return byte-identical
// SelectionResults (operator== compares the doubles exactly).

class CacheEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheEquivalenceTest, CachedSelectionEqualsUncached) {
  Rng rng{GetParam()};

  ModelConfig model_cfg;
  model_cfg.queue_backlog_shift = rng.uniform_int(0, 1) == 1;
  model_cfg.windowed_gateway_delay = rng.uniform_int(0, 1) == 1;
  if (rng.uniform_int(0, 1) == 1) model_cfg.bin_width = msec(rng.uniform_int(1, 25));
  SelectionConfig sel_cfg;
  sel_cfg.crash_tolerance = static_cast<std::size_t>(rng.uniform_int(0, 3));

  auto cache = std::make_shared<ModelCache>();
  const ReplicaSelector cached{sel_cfg, ResponseTimeModel{model_cfg, cache}};
  const ReplicaSelector uncached{sel_cfg, ResponseTimeModel{model_cfg}};

  RepositoryConfig repo_cfg;
  repo_cfg.window_size = static_cast<std::size_t>(rng.uniform_int(1, 8));
  InfoRepository repo{repo_cfg};
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 8));
  for (std::size_t i = 1; i <= n; ++i) repo.add_replica(ReplicaId{i});

  for (int step = 0; step < 60; ++step) {
    // Random mutation mix, skewed toward perf updates (the hot case).
    const ReplicaId target{static_cast<std::uint64_t>(rng.uniform_int(1, 10))};
    switch (rng.uniform_int(0, 9)) {
      case 0:
        repo.record_gateway_delay(target, usec(rng.uniform_int(0, 8000)), TimePoint{});
        break;
      case 1:
        repo.remove_replica(target);
        cache->invalidate(target);
        break;
      case 2:
        repo.add_replica(target);
        break;
      default:
        repo.record_perf(target,
                         PerfSample{msec(rng.uniform_int(20, 250)),
                                    msec(rng.uniform_int(0, 80)), rng.uniform_int(0, 4)},
                         TimePoint{});
        break;
    }
    if (repo.replica_count() == 0) continue;

    const QosSpec qos{msec(rng.uniform_int(50, 400)), rng.uniform(0.0, 1.0)};
    const Duration delta = usec(rng.uniform_int(0, 500));
    const auto observations = repo.observe_all();
    const SelectionResult a = cached.select(observations, qos, delta);
    const SelectionResult b = uncached.select(observations, qos, delta);
    EXPECT_EQ(a, b) << "seed " << GetParam() << " step " << step;
  }
  // The cache was actually exercised (not bypassed).
  EXPECT_GT(cache->stats().hits + cache->stats().misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomHistories, CacheEquivalenceTest,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{40}));

}  // namespace
}  // namespace aqua::core
