// Model-cache invalidation under concurrent repository updates from the
// threaded client. The cache's correctness contract is generation-stamp
// equality; this suite pins (a) the stamp semantics directly and (b) that
// concurrent invokes + membership removals — which invalidate cache
// entries while other threads are mid-selection — neither race (TSan run)
// nor leave stale entries behind.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/model_cache.h"
#include "runtime/threaded_system.h"
#include "stats/variates.h"

namespace aqua::fault {
namespace {

core::ReplicaObservation observation(std::uint64_t replica, std::uint64_t generation) {
  core::ReplicaObservation obs;
  obs.id = ReplicaId{replica};
  obs.method = core::kDefaultMethod;
  obs.generation = generation;
  obs.service_samples = {msec(10), msec(12)};
  obs.queuing_samples = {msec(1), msec(2)};
  obs.gateway_delay = msec(3);
  return obs;
}

TEST(ModelCacheInvalidationTest, StaleGenerationMissesAndReplaces) {
  core::ModelCache cache;
  const core::ModelConfig config;

  const auto obs_g5 = observation(1, 5);
  EXPECT_EQ(cache.find(config, obs_g5), nullptr);  // first sight: miss
  cache.store(config, obs_g5, stats::EmpiricalPmf::delta(msec(10)));
  EXPECT_NE(cache.find(config, obs_g5), nullptr);  // same generation: hit

  // A repository update bumped the generation: the entry is stale. The
  // refreshing store replaces it in place and counts an invalidation.
  const auto obs_g6 = observation(1, 6);
  EXPECT_EQ(cache.find(config, obs_g6), nullptr);
  cache.store(config, obs_g6, stats::EmpiricalPmf::delta(msec(11)));
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_NE(cache.find(config, obs_g6), nullptr);
  EXPECT_EQ(cache.size(), 1u);  // replaced, not duplicated

  // Membership eviction drops every entry of the replica.
  cache.invalidate(ReplicaId{1});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(ModelCacheInvalidationTest, ConcurrentInvokesAndRemovalsStayCoherent) {
  runtime::ThreadedSystemConfig config;
  config.net.base = usec(100);
  config.net.jitter_max = usec(50);
  runtime::ThreadedSystem system{config};
  std::vector<ReplicaId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(system.add_replica(stats::make_constant(msec(1))).id());
  }
  runtime::ThreadedClient& client = system.add_client(core::QosSpec{msec(100), 0.7});

  // Warm every replica's windows so selections convolve (and cache).
  for (int i = 0; i < 8; ++i) (void)client.invoke(i);

  // Two invoker threads keep selecting (reading the cache) while the main
  // thread removes two replicas (invalidating their entries through the
  // same client mutex). TSan certifies the locking; the asserts certify
  // nothing is lost.
  std::atomic<std::size_t> answered{0};
  std::vector<std::thread> invokers;
  for (int t = 0; t < 2; ++t) {
    invokers.emplace_back([&client, &answered, t] {
      for (int i = 0; i < 25; ++i) {
        if (client.invoke(1000 * t + i).answered) ++answered;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.remove_replica(ids[2]);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.remove_replica(ids[3]);
  for (std::thread& thread : invokers) thread.join();

  EXPECT_EQ(client.known_replicas(), 2u);
  // Both survivors keep answering after the invalidations.
  EXPECT_GT(answered.load(), 40u);
  const runtime::ThreadedClient::Outcome final_outcome = client.invoke(424242);
  EXPECT_TRUE(final_outcome.answered);
  EXPECT_LE(final_outcome.redundancy, 2u);
}

}  // namespace
}  // namespace aqua::fault
