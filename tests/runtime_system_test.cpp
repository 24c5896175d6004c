// ThreadedSystem: concurrent wall-clock workloads. Durations are small
// so the suite stays fast while exercising real contention.
#include "runtime/threaded_system.h"

#include <gtest/gtest.h>

namespace aqua::runtime {
namespace {

ThreadedSystemConfig fast_config() {
  ThreadedSystemConfig cfg;
  cfg.net.base = usec(100);
  cfg.net.jitter_max = usec(50);
  return cfg;
}

TEST(ThreadedSystemTest, RequiresReplicasBeforeClients) {
  ThreadedSystem system{fast_config()};
  EXPECT_THROW(system.add_client(core::QosSpec{msec(10), 0.5}), std::invalid_argument);
}

TEST(ThreadedSystemTest, SingleClientWorkloadCompletes) {
  ThreadedSystem system{fast_config()};
  for (int i = 0; i < 3; ++i) system.add_replica(stats::make_constant(msec(2)));
  system.add_client(core::QosSpec{msec(30), 0.5});
  const auto stats = system.run_workload(20, msec(1));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].requests, 20u);
  EXPECT_EQ(stats[0].answered, 20u);
  EXPECT_EQ(stats[0].timely, 20u);
  EXPECT_GT(stats[0].mean_response_ms, 1.0);
  EXPECT_GE(stats[0].mean_redundancy, 1.0);
}

TEST(ThreadedSystemTest, ConcurrentClientsShareReplicas) {
  ThreadedSystem system{fast_config()};
  for (int i = 0; i < 4; ++i) system.add_replica(stats::make_constant(msec(2)));
  for (int c = 0; c < 4; ++c) system.add_client(core::QosSpec{msec(50), 0.5});
  const auto stats = system.run_workload(15, msec(1));
  ASSERT_EQ(stats.size(), 4u);
  std::uint64_t serviced = 0;
  for (auto* replica : system.replicas()) serviced += replica->serviced();
  std::size_t answered = 0;
  for (const auto& s : stats) {
    EXPECT_EQ(s.requests, 15u);
    answered += s.answered;
  }
  EXPECT_EQ(answered, 60u);
  EXPECT_GE(serviced, 60u);  // redundancy >= 1 per request
}

TEST(ThreadedSystemTest, WorkloadValidation) {
  ThreadedSystem system{fast_config()};
  system.add_replica(stats::make_constant(msec(1)));
  system.add_client(core::QosSpec{msec(20), 0.0});
  EXPECT_THROW(system.run_workload(0, msec(1)), std::invalid_argument);
}

TEST(ThreadedSystemTest, TimelyFractionReflectsImpossibleDeadline) {
  ThreadedSystem system{fast_config()};
  for (int i = 0; i < 2; ++i) system.add_replica(stats::make_constant(msec(20)));
  auto& client = system.add_client(core::QosSpec{msec(2), 0.5});
  const auto stats = system.run_workload(5, msec(1));
  EXPECT_EQ(stats[0].timely, 0u);
  EXPECT_LT(client.timely_fraction(), 0.5);
}

TEST(ThreadedSystemTest, CrashMidWorkloadIsMasked) {
  ThreadedSystem system{fast_config()};
  auto& fast = system.add_replica(stats::make_constant(msec(1)));
  system.add_replica(stats::make_constant(msec(3)));
  system.add_replica(stats::make_constant(msec(3)));
  auto& client = system.add_client(core::QosSpec{msec(50), 0.9});
  // Crash the favourite from a side thread mid-run.
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    fast.crash();
    client.remove_replica(fast.id());
  });
  const auto stats = system.run_workload(30, msec(2));
  killer.join();
  // Redundancy keeps every (or nearly every) request answered.
  EXPECT_GE(stats[0].answered, 29u);
}

}  // namespace
}  // namespace aqua::runtime
