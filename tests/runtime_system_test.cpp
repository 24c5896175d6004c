// ThreadedSystem: concurrent wall-clock workloads. Durations are small
// so the suite stays fast while exercising real contention.
#include "runtime/threaded_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

namespace aqua::runtime {
namespace {

ThreadedSystemConfig fast_config() {
  ThreadedSystemConfig cfg;
  cfg.net = net::in_process_lan(usec(100), usec(25));
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

// The system's own Lan on the wall clock: loss, and a host crash with its
// notice, reach the threaded runtime through the code the sim runs.

TEST(ThreadedLanTest, LossyLanKeepsInvokeBoundedAndEveryMessageAccountedFor) {
  ThreadedSystemConfig cfg = fast_config();
  cfg.net.loss_rate = 0.2;
  ThreadedSystem system{cfg};
  for (int i = 0; i < 3; ++i) system.add_replica(stats::make_constant(msec(1)));
  const core::QosSpec qos{msec(20), 0.5};
  for (int c = 0; c < 2; ++c) system.add_client(qos);
  const auto give_up = qos.deadline * cfg.client.give_up_deadline_factor;

  std::vector<Duration> longest(2, Duration::zero());
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < 25; ++i) {
        const auto start = std::chrono::steady_clock::now();
        (void)system.clients()[c]->invoke(i);
        longest[c] = std::max(longest[c], std::chrono::duration_cast<Duration>(
                                              std::chrono::steady_clock::now() - start));
      }
    });
  }
  for (std::thread& t : callers) t.join();
  // By the give-up bound, plus the wake-up and scheduling slack of a
  // loaded (or sanitized) host.
  for (const Duration d : longest) EXPECT_LE(d, give_up + msec(100));

  net::Lan& lan = system.lan();
  EXPECT_GT(lan.messages_dropped(), 0u);
  // Once replicas finish their queued copies nothing is in flight, and
  // every message sent was either delivered or counted as dropped.
  const auto accounted = [&] {
    return lan.messages_sent() == lan.messages_delivered() + lan.messages_dropped();
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!accounted() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(lan.messages_sent(), lan.messages_delivered() + lan.messages_dropped());
}

TEST(ThreadedLanTest, HostCrashEvictsTheReplicaFromEveryClient) {
  ThreadedSystem system{fast_config()};
  auto& doomed = system.add_replica(stats::make_constant(msec(1)));
  system.add_replica(stats::make_constant(msec(2)));
  system.add_replica(stats::make_constant(msec(2)));
  for (int c = 0; c < 3; ++c) system.add_client(core::QosSpec{msec(50), 0.5});
  net::Lan& lan = system.lan();

  // Crash the replica and its host mid-run; nobody calls remove_replica.
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    doomed.crash();
    lan.set_host_alive(lan.endpoint_host(doomed.endpoint()), false);
  });
  const auto stats = system.run_workload(20, msec(2));
  killer.join();

  for (ThreadedClient* client : system.clients()) EXPECT_EQ(client->known_replicas(), 2u);
  for (const WorkloadStats& s : stats) EXPECT_EQ(s.requests, 20u);
}

}  // namespace
}  // namespace aqua::runtime
