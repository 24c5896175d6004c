// Chaos on the threaded wall-clock runtime: the same script format the
// simulator replays executes against real threads via
// ThreadedScenarioRunner. Timings here are not bit-reproducible, so the
// assertions pin the applied-action set, the end state (membership, QoS)
// and workload liveness. tools/run_checks.sh runs this suite again under
// TSan: the scenario thread retunes modulation blocks and the system's
// wall-clock Lan while replica workers and clients draw from and send
// through them, which is exactly the race surface to certify.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "fault/threaded_runner.h"
#include "runtime/threaded_system.h"
#include "stats/variates.h"

namespace aqua::fault {
namespace {

struct ThreadedChaosRig {
  ScenarioHooks hooks;
  runtime::ThreadedSystem system;
  std::vector<runtime::ThreadedReplica*> replicas;

  explicit ThreadedChaosRig(std::size_t replica_count, core::QosSpec qos,
                            std::uint64_t seed = 1)
      : system{make_config(seed)} {
    for (std::size_t i = 0; i < replica_count; ++i) {
      auto modulation = std::make_shared<stats::LoadModulation>();
      hooks.replica_load.push_back(modulation);
      replicas.push_back(&system.add_replica(
          stats::make_modulated_sampler(stats::make_constant(msec(2)), modulation)));
    }
    system.add_client(qos);
  }

 private:
  static runtime::ThreadedSystemConfig make_config(std::uint64_t seed) {
    runtime::ThreadedSystemConfig config;
    config.seed = seed;
    config.net = net::in_process_lan(usec(300), usec(50));
    return config;
  }
};

TEST(FaultThreadedTest, SupportedScriptAppliesFullyWhileWorkloadRuns) {
  ThreadedChaosRig rig{4, core::QosSpec{msec(100), 0.5}};

  ScenarioScript script;
  script.name = "threaded_chaos";
  script.lan_spike(msec(20), msec(60), 4.0)
      .load_ramp(msec(30), msec(80), 1, 5.0)
      .delay_messages(msec(50), msec(40), msec(1))
      .queue_burst(msec(60), 2, 10)
      .crash_replica(msec(80), 3)
      .renegotiate_qos(msec(100), 0, core::QosSpec{msec(300), 0.3});

  ThreadedScenarioRunner runner{rig.system, script, rig.hooks};
  runner.start();
  const std::vector<runtime::WorkloadStats> stats = rig.system.run_workload(40, msec(2));
  runner.wait();

  EXPECT_EQ(runner.unsupported_actions(), 0u);
  const trace::Timeline timeline = runner.timeline();
  EXPECT_EQ(timeline.count("fault"), script.actions.size());
  EXPECT_EQ(timeline.count("unsupported"), 0u);

  // Crash took effect: its host went down, and the client evicted it.
  EXPECT_FALSE(rig.replicas[3]->alive());
  EXPECT_EQ(rig.system.clients()[0]->known_replicas(), 3u);
  // Renegotiation took effect.
  EXPECT_EQ(rig.system.clients()[0]->qos(), (core::QosSpec{msec(300), 0.3}));

  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].requests, 40u);
  EXPECT_GT(stats[0].answered, 0u);
}

TEST(FaultThreadedTest, UnsupportedActionsAreRecordedNotSilentlySkipped) {
  ThreadedChaosRig rig{3, core::QosSpec{msec(100), 0.0}};

  ScenarioScript script;
  script.name = "unsupported_probe";
  script.drop_messages(msec(5), msec(20), 0.5)
      .crash_replica(msec(10), 0)
      .restart_replica(msec(30), 0);

  ThreadedScenarioRunner runner{rig.system, script, rig.hooks};
  runner.start();
  runner.wait();

  EXPECT_EQ(runner.unsupported_actions(), 1u);  // restart
  const trace::Timeline timeline = runner.timeline();
  EXPECT_EQ(timeline.count("unsupported"), 1u);
  EXPECT_EQ(timeline.count("fault"), 2u);  // the drop window and the crash applied
  EXPECT_FALSE(rig.replicas[0]->alive());
}

TEST(FaultThreadedTest, ModulationRetuningRacesWorkersCleanly) {
  // Tight loop retuning the hooks and the Lan's spike factor while the
  // workload draws from and sends through them — the TSan run of this
  // test certifies the atomics in LoadModulation and the Lan's lock.
  ThreadedChaosRig rig{3, core::QosSpec{msec(150), 0.5}};

  std::atomic<bool> stop{false};
  std::thread tuner([&] {
    std::uint64_t i = 0;
    while (!stop.load()) {
      rig.system.lan().force_spike(1.0 + static_cast<double>(i % 5));
      rig.hooks.replica_load[static_cast<std::size_t>(i) % 3]->set_extra(usec(200));
      rig.hooks.replica_load[static_cast<std::size_t>(i) % 3]->reset();
      ++i;
    }
  });
  const std::vector<runtime::WorkloadStats> stats = rig.system.run_workload(30, msec(1));
  stop.store(true);
  tuner.join();

  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].requests, 30u);
}

}  // namespace
}  // namespace aqua::fault
