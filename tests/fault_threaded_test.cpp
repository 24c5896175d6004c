// Chaos on the threaded wall-clock runtime: the same script format the
// simulator replays executes against real threads via
// ThreadedScenarioRunner. Timings here are not bit-reproducible, so the
// assertions pin the applied-action set, the end state (membership, QoS)
// and workload liveness. tools/run_checks.sh runs this suite again under
// TSan: the scenario thread retunes modulation blocks while replica
// workers draw from them, which is exactly the race surface to certify.
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
  // hooks must precede system: the config wires hooks.net into the
  // system's LocalTransport.
  ThreadedScenarioHooks hooks;
  runtime::ThreadedSystem system;
  std::vector<runtime::ThreadedReplica*> replicas;

  explicit ThreadedChaosRig(std::size_t replica_count, core::QosSpec qos,
                            std::uint64_t seed = 1)
      : hooks{make_hooks()}, system{make_config(hooks, seed)} {
    for (std::size_t i = 0; i < replica_count; ++i) {
      auto modulation = std::make_shared<stats::LoadModulation>();
      hooks.replica_load.push_back(modulation);
      replicas.push_back(&system.add_replica(
          stats::make_modulated_sampler(stats::make_constant(msec(2)), modulation)));
    }
    system.add_client(qos);
  }

 private:
  static ThreadedScenarioHooks make_hooks() {
    ThreadedScenarioHooks hooks;
    hooks.net = std::make_shared<stats::LoadModulation>();
    return hooks;
  }
  static runtime::ThreadedSystemConfig make_config(const ThreadedScenarioHooks& hooks,
                                                   std::uint64_t seed) {
    runtime::ThreadedSystemConfig config;
    config.seed = seed;
    config.net.base = usec(300);
    config.net.jitter_max = usec(100);
    config.net.modulation = hooks.net;
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

  // Crash took effect: the runner withdrew replica 3 from the client.
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

  EXPECT_EQ(runner.unsupported_actions(), 2u);  // drop + restart
  const trace::Timeline timeline = runner.timeline();
  EXPECT_EQ(timeline.count("unsupported"), 2u);
  EXPECT_EQ(timeline.count("fault"), 1u);  // the crash applied
  EXPECT_FALSE(rig.replicas[0]->alive());
}

TEST(FaultThreadedTest, ModulationRetuningRacesWorkersCleanly) {
  // Tight loop retuning the hooks while the workload draws from them —
  // the TSan run of this test certifies the atomics in LoadModulation.
  ThreadedChaosRig rig{3, core::QosSpec{msec(150), 0.5}};

  std::atomic<bool> stop{false};
  std::thread tuner([&] {
    std::uint64_t i = 0;
    while (!stop.load()) {
      rig.hooks.net->set_factor(1.0 + static_cast<double>(i % 5));
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
