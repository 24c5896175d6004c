// Pins the mid-flight crash semantics in BOTH substrates: a message
// already "on the wire" to a host that crashes before delivery is
// dropped, never delivered — in the simulated LAN (delivery-time liveness
// check) and in the threaded runtime (submit to a crashed replica fails,
// queued work dies with the crash).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "fault/scenario_runner.h"
#include "gateway/system.h"
#include "net/lan.h"
#include "net/payload.h"
#include "replica/service_model.h"
#include "runtime/delayed_executor.h"
#include "runtime/threaded_system.h"
#include "sim/simulator.h"
#include "stats/variates.h"

namespace aqua::fault {
namespace {

TEST(MidflightCrashSimTest, WireMessageToCrashedHostIsDroppedNotDelivered) {
  sim::Simulator sim;
  net::LanConfig config;
  config.jitter_sigma = 0.0;  // deterministic delay, ~1.35ms off-host
  net::Lan lan{sim, Rng{1}, config};

  int delivered = 0;
  const EndpointId rx =
      lan.create_endpoint(HostId{2}, [&](EndpointId, const net::Payload&) { ++delivered; });
  const EndpointId tx = lan.create_endpoint(HostId{1}, [](EndpointId, const net::Payload&) {});

  lan.unicast(tx, rx, net::Payload::make<int>(1, 100));
  EXPECT_EQ(lan.messages_sent(), 1u);  // the message is in flight

  // Crash the destination host strictly before the delivery time.
  sim.schedule_after(usec(100), [&] { lan.set_host_alive(HostId{2}, false); });
  sim.run();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(lan.messages_delivered(), 0u);
  EXPECT_EQ(lan.messages_dropped(), 1u);
}

TEST(MidflightCrashSimTest, RequestInFlightToCrashingReplicaIsAbsorbedByTheOthers) {
  gateway::SystemConfig config;
  config.seed = 9;
  gateway::AquaSystem system{config};
  for (int i = 0; i < 3; ++i) {
    system.add_replica(replica::make_sampled_service(stats::make_constant(msec(30))));
  }

  gateway::ClientWorkload workload;
  workload.total_requests = 5;
  workload.think_time = stats::make_constant(msec(100));
  gateway::ClientApp& app = system.add_client(core::QosSpec{msec(200), 0.0}, workload);

  // The first request is multicast once discovery settles (~2.5ms in);
  // the wire takes ~1.5ms more. Crash the whole host of replica 0 in that
  // window, while the request is on the wire to it.
  replica::ReplicaServer& victim = *system.replicas()[0];
  system.simulator().schedule_after(msec(3), [&victim] { victim.crash_host(); });

  ASSERT_TRUE(system.run_until_clients_done(sec(60)));
  EXPECT_EQ(victim.serviced_requests(), 0u);  // the in-flight request died with it
  EXPECT_EQ(app.answered(), 5u);              // the survivors answered everything
}

TEST(MidflightCrashThreadedTest, SubmitToCrashedReplicaFailsAndQueuedWorkNeverReplies) {
  std::atomic<int> replies{0};
  // A wall-clock Lan whose executor stops before the Lan is destroyed.
  struct WallLan {
    runtime::DelayedExecutor executor;
    net::Lan lan{executor, Rng{2}, net::in_process_lan(usec(200), usec(50))};
    ~WallLan() { executor.shutdown(); }
  } wire;
  net::Lan& transport = wire.lan;
  const EndpointId client = transport.create_endpoint(
      HostId{2}, [&](EndpointId, const net::Payload& message) {
        if (message.get_if<proto::Reply>() != nullptr) ++replies;
      });
  runtime::ThreadedReplica replica{ReplicaId{1},
                                   replica::make_sampled_service(stats::make_constant(msec(50))),
                                   Rng{1}, transport, HostId{1}};

  proto::Request request;
  request.id = RequestId{1};
  ASSERT_TRUE(replica.submit(request, client));

  // The request is queued (50ms of service ahead of it). Crash now: the
  // queue is dropped, the reply must never arrive.
  replica.crash();
  EXPECT_FALSE(replica.alive());

  proto::Request late;
  late.id = RequestId{2};
  EXPECT_FALSE(replica.submit(late, client));

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(replies.load(), 0);
}

TEST(MidflightCrashThreadedTest, ClientFallsBackToSurvivorsWhenSelectedReplicaIsDead) {
  runtime::ThreadedSystemConfig config;
  // A generous "wire", so the crash races nothing.
  config.net = net::in_process_lan(usec(500), usec(50));
  runtime::ThreadedSystem system{config};
  runtime::ThreadedReplica& doomed = system.add_replica(stats::make_constant(msec(2)));
  system.add_replica(stats::make_constant(msec(2)));
  runtime::ThreadedClient& client = system.add_client(core::QosSpec{msec(200), 0.9});

  // Warm both replicas so selection has data.
  for (int i = 0; i < 6; ++i) (void)client.invoke(i);

  // Crash WITHOUT informing the client: it may still select the dead
  // replica; the submit at "delivery" time fails and only survivors
  // reply. The request must still be answered, by a live replica.
  doomed.crash();
  for (int i = 0; i < 6; ++i) {
    const runtime::ThreadedClient::Outcome outcome = client.invoke(100 + i);
    ASSERT_TRUE(outcome.answered);
    EXPECT_NE(outcome.first_replica, doomed.id());
  }
}

}  // namespace
}  // namespace aqua::fault
