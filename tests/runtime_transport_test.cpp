// ThreadedSystem over a real UdpTransport: the full gateway pipeline —
// selection, multicast over kernel sockets, first-reply delivery, perf
// harvest — driven through loopback UDP instead of in-process replica
// submission. Also pins the Subscribe/Announce discovery handshake and
// the host-eviction path (a silent replica is reported dead by the
// retransmit budget and leaves the selection directory), and checks that
// one workload makes the same decisions over the in-process wall-clock
// Lan as over UDP.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "net/udp_transport.h"
#include "obs/telemetry.h"
#include "runtime/threaded_system.h"

namespace aqua::runtime {
namespace {

net::UdpTransportConfig fast_udp() {
  net::UdpTransportConfig cfg;
  cfg.retransmit_initial = msec(5);
  cfg.retransmit_backoff = 1.5;
  cfg.max_attempts = 3;
  cfg.retransmit_tick = msec(2);
  return cfg;
}

bool wait_for(const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(RuntimeTransportTest, WorkloadCompletesOverUdpLoopback) {
  net::UdpTransport udp{fast_udp()};
  ThreadedSystemConfig cfg;
  cfg.transport = &udp;
  ThreadedSystem system{cfg};
  for (int i = 0; i < 3; ++i) system.add_replica(stats::make_constant(msec(2)));
  system.add_client(core::QosSpec{msec(100), 0.5});

  const auto stats = system.run_workload(15, msec(1));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].requests, 15u);
  EXPECT_EQ(stats[0].answered, 15u);
  EXPECT_GE(stats[0].mean_redundancy, 1.0);
  // Requests and replies actually crossed the kernel.
  EXPECT_GT(udp.messages_sent(), 0u);
  EXPECT_GT(udp.messages_delivered(), 0u);
  std::uint64_t serviced = 0;
  for (auto* replica : system.replicas()) serviced += replica->serviced();
  EXPECT_GE(serviced, 15u);
}

TEST(RuntimeTransportTest, SequentialInvokesPiggybackTheirAcks) {
  // Replies ack their requests and the next request to a replica acks
  // its reply, so back-to-back invokes send almost no ACK frame, and no
  // ack comes late enough to cost a retransmit.
  net::UdpTransport udp;  // default timers: an ack waits at most 10 ms of 20
  ThreadedSystemConfig cfg;
  cfg.transport = &udp;
  ThreadedSystem system{cfg};
  for (int i = 0; i < 4; ++i) system.add_replica(stats::make_constant(usec(20)));
  ThreadedClient& client = system.add_client(core::QosSpec{msec(20), 0.9});

  // Counted after a warm-up, so the first executions of each code path
  // (slow under the sanitizers) cannot delay an ack past the first
  // retransmit.
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(client.invoke(i).answered) << "warm-up " << i;
  const std::uint64_t retransmits_before = udp.messages_retransmitted();
  const std::uint64_t acks_before = udp.acks_sent();
  constexpr int kInvokes = 500;
  for (int i = 0; i < kInvokes; ++i) ASSERT_TRUE(client.invoke(i).answered) << "invoke " << i;
  const std::uint64_t acks = udp.acks_sent() - acks_before;
  EXPECT_EQ(udp.messages_retransmitted() - retransmits_before, 0u) << acks << " standalone acks";
  EXPECT_LE(static_cast<double>(acks), 0.25 * kInvokes);
}

TEST(RuntimeTransportTest, ALoneClientIsSentNoPerfUpdates) {
  // The client subscribes to every replica, but a replica knows its one
  // subscriber as the sender of the requests too: each reply goes out
  // alone, and a copy costs one request and one reply message.
  net::UdpTransport udp{fast_udp()};
  ThreadedSystemConfig cfg;
  cfg.transport = &udp;
  ThreadedSystem system{cfg};
  for (int i = 0; i < 3; ++i) system.add_replica(stats::make_constant(usec(200)));
  ThreadedClient& client = system.add_client(core::QosSpec{msec(100), 0.5});
  std::uint64_t copies = 0;
  auto serviced = [&] {
    std::uint64_t n = 0;
    for (auto* replica : system.replicas()) n += replica->serviced();
    return n;
  };
  // Settle: every copy answered and sent, the Subscribe/Announce
  // handshake long done.
  auto settle = [&] {
    EXPECT_TRUE(wait_for([&] { return serviced() == copies; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  for (int i = 0; i < 5; ++i) {
    const auto outcome = client.invoke(i);
    ASSERT_TRUE(outcome.answered);
    copies += outcome.redundancy;
  }
  settle();
  const std::uint64_t before = udp.messages_sent();
  const std::uint64_t copies_before = copies;
  for (int i = 0; i < 40; ++i) {
    const auto outcome = client.invoke(i);
    ASSERT_TRUE(outcome.answered);
    copies += outcome.redundancy;
  }
  settle();
  EXPECT_EQ(udp.messages_sent() - before, 2 * (copies - copies_before));
}

TEST(RuntimeTransportTest, TelemetryCountsUdpTrafficUnderLanNames) {
  obs::Telemetry telemetry;
  net::UdpTransport udp{fast_udp()};
  udp.set_telemetry(&telemetry);
  ThreadedSystemConfig cfg;
  cfg.transport = &udp;
  cfg.telemetry = &telemetry;
  ThreadedSystem system{cfg};
  for (int i = 0; i < 2; ++i) system.add_replica(stats::make_constant(msec(1)));
  system.add_client(core::QosSpec{msec(100), 0.5});
  system.run_workload(5, msec(1));

  EXPECT_GT(telemetry.metrics().counter("lan.sent").value(), 0u);
  EXPECT_GT(telemetry.metrics().counter("lan.delivered").value(), 0u);
}

TEST(RuntimeTransportTest, SubscribeAnnounceDiscoversReplicas) {
  net::UdpTransport udp{fast_udp()};
  ThreadedSystemConfig cfg;
  cfg.transport = &udp;
  ThreadedSystem system{cfg};
  for (int i = 0; i < 3; ++i) system.add_replica(stats::make_constant(msec(1)));

  // A transport-mode client with NO pre-wired directory: it must learn
  // every replica through the Subscribe -> Announce round trip, exactly
  // like a remote gateway pointed at peer addresses.
  ThreadedClientConfig client_cfg;
  client_cfg.id = ClientId{50};
  client_cfg.transport = &udp;
  client_cfg.host = HostId{2'000};
  ThreadedClient client{core::QosSpec{msec(100), 0.5}, Rng{99}, client_cfg};
  EXPECT_EQ(client.known_replicas(), 0u);
  for (auto* replica : system.replicas()) client.subscribe_to(replica->endpoint());
  ASSERT_TRUE(wait_for([&] { return client.known_replicas() == 3u; }));

  const auto outcome = client.invoke(7);
  EXPECT_TRUE(outcome.answered);
  client.shutdown();
}

TEST(RuntimeTransportTest, SilentReplicaIsEvictedFromTheDirectory) {
  net::UdpTransport udp{fast_udp()};
  ThreadedSystemConfig cfg;
  cfg.transport = &udp;
  ThreadedSystem system{cfg};
  system.add_replica(stats::make_constant(msec(1)));

  // A second "replica" that is a silent remote peer: bind-then-destroy
  // reserves a port with nothing listening, so requests multicast to it
  // are never acked. The retransmit budget then reports its host dead
  // and the client evicts it, like a membership view change.
  const EndpointId ghost_bind =
      udp.create_endpoint(HostId{500}, [](EndpointId, const net::Payload&) {});
  const std::uint16_t dead_port = udp.endpoint_port(ghost_bind);
  udp.destroy_endpoint(ghost_bind);
  const EndpointId ghost = udp.register_peer("127.0.0.1", dead_port);
  const HostId ghost_host = udp.endpoint_host(ghost);

  ThreadedClientConfig client_cfg;
  client_cfg.id = ClientId{60};
  client_cfg.transport = &udp;
  client_cfg.host = HostId{2'100};
  ThreadedClient client{core::QosSpec{msec(100), 0.0}, Rng{42}, client_cfg};
  client.add_peer_replica(system.replicas()[0]->id(), system.replicas()[0]->endpoint());
  client.add_peer_replica(ReplicaId{77}, ghost);
  EXPECT_EQ(client.known_replicas(), 2u);

  ASSERT_TRUE(wait_for([&] {
    client.invoke(99);  // cold-start fan-out keeps touching the ghost
    return client.known_replicas() == 1u;
  }));
  EXPECT_FALSE(udp.host_alive(ghost_host));

  // The surviving replica still answers.
  const auto outcome = client.invoke(123);
  EXPECT_TRUE(outcome.answered);
  client.shutdown();
}

TEST(RuntimeTransportTest, HostEvictionOfAllOfKRedispatchesWellBeforeGiveUp) {
  // Replica 1 lives on a transport of its own, a process that will die;
  // replica 2 shares the client's. With crash tolerance 0 and both
  // replicas meeting the deadline, K is replica 1 alone (the id tiebreak).
  net::UdpTransport udp{fast_udp()};
  net::UdpTransport doomed_udp{fast_udp()};
  auto doomed = std::make_unique<ThreadedReplica>(
      ReplicaId{1}, replica::make_sampled_service(stats::make_constant(msec(1))), Rng{1},
      doomed_udp, HostId{1});
  ThreadedReplica survivor{ReplicaId{2},
                           replica::make_sampled_service(stats::make_constant(msec(2))), Rng{2},
                           udp, HostId{2}};

  ThreadedClientConfig client_cfg;
  client_cfg.id = ClientId{61};
  client_cfg.transport = &udp;
  client_cfg.host = HostId{2'200};
  client_cfg.selection.crash_tolerance = 0;
  const core::QosSpec qos{msec(500), 0.5};
  ThreadedClient client{qos, Rng{43}, client_cfg};
  client.add_peer_replica(ReplicaId{1},
                          udp.register_peer("127.0.0.1", doomed_udp.endpoint_port(doomed->endpoint())));
  client.add_peer_replica(ReplicaId{2}, survivor.endpoint());
  ASSERT_TRUE(client.invoke(1).answered);  // cold start: both windows fill
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // the second reply lands
  const auto warm = client.invoke(2);
  ASSERT_TRUE(warm.answered);
  ASSERT_EQ(warm.redundancy, 1u);
  ASSERT_EQ(warm.first_replica, ReplicaId{1});

  // Replica 1's process dies: its copy is never acked, the retransmit
  // budget reports the host dead, and the eviction takes all of K. The
  // request must be redispatched to replica 2 at once, not wait out the
  // give-up bound (4 x the deadline).
  doomed.reset();
  const auto outcome = client.invoke(3);
  EXPECT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.first_replica, ReplicaId{2});
  EXPECT_LT(outcome.response_time, qos.deadline);
  EXPECT_EQ(client.known_replicas(), 1u);
  client.shutdown();
  survivor.shutdown();
}

TEST(RuntimeTransportTest, InvokeBeforeDiscoveryParksUntilAnAnnounceArrives) {
  net::UdpTransport udp{fast_udp()};
  ThreadedSystemConfig cfg;
  cfg.transport = &udp;
  ThreadedSystem system{cfg};
  system.add_replica(stats::make_constant(msec(1)));

  ThreadedClientConfig client_cfg;
  client_cfg.id = ClientId{62};
  client_cfg.transport = &udp;
  client_cfg.host = HostId{2'300};
  ThreadedClient client{core::QosSpec{msec(500), 0.5}, Rng{44}, client_cfg};
  ASSERT_EQ(client.known_replicas(), 0u);
  // No replica is known yet: the request parks instead of failing.
  auto pending = std::async(std::launch::async, [&] { return client.invoke(5); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.subscribe_to(system.replicas()[0]->endpoint());

  const auto outcome = pending.get();
  EXPECT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.result, 5);
  EXPECT_TRUE(outcome.cold_start);
  client.shutdown();
}

/// What one request decided, independent of how long anything took.
struct DecisionClass {
  bool cold_start = false;
  std::size_t redundancy = 0;
  bool answered = false;
  ReplicaId first_replica{};
  std::size_t cancels_sent = 0;

  bool operator==(const DecisionClass&) const = default;
};

std::ostream& operator<<(std::ostream& os, const DecisionClass& d) {
  return os << "{cold=" << d.cold_start << " |K|=" << d.redundancy << " answered=" << d.answered
            << " first=" << d.first_replica << " cancels=" << d.cancels_sent << "}";
}

/// One fast replica and two 40x and 56x slower ones, with a deadline only
/// the fast one meets: F_R(t) is ~1 for it and exactly 0 for the others,
/// so no near-tie is left to a race (two warm replicas that both meet the
/// deadline can tie at F = 1 and be ranked by rounding dust). The spec is
/// then infeasible and K is every replica. The hedge waits half the
/// deadline, 55 ms past the fast reply, so a loaded machine's scheduling
/// delay cannot fire it first on one transport only.
std::vector<DecisionClass> run_decisions(net::Transport* transport,
                                         core::DispatchConfig dispatch) {
  dispatch.min_hedge_fraction = 0.5;
  ThreadedSystemConfig cfg;
  cfg.transport = transport;
  cfg.client.dispatch = dispatch;
  ThreadedSystem system{cfg};
  system.add_replica(stats::make_constant(msec(5)));
  system.add_replica(stats::make_constant(msec(200)));
  system.add_replica(stats::make_constant(msec(280)));
  ThreadedClient& client = system.add_client(core::QosSpec{msec(120), 0.9});

  std::vector<DecisionClass> decisions;
  for (int i = 0; i < 10; ++i) {
    const ThreadedClient::Outcome outcome = client.invoke(i);
    decisions.push_back({.cold_start = outcome.cold_start,
                         .redundancy = outcome.redundancy,
                         .answered = outcome.answered,
                         .first_replica = outcome.first_replica,
                         .cancels_sent = outcome.cancels_sent});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(client.td_clamped(), 0u);
  return decisions;
}

void expect_same_decisions(const core::DispatchConfig& dispatch) {
  const std::vector<DecisionClass> local = run_decisions(nullptr, dispatch);
  net::UdpTransport udp{fast_udp()};
  const std::vector<DecisionClass> over_udp = run_decisions(&udp, dispatch);
  ASSERT_EQ(local.size(), over_udp.size());
  // The first request is the cold-start fan-out; every later one is warm.
  EXPECT_TRUE(local.front().cold_start);
  for (std::size_t i = 1; i < local.size(); ++i) {
    EXPECT_FALSE(local[i].cold_start) << "request " << i;
    EXPECT_TRUE(local[i].answered) << "request " << i;
    EXPECT_EQ(local[i].first_replica, ReplicaId{1}) << "request " << i;
    EXPECT_EQ(local[i], over_udp[i]) << "request " << i;
  }
}

TEST(RuntimeTransportTest, LocalAndUdpDecideAlikeInMulticastMode) {
  expect_same_decisions(core::DispatchConfig{});
}

TEST(RuntimeTransportTest, LocalAndUdpDecideAlikeInHedgedCancelMode) {
  core::DispatchConfig dispatch;
  dispatch.mode = core::DispatchMode::kHedged;
  dispatch.cancel_on_first_reply = true;
  expect_same_decisions(dispatch);
}

}  // namespace
}  // namespace aqua::runtime
