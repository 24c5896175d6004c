#include "replica/replica_server.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/group.h"
#include "net/lan.h"
#include "sim/simulator.h"

namespace aqua::replica {
namespace {

class ReplicaServerTest : public ::testing::Test {
 protected:
  ReplicaServerTest() : lan_(sim_, Rng{1}, quiet_config()), group_(sim_, lan_, GroupId{1}) {}

  static net::LanConfig quiet_config() {
    net::LanConfig cfg;
    cfg.jitter_sigma = 0.0;
    return cfg;
  }

  /// A client-side endpoint capturing replies and perf updates.
  struct FakeClient {
    EndpointId endpoint;
    std::vector<proto::Reply> replies;
    std::vector<proto::PerfUpdate> updates;
    std::vector<proto::Announce> announces;
  };

  FakeClient make_client(std::uint64_t host) {
    auto client = std::make_unique<FakeClient>();
    FakeClient* raw = client.get();
    raw->endpoint = lan_.create_endpoint(HostId{host}, [raw](EndpointId, const net::Payload& p) {
      if (const auto* reply = p.get_if<proto::Reply>()) raw->replies.push_back(*reply);
      if (const auto* update = p.get_if<proto::PerfUpdate>()) raw->updates.push_back(*update);
      if (const auto* announce = p.get_if<proto::Announce>()) raw->announces.push_back(*announce);
    });
    clients_.push_back(std::move(client));
    return *raw;
  }

  FakeClient& client(std::size_t i) { return *clients_[i]; }

  void send_request(const FakeClient& from, const ReplicaServer& to, std::uint64_t request_id,
                    std::int64_t argument = 0) {
    proto::Request request{RequestId{request_id}, ClientId{1}, "invoke", argument};
    lan_.unicast(from.endpoint, to.endpoint(), net::Payload::make(request, proto::kRequestBytes));
  }

  void subscribe(const FakeClient& from, const ReplicaServer& to) {
    lan_.unicast(from.endpoint, to.endpoint(),
                 net::Payload::make(proto::Subscribe{ClientId{1}, from.endpoint},
                                    proto::kSubscribeBytes));
  }

  sim::Simulator sim_;
  net::Lan lan_;
  net::MulticastGroup group_;
  std::vector<std::unique_ptr<FakeClient>> clients_;
};

TEST_F(ReplicaServerTest, JoinsGroupAndAnnounces) {
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{1}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(1))), Rng{2}};
  EXPECT_TRUE(group_.view().contains(replica.endpoint()));
  // Announce broadcast goes to group members; a client joining later uses
  // Subscribe->Announce instead, tested below.
}

TEST_F(ReplicaServerTest, ServicesRequestAndReplies) {
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{1}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(5))), Rng{2}};
  auto c = make_client(50);
  send_request(c, replica, 1, 42);
  sim_.run_for(sec(1));
  ASSERT_EQ(client(0).replies.size(), 1u);
  const proto::Reply& reply = client(0).replies[0];
  EXPECT_EQ(reply.request, RequestId{1});
  EXPECT_EQ(reply.replica, ReplicaId{1});
  EXPECT_EQ(reply.result, 42);  // default compute echoes the argument
  EXPECT_EQ(replica.serviced_requests(), 1u);
}

TEST_F(ReplicaServerTest, PerfDataReflectsServiceTime) {
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{1}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(5))), Rng{2}};
  auto c = make_client(50);
  send_request(c, replica, 1);
  sim_.run_for(sec(1));
  ASSERT_EQ(client(0).replies.size(), 1u);
  EXPECT_EQ(client(0).replies[0].perf.service_time, msec(5));
  // Sole request: no queuing beyond the gateway overhead stage.
  EXPECT_EQ(client(0).replies[0].perf.queue_length, 0);
}

TEST_F(ReplicaServerTest, FifoOrderAndQueuingDelays) {
  ReplicaConfig cfg;
  cfg.gateway_overhead = Duration::zero();
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{1}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(10))), Rng{2}, cfg};
  auto c = make_client(50);
  // Three back-to-back requests: they arrive together and queue.
  send_request(c, replica, 1, 1);
  send_request(c, replica, 2, 2);
  send_request(c, replica, 3, 3);
  sim_.run_for(sec(1));
  ASSERT_EQ(client(0).replies.size(), 3u);
  EXPECT_EQ(client(0).replies[0].request, RequestId{1});
  EXPECT_EQ(client(0).replies[1].request, RequestId{2});
  EXPECT_EQ(client(0).replies[2].request, RequestId{3});
  // First waits ~0; second ~10ms; third ~20ms.
  EXPECT_EQ(client(0).replies[0].perf.queuing_delay, Duration::zero());
  EXPECT_EQ(client(0).replies[1].perf.queuing_delay, msec(10));
  EXPECT_EQ(client(0).replies[2].perf.queuing_delay, msec(20));
}

TEST_F(ReplicaServerTest, QueueLengthReportedAtReplyTime) {
  ReplicaConfig cfg;
  cfg.gateway_overhead = Duration::zero();
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{1}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(10))), Rng{2}, cfg};
  auto c = make_client(50);
  send_request(c, replica, 1);
  send_request(c, replica, 2);
  send_request(c, replica, 3);
  sim_.run_for(sec(1));
  ASSERT_EQ(client(0).replies.size(), 3u);
  // When request 1 completes, 2 and 3 are still queued.
  EXPECT_EQ(client(0).replies[0].perf.queue_length, 2);
  EXPECT_EQ(client(0).replies[1].perf.queue_length, 1);
  EXPECT_EQ(client(0).replies[2].perf.queue_length, 0);
}

TEST_F(ReplicaServerTest, SubscribeTriggersAnnounceAndUpdates) {
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{7}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(1))), Rng{2}};
  auto subscriber = make_client(60);
  auto requester = make_client(61);
  subscribe(subscriber, replica);
  sim_.run_for(msec(100));
  ASSERT_EQ(client(0).announces.size(), 1u);
  EXPECT_EQ(client(0).announces[0].replica, ReplicaId{7});
  EXPECT_EQ(client(0).announces[0].endpoint, replica.endpoint());

  send_request(requester, replica, 1);
  sim_.run_for(sec(1));
  // Subscriber got the perf update; the requester got the reply instead.
  ASSERT_EQ(client(0).updates.size(), 1u);
  EXPECT_EQ(client(0).updates[0].replica, ReplicaId{7});
  EXPECT_TRUE(client(1).updates.empty());
  ASSERT_EQ(client(1).replies.size(), 1u);
}

TEST_F(ReplicaServerTest, DuplicateSubscriptionsDoNotDuplicateUpdates) {
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{1}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(1))), Rng{2}};
  auto subscriber = make_client(60);
  auto requester = make_client(61);
  subscribe(subscriber, replica);
  subscribe(subscriber, replica);
  sim_.run_for(msec(100));
  send_request(requester, replica, 1);
  sim_.run_for(sec(1));
  EXPECT_EQ(client(0).updates.size(), 1u);
}

TEST_F(ReplicaServerTest, CancelPurgesEveryQueuedCopy) {
  // A redispatch can re-select a replica that still holds a queued copy
  // of the same request; the cancel must reclaim both copies.
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{1}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(50))), Rng{2}};
  auto c = make_client(50);
  send_request(c, replica, 1);  // occupies the server
  send_request(c, replica, 2);
  send_request(c, replica, 2);
  sim_.run_for(msec(10));
  ASSERT_EQ(replica.queue_length(), 2u);
  lan_.unicast(c.endpoint, replica.endpoint(),
               net::Payload::make(proto::Cancel{RequestId{2}, ClientId{1}, "invoke"},
                                  proto::kCancelBytes));
  sim_.run_for(sec(1));
  EXPECT_EQ(replica.purged_requests(), 2u);
  EXPECT_EQ(replica.cancels_ignored(), 0u);
  ASSERT_EQ(client(0).replies.size(), 1u);
  EXPECT_EQ(client(0).replies[0].request, RequestId{1});
}

TEST_F(ReplicaServerTest, CustomComputeFunction) {
  ReplicaConfig cfg;
  cfg.compute = [](std::int64_t x) { return x * x; };
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{1}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(1))), Rng{2}, cfg};
  auto c = make_client(50);
  send_request(c, replica, 1, 9);
  sim_.run_for(sec(1));
  ASSERT_EQ(client(0).replies.size(), 1u);
  EXPECT_EQ(client(0).replies[0].result, 81);
}

TEST_F(ReplicaServerTest, CrashProcessDropsQueueAndNeverReplies) {
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{1}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(50))), Rng{2}};
  auto c = make_client(50);
  send_request(c, replica, 1);
  send_request(c, replica, 2);
  sim_.schedule_after(msec(10), [&] { replica.crash_process(); });
  sim_.run_for(sec(2));
  EXPECT_TRUE(client(0).replies.empty());
  EXPECT_FALSE(replica.alive());
  EXPECT_FALSE(group_.view().contains(replica.endpoint()));
  EXPECT_TRUE(lan_.host_alive(HostId{10}));  // only the process died
}

TEST_F(ReplicaServerTest, CrashHostTriggersHostFailureDetection) {
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{1}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(5))), Rng{2}};
  replica.crash_host();
  EXPECT_FALSE(lan_.host_alive(HostId{10}));
  sim_.run_for(sec(2));
  EXPECT_FALSE(group_.view().contains(replica.endpoint()));
}

TEST_F(ReplicaServerTest, RestartRejoinsWithFreshEndpoint) {
  ReplicaServer replica{sim_,  lan_,        group_, ReplicaId{1}, HostId{10},
                        make_sampled_service(stats::make_constant(msec(5))), Rng{2}};
  const EndpointId old_endpoint = replica.endpoint();
  replica.crash_host();
  sim_.run_for(sec(2));
  replica.restart();
  EXPECT_TRUE(replica.alive());
  EXPECT_NE(replica.endpoint(), old_endpoint);
  EXPECT_TRUE(group_.view().contains(replica.endpoint()));
  EXPECT_TRUE(lan_.host_alive(HostId{10}));

  auto c = make_client(50);
  send_request(c, replica, 5);
  sim_.run_for(sec(1));
  EXPECT_EQ(client(0).replies.size(), 1u);
}

TEST_F(ReplicaServerTest, LoadSensitiveServiceSlowsWithQueue) {
  ReplicaConfig cfg;
  cfg.gateway_overhead = Duration::zero();
  ReplicaServer replica{
      sim_, lan_, group_, ReplicaId{1}, HostId{10},
      make_load_sensitive_service(stats::make_constant(msec(10)), msec(5)), Rng{2}, cfg};
  auto c = make_client(50);
  send_request(c, replica, 1);
  send_request(c, replica, 2);
  sim_.run_for(sec(1));
  ASSERT_EQ(client(0).replies.size(), 2u);
  // Request 1 is sampled while request 2 waits: 10ms + 1*5ms.
  EXPECT_EQ(client(0).replies[0].perf.service_time, msec(15));
  // Request 2 runs with an empty queue: 10ms.
  EXPECT_EQ(client(0).replies[1].perf.service_time, msec(10));
}

}  // namespace
}  // namespace aqua::replica
