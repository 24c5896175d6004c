// Tests of the passive preset (AQuA's primary/backup handler on the
// request engine): primary routing, failover on view change.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "gateway/timing_fault_handler.h"
#include "replica/replica_server.h"

namespace aqua::gateway {
namespace {

class PassiveTest : public ::testing::Test {
 protected:
  PassiveTest() : lan_(sim_, Rng{1}, quiet_config()), group_(sim_, lan_, GroupId{1}) {}

  static net::LanConfig quiet_config() {
    net::LanConfig cfg;
    cfg.jitter_sigma = 0.0;
    return cfg;
  }

  replica::ReplicaServer& add_replica(std::uint64_t id, Duration service_time) {
    replicas_.push_back(std::make_unique<replica::ReplicaServer>(
        sim_, lan_, group_, ReplicaId{id}, HostId{id + 100},
        replica::make_sampled_service(stats::make_constant(service_time)), Rng{id}));
    return *replicas_.back();
  }

  std::unique_ptr<TimingFaultHandler> make_handler() {
    auto handler = make_passive_handler(sim_, lan_, group_, ClientId{1}, HostId{1});
    sim_.run_for(msec(50));
    return handler;
  }

  sim::Simulator sim_;
  net::Lan lan_;
  net::MulticastGroup group_;
  std::vector<std::unique_ptr<replica::ReplicaServer>> replicas_;
};

TEST_F(PassiveTest, RoutesToLowestIdPrimary) {
  auto& r1 = add_replica(1, msec(10));
  auto& r2 = add_replica(2, msec(10));
  auto handler = make_handler();
  ASSERT_EQ(handler->known_replicas(), 2u);
  std::optional<ReplyInfo> out;
  handler->invoke(5, [&](const ReplyInfo& r) { out = r; });
  sim_.run_for(sec(1));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->replica, ReplicaId{1});
  EXPECT_EQ(out->result, 5);
  EXPECT_EQ(r1.serviced_requests(), 1u);
  EXPECT_EQ(r2.serviced_requests(), 0u);  // backups are idle
}

TEST_F(PassiveTest, BackupsCarryNoLoad) {
  add_replica(1, msec(5));
  add_replica(2, msec(5));
  add_replica(3, msec(5));
  auto handler = make_handler();
  for (int i = 0; i < 10; ++i) {
    handler->invoke(i, [](const ReplyInfo&) {});
    sim_.run_for(msec(200));
  }
  EXPECT_EQ(replicas_[0]->serviced_requests(), 10u);
  EXPECT_EQ(replicas_[1]->serviced_requests(), 0u);
  EXPECT_EQ(replicas_[2]->serviced_requests(), 0u);
}

TEST_F(PassiveTest, PromotesNextReplicaAfterPrimaryCrash) {
  auto& primary = add_replica(1, msec(10));
  add_replica(2, msec(10));
  auto handler = make_handler();
  primary.crash_host();
  sim_.run_for(sec(2));  // past failure detection
  EXPECT_EQ(handler->known_replicas(), 1u);
  std::optional<ReplyInfo> out;
  handler->invoke(9, [&](const ReplyInfo& r) { out = r; });
  sim_.run_for(sec(1));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->replica, ReplicaId{2});
  EXPECT_EQ(handler->redispatches(), 0u);  // sent to the new primary directly
}

TEST_F(PassiveTest, InFlightRequestFailsOverAndCompletes) {
  auto& primary = add_replica(1, msec(300));
  add_replica(2, msec(10));
  auto handler = make_handler();
  std::optional<ReplyInfo> out;
  handler->invoke(4, [&](const ReplyInfo& r) { out = r; });
  // Crash the primary while it is servicing the request.
  sim_.schedule_after(msec(50), [&] { primary.crash_host(); });
  sim_.run_for(sec(5));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->replica, ReplicaId{2});
  EXPECT_EQ(out->result, 4);
  // The outage cost at least the failure-detection delay (default 500ms).
  EXPECT_GE(out->response_time, msec(500));
  EXPECT_EQ(handler->redispatches(), 1u);
}

TEST_F(PassiveTest, RequestParkedWithNoReplicas) {
  auto handler = make_handler();
  std::optional<ReplyInfo> out;
  handler->invoke(2, [&](const ReplyInfo& r) { out = r; });
  sim_.run_for(sec(1));
  EXPECT_FALSE(out.has_value());
  add_replica(1, msec(5));
  sim_.run_for(sec(1));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->result, 2);
}

TEST_F(PassiveTest, DoubleCrashFailsOverTwice) {
  auto& r1 = add_replica(1, msec(400));
  auto& r2 = add_replica(2, msec(400));
  add_replica(3, msec(10));
  auto handler = make_handler();
  std::optional<ReplyInfo> out;
  handler->invoke(6, [&](const ReplyInfo& r) { out = r; });
  sim_.schedule_after(msec(50), [&] { r1.crash_host(); });
  // r2 becomes primary at ~550ms and starts servicing; kill it too.
  sim_.schedule_after(msec(700), [&] { r2.crash_host(); });
  sim_.run_for(sec(10));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->replica, ReplicaId{3});
  EXPECT_EQ(handler->redispatches(), 2u);
}

}  // namespace
}  // namespace aqua::gateway
