// Tests of the active voting handler: majority delivery, value-fault
// masking, crash handling, tie/timeout behaviour.
#include "gateway/active_voting_handler.h"

#include <gtest/gtest.h>

#include <memory>

#include "replica/replica_server.h"

namespace aqua::gateway {
namespace {

class VotingTest : public ::testing::Test {
 protected:
  VotingTest() : lan_(sim_, Rng{1}, quiet_config()), group_(sim_, lan_, GroupId{1}) {}

  static net::LanConfig quiet_config() {
    net::LanConfig cfg;
    cfg.jitter_sigma = 0.0;
    return cfg;
  }

  replica::ReplicaServer& add_replica(std::uint64_t id, Duration service_time,
                                      replica::ReplicaConfig cfg = {}) {
    replicas_.push_back(std::make_unique<replica::ReplicaServer>(
        sim_, lan_, group_, ReplicaId{id}, HostId{id + 100},
        replica::make_sampled_service(stats::make_constant(service_time)), Rng{id},
        std::move(cfg)));
    return *replicas_.back();
  }

  std::unique_ptr<ActiveVotingHandler> make_handler(VotingConfig cfg = {}) {
    auto handler = std::make_unique<ActiveVotingHandler>(sim_, lan_, group_, ClientId{1},
                                                         HostId{1}, Rng{99}, cfg);
    sim_.run_for(msec(50));  // let the Announce handshake settle
    return handler;
  }

  sim::Simulator sim_;
  net::Lan lan_;
  net::MulticastGroup group_;
  std::vector<std::unique_ptr<replica::ReplicaServer>> replicas_;
};

TEST_F(VotingTest, DeliversMajorityValue) {
  for (std::uint64_t i = 1; i <= 3; ++i) add_replica(i, msec(10 * static_cast<std::int64_t>(i)));
  auto handler = make_handler();
  VotedReply out;
  handler->invoke(42, [&](const VotedReply& r) { out = r; });
  sim_.run_for(sec(3));
  EXPECT_TRUE(out.decided);
  EXPECT_EQ(out.result, 42);
  EXPECT_EQ(out.dispatched, 3u);
  EXPECT_GE(out.votes, 2u);
  EXPECT_EQ(out.dissenting, 0u);
}

TEST_F(VotingTest, WaitsForMajorityNotFirstReply) {
  // Replicas reply at 10/50/90ms; majority (2 of 3) forms at ~50ms — the
  // voting handler cannot be as fast as the first reply.
  add_replica(1, msec(10));
  add_replica(2, msec(50));
  add_replica(3, msec(90));
  auto handler = make_handler();
  VotedReply out;
  handler->invoke(7, [&](const VotedReply& r) { out = r; });
  sim_.run_for(sec(3));
  ASSERT_TRUE(out.decided);
  EXPECT_GE(out.response_time, msec(50));
  EXPECT_LT(out.response_time, msec(90));
}

TEST_F(VotingTest, MasksSingleValueFault) {
  replica::ReplicaConfig faulty;
  faulty.value_fault_rate = 1.0;  // always corrupts
  add_replica(1, msec(5), faulty);  // fastest, always wrong
  add_replica(2, msec(20));
  add_replica(3, msec(30));
  auto handler = make_handler();
  for (int i = 0; i < 10; ++i) {
    VotedReply out;
    handler->invoke(i, [&](const VotedReply& r) { out = r; });
    sim_.run_for(sec(1));
    ASSERT_TRUE(out.decided) << "request " << i;
    EXPECT_EQ(out.result, i) << "corrupted value won the vote";
    EXPECT_EQ(out.dissenting, 1u);
  }
}

TEST_F(VotingTest, MasksCrashDuringRequest) {
  auto& doomed = add_replica(1, msec(5));
  add_replica(2, msec(30));
  add_replica(3, msec(40));
  auto handler = make_handler();
  VotedReply out;
  handler->invoke(9, [&](const VotedReply& r) { out = r; });
  sim_.schedule_after(msec(1), [&] { doomed.crash_process(); });
  sim_.run_for(sec(3));
  // 2 of 3 dispatched replies still form a majority.
  EXPECT_TRUE(out.decided);
  EXPECT_EQ(out.result, 9);
}

TEST_F(VotingTest, TieFailsFast) {
  replica::ReplicaConfig faulty;
  faulty.value_fault_rate = 1.0;
  add_replica(1, msec(5), faulty);
  add_replica(2, msec(10));
  auto handler = make_handler();
  VotedReply out;
  TimePoint delivered_at{};
  handler->invoke(3, [&](const VotedReply& r) {
    out = r;
    delivered_at = sim_.now();
  });
  sim_.run_for(sec(5));
  EXPECT_FALSE(out.decided);  // 1 vs 1: no majority of 2
  EXPECT_EQ(out.dissenting, 2u);
  // Failed fast once both replies were in, far before the 2s timeout.
  EXPECT_LT(delivered_at - TimePoint{}, sec(1));
  EXPECT_EQ(handler->undecided(), 1u);
}

TEST_F(VotingTest, TimeoutWhenMajorityCrashes) {
  auto& r1 = add_replica(1, msec(500));
  auto& r2 = add_replica(2, msec(500));
  add_replica(3, msec(10));
  VotingConfig cfg;
  cfg.vote_timeout = msec(800);
  auto handler = make_handler(cfg);
  VotedReply out;
  handler->invoke(5, [&](const VotedReply& r) { out = r; });
  // Two of the three crash before servicing: only one reply can ever
  // arrive, short of the majority threshold of 2.
  sim_.schedule_after(msec(50), [&] {
    r1.crash_process();
    r2.crash_process();
  });
  sim_.run_for(sec(5));
  EXPECT_FALSE(out.decided);
  EXPECT_EQ(out.dissenting, 1u);        // the lone honest reply
  EXPECT_GE(out.response_time, msec(800));  // waited out the vote timeout
}

TEST_F(VotingTest, SequentialInvocationsKeepIndependentTallies) {
  add_replica(1, msec(5));
  add_replica(2, msec(10));
  add_replica(3, msec(15));
  auto handler = make_handler();
  for (int i = 0; i < 5; ++i) {
    VotedReply out;
    handler->invoke(100 + i, [&](const VotedReply& r) { out = r; });
    sim_.run_for(sec(1));
    EXPECT_TRUE(out.decided);
    EXPECT_EQ(out.result, 100 + i);
  }
  EXPECT_EQ(handler->decided(), 5u);
  EXPECT_EQ(handler->undecided(), 0u);
}

TEST_F(VotingTest, DiscoversLateReplicas) {
  auto handler = make_handler();
  EXPECT_EQ(handler->known_replicas(), 0u);
  add_replica(1, msec(5));
  add_replica(2, msec(5));
  sim_.run_for(msec(50));
  EXPECT_EQ(handler->known_replicas(), 2u);
  VotedReply out;
  handler->invoke(1, [&](const VotedReply& r) { out = r; });
  sim_.run_for(sec(1));
  EXPECT_TRUE(out.decided);
}

TEST_F(VotingTest, RequestParkedUntilFirstAnnounce) {
  auto handler = make_handler();
  VotedReply out;
  handler->invoke(8, [&](const VotedReply& r) { out = r; });
  sim_.run_for(msec(100));
  add_replica(1, msec(5));
  add_replica(2, msec(5));
  sim_.run_for(sec(2));
  EXPECT_TRUE(out.decided);
  EXPECT_EQ(out.result, 8);
}

}  // namespace
}  // namespace aqua::gateway
