// Tests of the voting preset (AQuA's active handler on the request
// engine): majority delivery, value-fault masking, crash handling,
// tie/timeout behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "gateway/timing_fault_handler.h"
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

  std::unique_ptr<TimingFaultHandler> make_handler(Duration vote_timeout = sec(2)) {
    auto handler = make_voting_handler(sim_, lan_, group_, ClientId{1}, HostId{1}, vote_timeout);
    sim_.run_for(msec(50));  // let the Announce handshake settle
    return handler;
  }

  /// A vote is decided iff a Deliver fired, which sets response_time.
  static RequestRecord record_of(const TimingFaultHandler& handler, RequestId id) {
    const auto& history = handler.history();
    auto it = std::find_if(history.begin(), history.end(),
                           [id](const RequestRecord& r) { return r.request == id; });
    EXPECT_NE(it, history.end());
    return it == history.end() ? RequestRecord{} : *it;
  }
  /// Repliers behind the delivered value: a vote completes on the reply
  /// that brings one value to the majority of |K| (0 when undecided).
  static std::size_t votes(const RequestRecord& record) {
    return record.response_time.has_value() ? record.redundancy / 2 + 1 : 0;
  }
  /// Repliers whose value lost (all of them when undecided).
  static std::size_t dissenting(const RequestRecord& record) {
    return record.chunks_received - votes(record);
  }
  static std::size_t undecided(const TimingFaultHandler& handler) {
    return static_cast<std::size_t>(
        std::count_if(handler.history().begin(), handler.history().end(),
                      [](const RequestRecord& r) { return !r.response_time.has_value(); }));
  }

  sim::Simulator sim_;
  net::Lan lan_;
  net::MulticastGroup group_;
  std::vector<std::unique_ptr<replica::ReplicaServer>> replicas_;
};

TEST_F(VotingTest, DeliversMajorityValue) {
  for (std::uint64_t i = 1; i <= 3; ++i) add_replica(i, msec(10 * static_cast<std::int64_t>(i)));
  auto handler = make_handler();
  std::optional<ReplyInfo> out;
  const RequestId id = handler->invoke(42, [&](const ReplyInfo& r) { out = r; });
  sim_.run_for(sec(3));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->result, 42);
  const RequestRecord record = record_of(*handler, id);
  EXPECT_EQ(record.redundancy, 3u);
  EXPECT_GE(votes(record), 2u);
  EXPECT_EQ(dissenting(record), 0u);
}

TEST_F(VotingTest, WaitsForMajorityNotFirstReply) {
  // Replicas reply at 10/50/90ms; majority (2 of 3) forms at ~50ms — the
  // voting handler cannot be as fast as the first reply.
  add_replica(1, msec(10));
  add_replica(2, msec(50));
  add_replica(3, msec(90));
  auto handler = make_handler();
  std::optional<ReplyInfo> out;
  handler->invoke(7, [&](const ReplyInfo& r) { out = r; });
  sim_.run_for(sec(3));
  ASSERT_TRUE(out.has_value());
  EXPECT_GE(out->response_time, msec(50));
  EXPECT_LT(out->response_time, msec(90));
}

TEST_F(VotingTest, MasksSingleValueFault) {
  replica::ReplicaConfig faulty;
  faulty.value_fault_rate = 1.0;  // always corrupts
  add_replica(1, msec(5), faulty);  // fastest, always wrong
  add_replica(2, msec(20));
  add_replica(3, msec(30));
  auto handler = make_handler();
  for (int i = 0; i < 10; ++i) {
    std::optional<ReplyInfo> out;
    const RequestId id = handler->invoke(i, [&](const ReplyInfo& r) { out = r; });
    sim_.run_for(sec(1));
    ASSERT_TRUE(out.has_value()) << "request " << i;
    EXPECT_EQ(out->result, i) << "corrupted value won the vote";
    EXPECT_EQ(dissenting(record_of(*handler, id)), 1u);
  }
}

TEST_F(VotingTest, MasksCrashDuringRequest) {
  auto& doomed = add_replica(1, msec(5));
  add_replica(2, msec(30));
  add_replica(3, msec(40));
  auto handler = make_handler();
  std::optional<ReplyInfo> out;
  handler->invoke(9, [&](const ReplyInfo& r) { out = r; });
  sim_.schedule_after(msec(1), [&] { doomed.crash_process(); });
  sim_.run_for(sec(3));
  // 2 of 3 dispatched replies still form a majority.
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->result, 9);
}

TEST_F(VotingTest, TieFailsFast) {
  replica::ReplicaConfig faulty;
  faulty.value_fault_rate = 1.0;
  add_replica(1, msec(5), faulty);
  add_replica(2, msec(10));
  auto handler = make_handler();
  bool delivered = false;
  const RequestId id = handler->invoke(3, [&](const ReplyInfo&) { delivered = true; });
  // Failed fast once both replies were in, far before the 2s timeout.
  sim_.run_for(sec(1));
  EXPECT_EQ(handler->failure_tracker().failures(), 1u);
  sim_.run_for(sec(4));
  EXPECT_FALSE(delivered);  // 1 vs 1: no majority of 2
  EXPECT_EQ(dissenting(record_of(*handler, id)), 2u);
  EXPECT_EQ(undecided(*handler), 1u);
}

TEST_F(VotingTest, TimeoutWhenMajorityCrashes) {
  auto& r1 = add_replica(1, msec(500));
  auto& r2 = add_replica(2, msec(500));
  add_replica(3, msec(10));
  auto handler = make_handler(msec(800));
  bool delivered = false;
  const RequestId id = handler->invoke(5, [&](const ReplyInfo&) { delivered = true; });
  // Two of the three crash before servicing: only one reply can ever
  // arrive, short of the majority threshold of 2.
  sim_.schedule_after(msec(50), [&] {
    r1.crash_process();
    r2.crash_process();
  });
  // Waits out the vote timeout: nothing is decided before it.
  sim_.run_for(msec(799));
  EXPECT_EQ(handler->failure_tracker().total(), 0u);
  sim_.run_for(sec(5) - msec(799));
  EXPECT_EQ(handler->failure_tracker().failures(), 1u);
  EXPECT_FALSE(delivered);
  const RequestRecord record = record_of(*handler, id);
  EXPECT_FALSE(record.response_time.has_value());
  EXPECT_EQ(dissenting(record), 1u);  // the lone honest reply
}

TEST_F(VotingTest, SequentialInvocationsKeepIndependentTallies) {
  add_replica(1, msec(5));
  add_replica(2, msec(10));
  add_replica(3, msec(15));
  auto handler = make_handler();
  for (int i = 0; i < 5; ++i) {
    std::optional<ReplyInfo> out;
    handler->invoke(100 + i, [&](const ReplyInfo& r) { out = r; });
    sim_.run_for(sec(1));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->result, 100 + i);
  }
  EXPECT_EQ(handler->history().size(), 5u);
  EXPECT_EQ(undecided(*handler), 0u);
}

TEST_F(VotingTest, DiscoversLateReplicas) {
  auto handler = make_handler();
  EXPECT_EQ(handler->known_replicas(), 0u);
  add_replica(1, msec(5));
  add_replica(2, msec(5));
  sim_.run_for(msec(50));
  EXPECT_EQ(handler->known_replicas(), 2u);
  std::optional<ReplyInfo> out;
  handler->invoke(1, [&](const ReplyInfo& r) { out = r; });
  sim_.run_for(sec(1));
  EXPECT_TRUE(out.has_value());
}

TEST_F(VotingTest, RequestParkedUntilFirstAnnounce) {
  auto handler = make_handler();
  std::optional<ReplyInfo> out;
  handler->invoke(8, [&](const ReplyInfo& r) { out = r; });
  sim_.run_for(msec(100));
  add_replica(1, msec(5));
  add_replica(2, msec(5));
  sim_.run_for(sec(2));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->result, 8);
}

}  // namespace
}  // namespace aqua::gateway
