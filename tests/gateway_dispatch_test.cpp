// Speculative-redundancy dispatch modes in the timing fault handler:
// hedged requests (primary first, rest of K behind a hedge timer),
// cancel-on-first-reply (proto::Cancel purges queued copies, never one
// already in service), utilization-adaptive redundancy trimming, and the
// completion-predicate family (first-of-n identity, k-of-n coded chunks,
// quorum).
#include <gtest/gtest.h>

#include <memory>

#include "gateway/system.h"
#include "gateway/timing_fault_handler.h"
#include "net/group.h"
#include "net/lan.h"
#include "replica/replica_server.h"
#include "sim/simulator.h"
#include "stats/variates.h"

namespace aqua::gateway {
namespace {

class DispatchTest : public ::testing::Test {
 protected:
  DispatchTest() : lan_(sim_, Rng{1}, quiet_config()), group_(sim_, lan_, GroupId{1}) {}

  static net::LanConfig quiet_config() {
    net::LanConfig cfg;
    cfg.jitter_sigma = 0.0;
    return cfg;
  }

  replica::ReplicaServer& add_replica(std::uint64_t id, stats::SamplerPtr service) {
    replicas_.push_back(std::make_unique<replica::ReplicaServer>(
        sim_, lan_, group_, ReplicaId{id}, HostId{id + 100},
        replica::make_sampled_service(std::move(service)), Rng{id}));
    return *replicas_.back();
  }

  replica::ReplicaServer& add_replica(std::uint64_t id, Duration service_time) {
    return add_replica(id, stats::make_constant(service_time));
  }

  /// Fill every window so later selections are warm (hedging and
  /// trimming never apply to cold starts).
  void warm_up(TimingFaultHandler& handler, int rounds = 3) {
    sim_.run_for(msec(50));  // Announce discovery
    for (int i = 0; i < rounds; ++i) {
      handler.invoke(i, [](const ReplyInfo&) {});
      sim_.run_for(sec(1));
    }
  }

  sim::Simulator sim_;
  net::Lan lan_;
  net::MulticastGroup group_;
  std::vector<std::unique_ptr<replica::ReplicaServer>> replicas_;
};

TEST_F(DispatchTest, WarmHedgedDispatchHoldsBackupsWhenPrimaryAnswersInTime) {
  add_replica(1, msec(10));
  add_replica(2, msec(30));
  add_replica(3, msec(30));
  HandlerConfig cfg;
  cfg.dispatch.mode = core::DispatchMode::kHedged;
  // Keep the hedge timer comfortably past the 10ms primary's response so
  // the holdback is deterministic under the quiet LAN.
  cfg.dispatch.min_hedge_fraction = 0.25;
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{msec(200), 0.9}, Rng{9}, cfg};
  warm_up(handler);

  bool answered = false;
  handler.invoke(42, [&](const ReplyInfo&) { answered = true; });
  sim_.run_for(sec(1));

  ASSERT_TRUE(answered);
  const RequestRecord& record = handler.history().back();
  EXPECT_TRUE(record.hedged);
  // The fast primary answered inside its own predicted tail: the backups
  // were never transmitted.
  EXPECT_FALSE(record.hedge_fired);
  EXPECT_EQ(handler.hedges_fired(), 0u);
  // Redundancy still reports the full plan (primary + held-back hedges).
  EXPECT_GE(record.redundancy, 2u);
}

TEST_F(DispatchTest, HedgeTimerFiresWhenPrimaryStalls) {
  // The primary's service time is modulated: fast during warm-up (so it
  // ranks best and its predicted tail is short), then stalled far past
  // its own 95th percentile.
  auto stall = std::make_shared<stats::LoadModulation>();
  add_replica(1, stats::make_modulated_sampler(stats::make_constant(msec(10)), stall));
  add_replica(2, msec(30));
  add_replica(3, msec(30));
  HandlerConfig cfg;
  cfg.dispatch.mode = core::DispatchMode::kHedged;
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{msec(400), 0.9}, Rng{9}, cfg};
  warm_up(handler, 5);

  stall->set_extra(msec(300));
  bool answered = false;
  ReplicaId first{};
  handler.invoke(42, [&](const ReplyInfo& info) {
    answered = true;
    first = info.replica;
  });
  sim_.run_for(sec(2));

  ASSERT_TRUE(answered);
  EXPECT_GE(handler.hedges_fired(), 1u);
  const RequestRecord& record = handler.history().back();
  EXPECT_TRUE(record.hedged);
  EXPECT_TRUE(record.hedge_fired);
  // A backup beat the stalled primary.
  EXPECT_NE(first, ReplicaId{1});
}

TEST_F(DispatchTest, HedgeCopyGatewayDelayExcludesTheHedgeWait) {
  // As above: the primary stalls, the hedge fires at >= 20 ms (5% of the
  // 400 ms deadline) and a backup answers. Each backup's t_d is timed
  // from its own copy's send, so it holds the LAN round trip (a few ms on
  // the quiet LAN) and none of the hedge wait.
  auto stall = std::make_shared<stats::LoadModulation>();
  add_replica(1, stats::make_modulated_sampler(stats::make_constant(msec(10)), stall));
  add_replica(2, msec(30));
  add_replica(3, msec(30));
  HandlerConfig cfg;
  cfg.dispatch.mode = core::DispatchMode::kHedged;
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{msec(400), 0.9}, Rng{9}, cfg};
  warm_up(handler, 5);

  stall->set_extra(msec(300));
  ReplicaId first{};
  handler.invoke(42, [&](const ReplyInfo& info) { first = info.replica; });
  sim_.run_for(msec(200));  // the backups answered; the primary has not

  ASSERT_TRUE(handler.history().back().hedge_fired);
  ASSERT_NE(first, ReplicaId{}) << "no backup answered";
  ASSERT_NE(first, ReplicaId{1});
  for (ReplicaId backup : {ReplicaId{2}, ReplicaId{3}}) {
    const Duration td = handler.repository().observe(backup).gateway_delay;
    EXPECT_GT(td, Duration::zero()) << "replica " << backup.value();
    EXPECT_LT(td, msec(10)) << "replica " << backup.value();
  }
  EXPECT_EQ(handler.td_clamped(), 0u);
}

TEST_F(DispatchTest, CrashedPrimaryFiresHedgeImmediately) {
  auto stall = std::make_shared<stats::LoadModulation>();
  add_replica(1, stats::make_modulated_sampler(stats::make_constant(msec(10)), stall));
  add_replica(2, msec(30));
  add_replica(3, msec(30));
  HandlerConfig cfg;
  cfg.dispatch.mode = core::DispatchMode::kHedged;
  // Long max fraction so the view change, not the timer, must rescue it.
  cfg.dispatch.min_hedge_fraction = 0.5;
  cfg.dispatch.max_hedge_fraction = 0.9;
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{sec(2), 0.9}, Rng{9}, cfg};
  warm_up(handler, 5);

  stall->set_extra(sec(10));  // the primary will never answer in time
  bool answered = false;
  handler.invoke(42, [&](const ReplyInfo&) { answered = true; });
  sim_.run_for(msec(50));
  ASSERT_FALSE(answered);
  replicas_[0]->crash_host();
  // Failure detection takes 500ms; the released backups answer ~30ms
  // later. 800ms is still well short of the 1s hedge timer (0.5 x 2s
  // deadline), so only the view change can have rescued the request.
  sim_.run_for(msec(800));

  // The membership change routed the held-back copies out at once; a
  // backup answered well before the hedge timer would have fired.
  EXPECT_TRUE(answered);
  EXPECT_GE(handler.hedges_fired(), 1u);
}

TEST_F(DispatchTest, CancelOnFirstReplyPurgesQueuedCopyOnly) {
  replica::ReplicaServer& fast = add_replica(1, msec(50));
  replica::ReplicaServer& slow = add_replica(2, msec(150));
  HandlerConfig cfg;
  cfg.dispatch.cancel_on_first_reply = true;
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{msec(500), 0.9}, Rng{9}, cfg};
  sim_.run_for(msec(50));  // discovery

  // Two back-to-back requests, both multicast to both replicas. Request A
  // goes into service at both immediately; request B queues behind it.
  int answered = 0;
  handler.invoke(1, [&](const ReplyInfo&) { ++answered; });
  sim_.run_for(msec(2));
  handler.invoke(2, [&](const ReplyInfo&) { ++answered; });
  sim_.run_for(sec(2));

  EXPECT_EQ(answered, 2);
  EXPECT_GE(handler.cancels_sent(), 2u);
  // A's cancel reached the slow replica mid-service: ignored, the copy
  // ran to completion. B's cancel found the copy still queued: purged.
  EXPECT_GE(slow.cancels_ignored(), 1u);
  EXPECT_EQ(slow.purged_requests(), 1u);
  EXPECT_EQ(fast.purged_requests(), 0u);
  // The purged copy never consumed service time: the slow replica
  // serviced only request A.
  EXPECT_EQ(slow.serviced_requests(), 1u);
  EXPECT_EQ(fast.serviced_requests(), 2u);
}

TEST_F(DispatchTest, CancelNeverInterruptsARequestInService) {
  replica::ReplicaServer& fast = add_replica(1, msec(20));
  replica::ReplicaServer& slow = add_replica(2, msec(200));
  HandlerConfig cfg;
  cfg.dispatch.cancel_on_first_reply = true;
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{msec(500), 0.9}, Rng{9}, cfg};
  sim_.run_for(msec(50));

  bool answered = false;
  handler.invoke(7, [&](const ReplyInfo&) { answered = true; });
  sim_.run_for(sec(1));

  ASSERT_TRUE(answered);
  EXPECT_GE(handler.cancels_sent(), 1u);
  // Both copies went straight into service; the cancel that raced the
  // slow replica's execution was ignored and its service completed.
  EXPECT_EQ(slow.purged_requests(), 0u);
  EXPECT_GE(slow.cancels_ignored(), 1u);
  EXPECT_EQ(slow.serviced_requests(), 1u);
  EXPECT_EQ(fast.serviced_requests(), 1u);
}

TEST_F(DispatchTest, AdaptiveRedundancyTrimsWhenQueuesAreDeep) {
  for (std::uint64_t id = 1; id <= 4; ++id) add_replica(id, msec(100));
  HandlerConfig cfg;
  cfg.dispatch.adaptive_redundancy = true;
  cfg.dispatch.overload_queue_threshold = 1;
  cfg.dispatch.overload_redundancy_cap = 2;
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{sec(2), 0.9}, Rng{9}, cfg};
  sim_.run_for(msec(50));

  // A burst with no think time piles copies into every queue; the
  // piggybacked queue lengths flow back with each reply.
  int answered = 0;
  for (int i = 0; i < 6; ++i) {
    handler.invoke(i, [&](const ReplyInfo&) { ++answered; });
    sim_.run_for(msec(5));
  }
  sim_.run_for(sec(5));
  ASSERT_GT(answered, 0);

  // With the windows now reporting deep queues, the next dispatch is
  // trimmed to the cap.
  handler.invoke(99, [&](const ReplyInfo&) { ++answered; });
  sim_.run_for(sec(5));
  const RequestRecord& record = handler.history().back();
  EXPECT_LE(record.redundancy, 2u);
  EXPECT_EQ(answered, 7);
}

TEST_F(DispatchTest, DefaultConfigReportsNoSpeculativeActivity) {
  add_replica(1, msec(10));
  add_replica(2, msec(10));
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{msec(200), 0.9}, Rng{9}};
  warm_up(handler);
  int answered = 0;
  for (int i = 0; i < 5; ++i) {
    handler.invoke(i, [&](const ReplyInfo&) { ++answered; });
    sim_.run_for(msec(500));
  }
  EXPECT_EQ(answered, 5);
  EXPECT_EQ(handler.hedges_fired(), 0u);
  EXPECT_EQ(handler.cancels_sent(), 0u);
  for (const RequestRecord& record : handler.history()) {
    EXPECT_FALSE(record.hedged);
    EXPECT_FALSE(record.hedge_fired);
    EXPECT_EQ(record.cancels_sent, 0u);
  }
  for (const auto& replica : replicas_) {
    EXPECT_EQ(replica->purged_requests(), 0u);
    EXPECT_EQ(replica->cancels_ignored(), 0u);
  }
}

// --- Completion predicates --------------------------------------------

/// Run a small noisy two-client workload and return the measured client's
/// full request log, for record-by-record identity comparison.
std::vector<RequestRecord> run_history(const HandlerConfig& handler_cfg, std::uint64_t seed) {
  SystemConfig sys_cfg;
  sys_cfg.seed = seed;
  AquaSystem system{sys_cfg};
  for (int r = 0; r < 4; ++r) {
    system.add_replica(
        replica::make_sampled_service(stats::make_truncated_normal(msec(80), msec(40))));
  }
  ClientWorkload workload;
  workload.total_requests = 20;
  workload.think_time = stats::make_constant(msec(120));
  system.add_client(core::QosSpec{msec(200), 0.0}, workload, handler_cfg);
  ClientApp& app = system.add_client(core::QosSpec{msec(150), 0.9}, workload, handler_cfg);
  EXPECT_TRUE(system.run_until_clients_done(sec(120)));
  return app.handler().history();
}

TEST(CompletionIdentityTest, ExplicitFirstOfNIsBitIdenticalToDefaultDispatch) {
  // The tentpole's identity guarantee at the request-log level: routing
  // every reply through the ReplyCollector with an EXPLICIT first_of_n
  // spec must reproduce the default config's history bit for bit — same
  // timestamps, same K, same response times, no extra events or draws.
  HandlerConfig default_cfg;
  HandlerConfig explicit_cfg;
  explicit_cfg.dispatch.completion = core::CompletionSpec::first_of_n();
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const std::vector<RequestRecord> lhs = run_history(default_cfg, seed);
    const std::vector<RequestRecord> rhs = run_history(explicit_cfg, seed);
    ASSERT_EQ(lhs.size(), rhs.size()) << "seed " << seed;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].request, rhs[i].request) << "seed " << seed << " record " << i;
      EXPECT_EQ(lhs[i].intercepted_at, rhs[i].intercepted_at) << "record " << i;
      EXPECT_EQ(lhs[i].transmitted_at, rhs[i].transmitted_at) << "record " << i;
      EXPECT_EQ(lhs[i].redundancy, rhs[i].redundancy) << "record " << i;
      EXPECT_EQ(lhs[i].cold_start, rhs[i].cold_start) << "record " << i;
      EXPECT_EQ(lhs[i].feasible, rhs[i].feasible) << "record " << i;
      EXPECT_EQ(lhs[i].predicted_probability, rhs[i].predicted_probability)
          << "record " << i;
      EXPECT_EQ(lhs[i].redispatched, rhs[i].redispatched) << "record " << i;
      EXPECT_EQ(lhs[i].response_time, rhs[i].response_time) << "record " << i;
      EXPECT_EQ(lhs[i].timely, rhs[i].timely) << "record " << i;
      // first_of_n is uncoded: no chunk machinery may leak into either.
      EXPECT_EQ(lhs[i].code_k, 0u) << "record " << i;
      EXPECT_EQ(rhs[i].code_k, 0u) << "record " << i;
    }
  }
}

TEST_F(DispatchTest, CodedDispatchCompletesAtKthDistinctChunk) {
  add_replica(1, msec(10));
  add_replica(2, msec(30));
  add_replica(3, msec(200));
  HandlerConfig cfg;
  cfg.dispatch.completion = core::CompletionSpec::k_of_n(2);
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{msec(400), 0.9}, Rng{9}, cfg,
                             core::make_all_replicas_policy()};
  warm_up(handler);

  bool answered = false;
  handler.invoke(42, [&](const ReplyInfo&) { answered = true; });
  // After 60ms (plus LAN hops) the 10ms and 30ms replicas have answered
  // their chunks; the 200ms replica has not. Two distinct chunks = done.
  sim_.run_for(msec(60));
  EXPECT_TRUE(answered);
  sim_.run_for(sec(1));

  const RequestRecord& record = handler.history().back();
  EXPECT_EQ(record.code_k, 2u);
  EXPECT_EQ(record.redundancy, 3u);
  // The straggler's chunk still arrives and is counted (as a duplicate of
  // a complete request), but delivery happened at chunk #2.
  EXPECT_GE(record.chunks_received, 2u);
  ASSERT_TRUE(record.response_time.has_value());
  // Chunk service is 1/k of the full demand: the 30ms replica's chunk
  // takes ~15ms, so completion is far below the full-copy 30ms floor plus
  // both LAN hops.
  EXPECT_LT(*record.response_time, msec(30));
}

TEST_F(DispatchTest, CodedCancelFiresAtKthChunkAndPurgesTheStraggler) {
  add_replica(1, msec(10));
  add_replica(2, msec(30));
  replica::ReplicaServer& straggler = add_replica(3, msec(400));
  HandlerConfig cfg;
  cfg.dispatch.completion = core::CompletionSpec::k_of_n(2);
  cfg.dispatch.cancel_on_first_reply = true;
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{msec(400), 0.9}, Rng{9}, cfg,
                             core::make_all_replicas_policy()};
  warm_up(handler);  // cold starts stay uncoded; arm on warm selections
  const std::size_t warmup_records = handler.history().size();

  // Two back-to-back requests: request A's chunk occupies the straggler's
  // server, request B's chunk queues behind it. A's completion (at its
  // 2nd chunk) cancels A's straggler copy mid-service (ignored); B's
  // completion cancels B's queued copy (purged).
  int answered = 0;
  handler.invoke(1, [&](const ReplyInfo&) { ++answered; });
  sim_.run_for(msec(2));
  handler.invoke(2, [&](const ReplyInfo&) { ++answered; });
  sim_.run_for(sec(2));

  EXPECT_EQ(answered, 2);
  EXPECT_GE(handler.cancels_sent(), 2u);
  EXPECT_GE(straggler.cancels_ignored(), 1u);
  EXPECT_EQ(straggler.purged_requests(), 1u);
  ASSERT_EQ(handler.history().size(), warmup_records + 2);
  for (std::size_t i = warmup_records; i < handler.history().size(); ++i) {
    const RequestRecord& record = handler.history()[i];
    EXPECT_EQ(record.code_k, 2u);
    EXPECT_GE(record.cancels_sent, 1u);
  }
}

TEST_F(DispatchTest, QuorumRequiresDistinctReplicas) {
  add_replica(1, msec(10));
  add_replica(2, msec(50));
  add_replica(3, msec(90));
  HandlerConfig cfg;
  cfg.dispatch.completion = core::CompletionSpec::quorum(2);
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{msec(400), 0.9}, Rng{9}, cfg,
                             core::make_all_replicas_policy()};
  warm_up(handler);

  bool answered = false;
  handler.invoke(42, [&](const ReplyInfo&) { answered = true; });
  // One reply (the 10ms replica) is not enough for a 2-quorum.
  sim_.run_for(msec(30));
  EXPECT_FALSE(answered);
  sim_.run_for(sec(1));
  EXPECT_TRUE(answered);

  const RequestRecord& record = handler.history().back();
  // Quorum is whole-request replication: no chunking on the wire.
  EXPECT_EQ(record.code_k, 0u);
  EXPECT_EQ(record.chunks_received, 2u);  // distinct voters at delivery
  ASSERT_TRUE(record.response_time.has_value());
  // Delivery waited for the SECOND replica (~50ms service).
  EXPECT_GT(*record.response_time, msec(50));
}

TEST_F(DispatchTest, HedgedCodedDispatchKeepsKPrimaries) {
  add_replica(1, msec(10));
  add_replica(2, msec(12));
  add_replica(3, msec(30));
  add_replica(4, msec(30));
  HandlerConfig cfg;
  cfg.dispatch.mode = core::DispatchMode::kHedged;
  cfg.dispatch.completion = core::CompletionSpec::k_of_n(2);
  cfg.dispatch.min_hedge_fraction = 0.25;
  TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                             core::QosSpec{msec(400), 0.9}, Rng{9}, cfg,
                             core::make_all_replicas_policy()};
  warm_up(handler);

  bool answered = false;
  handler.invoke(42, [&](const ReplyInfo&) { answered = true; });
  sim_.run_for(sec(1));

  ASSERT_TRUE(answered);
  const RequestRecord& record = handler.history().back();
  EXPECT_TRUE(record.hedged);
  EXPECT_EQ(record.code_k, 2u);
  // A coded hedge holds back n-k copies, not n-1: both primaries carry a
  // chunk, they answer inside the hedge window, the backups never fly.
  EXPECT_FALSE(record.hedge_fired);
  EXPECT_EQ(handler.hedges_fired(), 0u);
  EXPECT_EQ(record.redundancy, 4u);
}

}  // namespace
}  // namespace aqua::gateway
