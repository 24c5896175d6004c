// Chaos tier for MDS-coded dispatch: golden per-seed completion counts
// under a scripted mid-run crash, the k-1-chunks-then-crash stall path
// (the collector must fall back to redispatch, never hang), and the
// threaded/UDP runtimes driving the chunk machinery from real threads
// (this file runs again under ThreadSanitizer via tools/run_checks.sh).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "gateway/system.h"
#include "gateway/timing_fault_handler.h"
#include "net/group.h"
#include "net/lan.h"
#include "net/udp_transport.h"
#include "replica/replica_server.h"
#include "replica/service_model.h"
#include "runtime/threaded_system.h"
#include "sim/simulator.h"
#include "stats/variates.h"

namespace aqua::fault {
namespace {

TEST(CodedDispatchChaosTest, GoldenPerSeedCompletionCountsUnderCrash) {
  // Ten seeds of a noisy coded workload with a replica crash mid-run.
  // Liveness is absolute (every request completes: redispatch covers
  // chunks lost to the crash); the timely counts are pinned as goldens so
  // a behavioural drift in the collector, the chunk-sized service model,
  // or the view-change fallback shows up as an exact-count diff.
  struct SeedGolden {
    std::uint64_t seed;
    std::size_t timely;
  };
  const std::vector<SeedGolden> goldens = {
      {1, 26}, {2, 26}, {3, 29}, {4, 28}, {5, 28},
      {6, 26}, {7, 28}, {8, 26}, {9, 28}, {10, 25},
  };
  constexpr std::size_t kRequests = 30;
  for (const SeedGolden& golden : goldens) {
    gateway::SystemConfig sys_cfg;
    sys_cfg.seed = golden.seed;
    gateway::AquaSystem system{sys_cfg};
    for (int r = 0; r < 5; ++r) {
      system.add_replica(replica::make_sampled_service(
          stats::make_truncated_normal(msec(100), msec(50))));
    }

    gateway::HandlerConfig handler_cfg;
    handler_cfg.dispatch.completion = core::CompletionSpec::k_of_n(2);

    gateway::ClientWorkload workload;
    workload.total_requests = kRequests;
    workload.think_time = stats::make_constant(msec(50));
    // A 70ms deadline sits inside the chunk response distribution (~50ms
    // mean service after the 1/k cut, plus queueing), so the timely count
    // is genuinely seed-dependent and pins the whole chunk path.
    gateway::ClientApp& app = system.add_client(core::QosSpec{msec(70), 0.9}, workload,
                                                handler_cfg, core::make_random_policy(4));

    system.simulator().schedule_after(sec(3), [&] { system.replicas()[4]->crash_host(); });
    ASSERT_TRUE(system.run_until_clients_done(sec(300))) << "seed " << golden.seed;

    const trace::ClientRunReport report = app.report();
    EXPECT_EQ(report.requests, kRequests) << "seed " << golden.seed;
    EXPECT_EQ(report.answered, kRequests) << "seed " << golden.seed;
    EXPECT_EQ(report.requests - report.timing_failures, golden.timely)
        << "seed " << golden.seed;
  }
}

class CodedStallTest : public ::testing::Test {
 protected:
  CodedStallTest() : lan_(sim_, Rng{1}, quiet_config()), group_(sim_, lan_, GroupId{1}) {}

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

  sim::Simulator sim_;
  net::Lan lan_;
  net::MulticastGroup group_;
  std::vector<std::unique_ptr<replica::ReplicaServer>> replicas_;
};

TEST_F(CodedStallTest, KMinusOneChunksThenCrashFallsBackToRedispatch) {
  // The stall path: k=2, one chunk lands, then every replica still owing
  // a chunk crashes. reachable = 1 distinct + 0 awaiting < 2 required, so
  // the view change must redispatch — the rateless code hands the
  // survivor a FRESH chunk index, its second distinct chunk completes the
  // request. The failure mode this pins down: treating "a reply arrived"
  // as "no rescue needed" and hanging forever at k-1 chunks.
  auto stall = std::make_shared<stats::LoadModulation>();
  add_replica(1, stats::make_constant(msec(10)));
  add_replica(2, stats::make_modulated_sampler(stats::make_constant(msec(30)), stall));
  add_replica(3, stats::make_modulated_sampler(stats::make_constant(msec(30)), stall));

  gateway::HandlerConfig cfg;
  cfg.dispatch.completion = core::CompletionSpec::k_of_n(2);
  gateway::TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                                      core::QosSpec{sec(5), 0.9}, Rng{9}, cfg,
                                      core::make_all_replicas_policy()};
  sim_.run_for(msec(50));  // discovery
  for (int i = 0; i < 3; ++i) {  // warm the windows (cold starts stay uncoded)
    handler.invoke(i, [](const gateway::ReplyInfo&) {});
    sim_.run_for(sec(1));
  }

  stall->set_extra(sec(60));  // replicas 2 and 3 will never answer
  bool answered = false;
  ReplicaId completer{};
  handler.invoke(42, [&](const gateway::ReplyInfo& info) {
    answered = true;
    completer = info.replica;
  });
  sim_.run_for(msec(100));
  // Replica 1's chunk (5ms service) has landed; k-1 of k collected.
  ASSERT_FALSE(answered);
  const gateway::RequestRecord& before = handler.history().back();
  EXPECT_EQ(before.code_k, 2u);
  EXPECT_EQ(before.chunks_received, 1u);

  replicas_[1]->crash_host();
  replicas_[2]->crash_host();
  // Failure detection (~500ms) triggers the view change; the redispatch
  // to the survivor completes the request far inside this window.
  sim_.run_for(sec(3));

  ASSERT_TRUE(answered);
  EXPECT_EQ(completer, ReplicaId{1});
  const gateway::RequestRecord& record = handler.history().back();
  EXPECT_TRUE(record.redispatched);
  EXPECT_EQ(record.code_k, 2u);
  EXPECT_GE(record.chunks_received, 2u);
  ASSERT_TRUE(record.response_time.has_value());
}

TEST_F(CodedStallTest, ChunkSentBeforeARedispatchIsTimedFromItsOwnSend) {
  // k=3 over four replicas. Replica 1 lands its chunk, replicas 3 and 4
  // crash, and replica 2 is still serving its (slow) chunk: 1 distinct +
  // 1 awaited < 3, so the view change redispatches fresh chunks at ~600
  // ms. Replica 2's ORIGINAL chunk answers after that; its t_d must be
  // timed from its own send at t0, not from the redispatch's t1 (which
  // would make it hugely negative and clamp it to zero).
  auto slow = std::make_shared<stats::LoadModulation>();
  auto stall = std::make_shared<stats::LoadModulation>();
  add_replica(1, stats::make_constant(msec(10)));
  add_replica(2, stats::make_modulated_sampler(stats::make_constant(msec(30)), slow));
  add_replica(3, stats::make_modulated_sampler(stats::make_constant(msec(30)), stall));
  add_replica(4, stats::make_modulated_sampler(stats::make_constant(msec(30)), stall));

  gateway::HandlerConfig cfg;
  cfg.dispatch.completion = core::CompletionSpec::k_of_n(3);
  gateway::TimingFaultHandler handler{sim_, lan_, group_, ClientId{1}, HostId{1},
                                      core::QosSpec{sec(5), 0.9}, Rng{9}, cfg,
                                      core::make_all_replicas_policy()};
  sim_.run_for(msec(50));  // discovery
  for (int i = 0; i < 3; ++i) {
    handler.invoke(i, [](const gateway::ReplyInfo&) {});
    sim_.run_for(sec(1));
  }

  slow->set_extra(msec(2400));  // a chunk carries a third: ~810 ms of service
  stall->set_extra(sec(60));
  bool answered = false;
  handler.invoke(42, [&](const gateway::ReplyInfo&) { answered = true; });
  sim_.run_for(msec(100));
  ASSERT_EQ(handler.history().back().chunks_received, 1u);
  replicas_[2]->crash_host();
  replicas_[3]->crash_host();
  // Failure detection, redispatch, then replica 2's first chunk at ~810
  // ms; its second (queued behind the first) is still in service.
  sim_.run_for(msec(1100));

  ASSERT_TRUE(answered);
  EXPECT_TRUE(handler.history().back().redispatched);
  const Duration td = handler.repository().observe(ReplicaId{2}).gateway_delay;
  EXPECT_GT(td, Duration::zero());
  EXPECT_LT(td, msec(10));
  EXPECT_EQ(handler.td_clamped(), 0u);
}

TEST(CodedDispatchThreadedTest, InProcessCodedWorkloadCompletes) {
  runtime::ThreadedSystemConfig cfg;
  cfg.client.dispatch.completion = core::CompletionSpec::k_of_n(2);
  runtime::ThreadedSystem system{cfg};
  system.add_replica(stats::make_constant(msec(2)));
  system.add_replica(stats::make_constant(msec(3)));
  system.add_replica(stats::make_constant(msec(12)));
  system.add_client(core::QosSpec{msec(150), 0.5});
  system.add_client(core::QosSpec{msec(150), 0.5});

  const auto stats = system.run_workload(20, msec(1));
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.requests, 20u);
    EXPECT_EQ(s.answered, 20u);
  }
}

TEST(CodedDispatchThreadedTest, UdpCodedCancelWorkloadCompletes) {
  net::UdpTransportConfig udp_cfg;
  udp_cfg.retransmit_initial = msec(5);
  udp_cfg.retransmit_backoff = 1.5;
  udp_cfg.max_attempts = 3;
  udp_cfg.retransmit_tick = msec(2);
  net::UdpTransport udp{udp_cfg};

  runtime::ThreadedSystemConfig cfg;
  cfg.transport = &udp;
  cfg.client.dispatch.completion = core::CompletionSpec::k_of_n(2);
  cfg.client.dispatch.cancel_on_first_reply = true;  // cancels fire at the k-th chunk
  runtime::ThreadedSystem system{cfg};
  system.add_replica(stats::make_constant(msec(2)));
  system.add_replica(stats::make_constant(msec(3)));
  system.add_replica(stats::make_constant(msec(20)));
  system.add_client(core::QosSpec{msec(150), 0.5});

  const auto stats = system.run_workload(15, msec(1));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].requests, 15u);
  EXPECT_EQ(stats[0].answered, 15u);
  // A purge can only follow a cancel; chunk copies in service are never
  // interrupted.
  std::uint64_t purged = 0;
  for (auto* replica : system.replicas()) purged += replica->purged();
  std::uint64_t cancels = 0;
  for (auto* client : system.clients()) cancels += client->cancels_sent();
  EXPECT_LE(purged, cancels);
}

}  // namespace
}  // namespace aqua::fault
