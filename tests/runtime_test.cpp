// Threaded-runtime tests. Durations here are milliseconds-scale so the
// suite stays fast while still exercising real threads and sleeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/lan.h"
#include "obs/telemetry.h"
#include "runtime/delayed_executor.h"
#include "runtime/threaded_system.h"

namespace aqua::runtime {
namespace {

Duration median(std::vector<Duration> samples) {
  const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

/// How late a runtime-owned timed wait may end, at the median. The
/// kernel's default 50 µs timer slack overshoots this on every wait; at
/// the runtime's 1 ns slack only the wake-up itself remains.
const Duration kWakeBound = usec(25);

/// Poll `pred` for up to 5 s.
bool wait_until(const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(DelayedExecutorTest, RunsTaskAfterDelay) {
  DelayedExecutor executor;
  std::atomic<bool> ran{false};
  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::int64_t> elapsed_ms{0};
  executor.run_at(steady_now() + msec(30), [&] {
    elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    ran = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_TRUE(ran.load());
  EXPECT_GE(elapsed_ms.load(), 28);
}

TEST(DelayedExecutorTest, TasksRunInDeadlineOrder) {
  DelayedExecutor executor;
  std::mutex m;
  std::vector<int> order;
  executor.run_at(steady_now() + msec(60), [&] {
    std::lock_guard lock(m);
    order.push_back(3);
  });
  executor.run_at(steady_now() + msec(20), [&] {
    std::lock_guard lock(m);
    order.push_back(1);
  });
  executor.run_at(steady_now() + msec(40), [&] {
    std::lock_guard lock(m);
    order.push_back(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::lock_guard lock(m);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(DelayedExecutorTest, ShutdownDiscardsPendingAndRejectsNew) {
  auto executor = std::make_unique<DelayedExecutor>();
  std::atomic<bool> ran{false};
  executor->run_at(steady_now() + sec(10), [&] { ran = true; });
  executor->shutdown();
  EXPECT_FALSE(executor->run_at(steady_now() + msec(1), [] {}));
  executor.reset();
  EXPECT_FALSE(ran.load());
}

TEST(DelayedExecutorTest, TasksRunOnTime) {
  using Clock = std::chrono::steady_clock;
  DelayedExecutor executor;
  std::vector<Duration> lateness;
  for (int i = 0; i < 200; ++i) {
    std::promise<Clock::time_point> ran;
    auto ran_at = ran.get_future();
    const auto due = Clock::now() + usec(100);
    ASSERT_TRUE(
        executor.run_at(steady_now() + usec(100), [&ran] { ran.set_value(Clock::now()); }));
    lateness.push_back(std::chrono::duration_cast<Duration>(ran_at.get() - due));
  }
  EXPECT_LT(median(lateness), kWakeBound);
}

/// A wall-clock Lan with zero-delay hops, for tests that look only at
/// the replica. The executor stops before the Lan is destroyed.
struct NoDelayLan {
  DelayedExecutor executor;
  net::Lan lan{executor, Rng{9}, net::in_process_lan(Duration::zero(), Duration::zero())};

  ~NoDelayLan() { executor.shutdown(); }
};

/// An endpoint callback that hands every proto::Reply to `fn`.
net::ReceiveFn on_reply(std::function<void(const proto::Reply&)> fn) {
  return [fn = std::move(fn)](EndpointId, const net::Payload& message) {
    if (const auto* reply = message.get_if<proto::Reply>()) fn(*reply);
  };
}

TEST(ThreadedReplicaTest, ServicesAndReportsPerf) {
  std::atomic<bool> got{false};
  proto::Reply captured;
  std::mutex m;
  NoDelayLan wire;
  net::Lan& transport = wire.lan;
  const EndpointId client = transport.create_endpoint(HostId{2}, on_reply([&](const proto::Reply& reply) {
    std::lock_guard lock(m);
    captured = reply;
    got = true;
  }));
  ThreadedReplica replica{ReplicaId{1},
                          replica::make_sampled_service(stats::make_constant(msec(5))), Rng{1},
                          transport, HostId{1}};
  proto::Request request{RequestId{1}, ClientId{1}, "invoke", 42};
  ASSERT_TRUE(replica.submit(request, client));
  for (int i = 0; i < 100 && !got; ++i) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(got.load());
  std::lock_guard lock(m);
  EXPECT_EQ(captured.request, RequestId{1});
  EXPECT_EQ(captured.result, 42);
  EXPECT_GE(captured.perf.service_time, msec(5));
  EXPECT_EQ(replica.serviced(), 1u);
}

TEST(ThreadedReplicaTest, CrashStopsService) {
  std::atomic<int> replies{0};
  NoDelayLan wire;
  net::Lan& transport = wire.lan;
  const EndpointId client =
      transport.create_endpoint(HostId{2}, on_reply([&](const proto::Reply&) { ++replies; }));
  ThreadedReplica replica{ReplicaId{1},
                          replica::make_sampled_service(stats::make_constant(msec(50))), Rng{1},
                          transport, HostId{1}};
  proto::Request request{RequestId{1}, ClientId{1}, "invoke", 0};
  replica.submit(request, client);
  replica.crash();
  EXPECT_FALSE(replica.alive());
  EXPECT_FALSE(replica.submit(request, client));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(replies.load(), 0);
}

TEST(ThreadedReplicaTest, ServiceTimeIsTheDraw) {
  // The piggybacked t_s is what Algorithm 1 models: it must be the drawn
  // service, not the draw plus timer slack or wake-up lateness.
  const Duration draw = usec(20);
  constexpr std::size_t kJobs = 200;
  std::mutex m;
  std::condition_variable done;
  std::vector<Duration> service;
  NoDelayLan wire;
  net::Lan& transport = wire.lan;
  const EndpointId client = transport.create_endpoint(HostId{2}, on_reply([&](const proto::Reply& reply) {
    std::lock_guard lock(m);
    service.push_back(reply.perf.service_time);
    done.notify_one();
  }));
  ThreadedReplica replica{ReplicaId{1},
                          replica::make_sampled_service(stats::make_constant(draw)), Rng{1},
                          transport, HostId{1}};
  for (std::size_t i = 0; i < kJobs; ++i) {
    const proto::Request request{RequestId{i + 1}, ClientId{1}, "invoke", 0};
    ASSERT_TRUE(replica.submit(request, client));
  }
  std::unique_lock lock(m);
  ASSERT_TRUE(done.wait_for(lock, std::chrono::seconds(10),
                            [&] { return service.size() == kJobs; }));
  // Every copy finishes exactly its draw after t3: the worker's late
  // wake-up is reply lag, not service.
  for (const Duration s : service) EXPECT_EQ(s, draw);
}

TEST(ThreadedReplicaTest, EndpointServesRequestCancelAndSubscribe) {
  std::mutex m;
  std::vector<proto::Reply> replies;
  std::vector<proto::Announce> announces;
  NoDelayLan wire;
  net::Lan& transport = wire.lan;
  const EndpointId client =
      transport.create_endpoint(HostId{2}, [&](EndpointId, const net::Payload& message) {
        std::lock_guard lock(m);
        if (const auto* reply = message.get_if<proto::Reply>()) replies.push_back(*reply);
        if (const auto* announce = message.get_if<proto::Announce>()) {
          announces.push_back(*announce);
        }
      });
  ThreadedReplica replica{ReplicaId{4},
                          replica::make_sampled_service(stats::make_constant(msec(100))), Rng{1},
                          transport, HostId{1}};
  auto send = [&](auto body) {
    transport.unicast(client, replica.endpoint(), net::Payload::make(body, 64));
  };
  // The first request occupies the worker; the second waits in the queue
  // until the cancel purges it.
  send(proto::Request{RequestId{1}, ClientId{1}, "invoke", 10});
  send(proto::Request{RequestId{2}, ClientId{1}, "invoke", 20});
  ASSERT_TRUE(wait_until([&] { return replica.queue_length() == 1; }));
  send(proto::Cancel{RequestId{2}, ClientId{1}, "invoke"});
  send(proto::Subscribe{ClientId{1}, client});
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(m);
    return replies.size() == 1 && announces.size() == 1;
  }));

  // Purged, so the second request never runs and never replies.
  std::lock_guard lock(m);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].request, RequestId{1});
  EXPECT_EQ(replies[0].result, 10);
  EXPECT_EQ(replica.purged(), 1u);
  EXPECT_EQ(announces[0].replica, ReplicaId{4});
  EXPECT_EQ(announces[0].endpoint, replica.endpoint());
}

TEST(ThreadedReplicaTest, CrashDrainsTheQueue) {
  std::atomic<int> replies{0};
  NoDelayLan wire;
  net::Lan& transport = wire.lan;
  const EndpointId client =
      transport.create_endpoint(HostId{2}, on_reply([&](const proto::Reply&) { ++replies; }));
  ThreadedReplica replica{ReplicaId{1},
                          replica::make_sampled_service(stats::make_constant(msec(50))), Rng{1},
                          transport, HostId{1}};
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(replica.submit(proto::Request{RequestId{i}, ClientId{1}, "invoke", 0}, client));
  }
  ASSERT_TRUE(wait_until([&] { return replica.queue_length() == 2; }));
  replica.crash();
  EXPECT_EQ(replica.queue_length(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(replies.load(), 0);
  EXPECT_EQ(replica.serviced(), 0u);
}

TEST(ThreadedReplicaTest, ShutdownUnblocksTheWorker) {
  // Destruction wakes a worker blocked on an empty queue, and one
  // sleeping through a service, without waiting for queued work.
  NoDelayLan wire;
  net::Lan& transport = wire.lan;
  for (const bool loaded : {false, true}) {
    auto replica = std::make_unique<ThreadedReplica>(
        ReplicaId{1}, replica::make_sampled_service(stats::make_constant(msec(100))), Rng{1},
        transport, HostId{1});
    if (loaded) {
      for (std::uint64_t i = 1; i <= 3; ++i) {
        ASSERT_TRUE(replica->submit(proto::Request{RequestId{i}, ClientId{1}, "invoke", 0}));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto start = std::chrono::steady_clock::now();
    replica.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(250)) << loaded;
  }
}

TEST(ThreadedReplicaTest, ManyProducersOneWorker) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::mutex m;
  std::vector<std::uint64_t> seqs;
  NoDelayLan wire;
  net::Lan& transport = wire.lan;
  const EndpointId client =
      transport.create_endpoint(HostId{2}, on_reply([&](const proto::Reply& reply) {
        std::lock_guard lock(m);
        seqs.push_back(reply.perf.sample_seq);
      }));
  ThreadedReplica replica{ReplicaId{1},
                          replica::make_sampled_service(stats::make_constant(Duration::zero())),
                          Rng{1}, transport, HostId{1}};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto id = static_cast<std::uint64_t>(p * kPerProducer + i + 1);
        const proto::Request request{RequestId{id}, ClientId{1}, "invoke", 0};
        EXPECT_TRUE(replica.submit(request, client));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  constexpr std::size_t kTotal = kProducers * kPerProducer;
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard lock(m);
    return seqs.size() == kTotal;
  }));
  EXPECT_EQ(replica.serviced(), kTotal);
  // One worker numbers its samples 1..n; replies may overtake each other
  // on the way back.
  std::lock_guard lock(m);
  std::sort(seqs.begin(), seqs.end());
  for (std::size_t i = 0; i < kTotal; ++i) ASSERT_EQ(seqs[i], i + 1);
}

class ThreadedClientTest : public ::testing::Test {
 protected:
  ThreadedSystemConfig fast_config() {
    ThreadedSystemConfig cfg;
    cfg.net = net::in_process_lan(usec(200), usec(50));
    return cfg;
  }
};

TEST_F(ThreadedClientTest, InvokeDeliversFirstReply) {
  ThreadedSystem system{fast_config()};
  system.add_replica(stats::make_constant(msec(2)));   // replica 1: fast
  system.add_replica(stats::make_constant(msec(40)));  // replica 2: slow
  ThreadedClient& client = system.add_client(core::QosSpec{msec(100), 0.0});
  // First call is a cold start (fans out to both).
  const auto first = client.invoke(7);
  EXPECT_TRUE(first.answered);
  EXPECT_TRUE(first.cold_start);
  EXPECT_EQ(first.result, 7);
  EXPECT_EQ(first.redundancy, 2u);
  // Warm call: dynamic selection, first reply from the fast replica.
  const auto second = client.invoke(8);
  EXPECT_TRUE(second.answered);
  EXPECT_FALSE(second.cold_start);
  EXPECT_TRUE(second.timely);
  EXPECT_EQ(second.first_replica, ReplicaId{1});
}

TEST_F(ThreadedClientTest, MeasuresRealSelectionOverhead) {
  ThreadedSystem system{fast_config()};
  system.add_replica(stats::make_constant(msec(2)));
  system.add_replica(stats::make_constant(msec(2)));
  ThreadedClient& client = system.add_client(core::QosSpec{msec(100), 0.5});
  client.invoke(1);
  const auto outcome = client.invoke(2);
  // Real wall-clock measurement: positive but far below a millisecond on
  // a warm two-replica repository.
  EXPECT_GE(outcome.selection_overhead, Duration::zero());
  EXPECT_LT(outcome.selection_overhead, msec(20));
}

TEST_F(ThreadedClientTest, TracksTimingFailures) {
  ThreadedSystemConfig cfg = fast_config();
  cfg.client.failure_tracker.min_samples = 2;
  ThreadedSystem system{cfg};
  system.add_replica(stats::make_constant(msec(50)));
  system.add_replica(stats::make_constant(msec(50)));
  ThreadedClient& client = system.add_client(core::QosSpec{msec(10), 0.9});
  for (int i = 0; i < 3; ++i) {
    const auto outcome = client.invoke(i);
    EXPECT_FALSE(outcome.timely);
  }
  EXPECT_LT(client.timely_fraction(), 0.5);
  EXPECT_TRUE(client.qos_violated());
}

TEST_F(ThreadedClientTest, SurvivesCrashOfSelectedReplica) {
  ThreadedSystem system{fast_config()};
  ThreadedReplica& fast = system.add_replica(stats::make_constant(msec(2)));
  system.add_replica(stats::make_constant(msec(5)));  // replica 2: backup
  ThreadedClient& client = system.add_client(core::QosSpec{msec(200), 0.5});
  client.invoke(1);  // warm up
  fast.crash();
  client.remove_replica(ReplicaId{1});
  EXPECT_EQ(client.known_replicas(), 1u);
  const auto outcome = client.invoke(2);
  EXPECT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.first_replica, ReplicaId{2});
}

TEST_F(ThreadedClientTest, RedundantDispatchMasksCrashWithoutRemoval) {
  // The crashed replica never replies, but Algorithm 1's redundancy means
  // the other selected member answers anyway.
  ThreadedSystem system{fast_config()};
  ThreadedReplica& doomed = system.add_replica(stats::make_constant(msec(2)));
  system.add_replica(stats::make_constant(msec(5)));  // replica 2: healthy
  ThreadedClient& client = system.add_client(core::QosSpec{msec(300), 0.0});
  client.invoke(1);  // warm up both windows
  doomed.crash();    // client does NOT know
  const auto outcome = client.invoke(2);
  EXPECT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.first_replica, ReplicaId{2});
}

TEST_F(ThreadedClientTest, HedgeCopyGatewayDelayExcludesTheHedgeWait) {
  auto slowdown = std::make_shared<stats::LoadModulation>();
  obs::Telemetry telemetry;
  ThreadedSystemConfig cfg = fast_config();
  cfg.client.dispatch.mode = core::DispatchMode::kHedged;
  cfg.client.telemetry = &telemetry;
  ThreadedSystem system{cfg};
  system.add_replica(stats::make_modulated_sampler(stats::make_constant(msec(1)), slowdown));
  system.add_replica(stats::make_constant(msec(4)));  // replica 2: backup
  ThreadedClient& client = system.add_client(core::QosSpec{msec(100), 0.5});
  client.invoke(1);  // cold start: both windows get a sample
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The repository still ranks the primary first, so it is sent alone and
  // misses; the hedge fires after at least 5 ms (5% of the deadline) and
  // the backup's copy answers.
  slowdown->set_extra(msec(60));
  const auto outcome = client.invoke(2);
  ASSERT_TRUE(outcome.hedged);
  ASSERT_TRUE(outcome.hedge_fired);
  ASSERT_EQ(outcome.first_replica, ReplicaId{2});

  const auto traces = telemetry.request_traces();
  ASSERT_EQ(traces.size(), 2u);
  const obs::RequestTrace& hedged = traces.back();
  EXPECT_EQ(hedged.first_replica, ReplicaId{2});
  // t_d is timed from when the backup's copy left, not from t0: it holds
  // that copy's two hops (>= 200 µs each) but not the >= 5 ms hedge wait.
  EXPECT_GE(hedged.gateway_delay, usec(400));
  EXPECT_LE(hedged.gateway_delay + msec(5),
            outcome.response_time - hedged.queuing_delay - hedged.service_time);
  EXPECT_EQ(client.td_clamped(), 0u);
  EXPECT_EQ(telemetry.metrics().counter("threaded.td_clamped").value(), 0u);
}

TEST_F(ThreadedClientTest, EveryReplyOfAMulticastUpdatesItsReplicasGatewayDelay) {
  // Two equal replicas under the default crash tolerance: K is both of
  // them on every request, so each request returns two replies, and each
  // reply is one gateway-delay sample for the replica that sent it.
  obs::Telemetry telemetry;
  ThreadedSystemConfig cfg = fast_config();
  cfg.client.telemetry = &telemetry;
  ThreadedSystem system{cfg};
  system.add_replica(stats::make_constant(msec(1)));
  system.add_replica(stats::make_constant(msec(1)));
  ThreadedClient& client = system.add_client(core::QosSpec{msec(100), 0.5});
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) ASSERT_EQ(client.invoke(i).redundancy, 2u);
  auto& samples = telemetry.metrics().counter("repository.gateway_delays");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (samples.value() < 2u * kRequests && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(samples.value(), 2u * kRequests);
  EXPECT_EQ(client.td_clamped(), 0u);
}

TEST_F(ThreadedClientTest, QosRenegotiationResetsTracker) {
  ThreadedSystemConfig cfg = fast_config();
  cfg.client.failure_tracker.min_samples = 1;
  ThreadedSystem system{cfg};
  system.add_replica(stats::make_constant(msec(30)));
  ThreadedClient& client = system.add_client(core::QosSpec{msec(5), 0.9});
  client.invoke(1);
  EXPECT_TRUE(client.qos_violated());
  client.set_qos(core::QosSpec{msec(500), 0.5});
  EXPECT_FALSE(client.qos_violated());
  const auto outcome = client.invoke(2);
  EXPECT_TRUE(outcome.timely);
}

TEST_F(ThreadedClientTest, QosRenegotiationIsAlertedAndClearsTheViolationEdge) {
  // Matches TimingFaultHandler::set_qos: renegotiation records
  // kQosRenegotiated, and a violation of the OLD QoS must not surface as
  // a kQosRecovered edge once the new QoS is met.
  obs::Telemetry telemetry;
  ThreadedSystemConfig cfg = fast_config();
  cfg.client.failure_tracker.min_samples = 1;
  cfg.client.telemetry = &telemetry;
  ThreadedSystem system{cfg};
  system.add_replica(stats::make_constant(msec(30)));
  ThreadedClient& client = system.add_client(core::QosSpec{msec(5), 0.9});
  ASSERT_FALSE(client.invoke(1).timely);
  client.set_qos(core::QosSpec{msec(500), 0.5});
  ASSERT_TRUE(client.invoke(2).timely);

  std::vector<std::string> kinds;
  for (const obs::AlertEvent& alert : telemetry.alerts()) kinds.emplace_back(obs::to_string(alert.kind));
  EXPECT_EQ(kinds, (std::vector<std::string>{"qos_violation", "qos_renegotiated"}));
}

TEST_F(ThreadedClientTest, OtherClientsRepliesReachTheRepositoryAsPerfUpdates) {
  // §5.4.1: a replica pushes the data of every reply to its other
  // subscribers, so client B learns the replicas from A's traffic alone.
  ThreadedSystem system{fast_config()};
  system.add_replica(stats::make_constant(msec(2)));
  system.add_replica(stats::make_constant(msec(3)));
  ThreadedClient& a = system.add_client(core::QosSpec{msec(100), 0.0});
  ThreadedClient& b = system.add_client(core::QosSpec{msec(100), 0.0});
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(a.invoke(i).answered);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // the pushes are one hop behind
  const auto outcome = b.invoke(7);
  EXPECT_TRUE(outcome.answered);
  EXPECT_FALSE(outcome.cold_start);
}

TEST_F(ThreadedClientTest, SplitVoteReturnsUnansweredWithoutWaitingOutTheGiveUpBound) {
  // Two replicas that disagree can never form a majority: the engine
  // fails the request at its last reply, and invoke() returns then.
  ThreadedSystemConfig cfg = fast_config();
  cfg.client.dispatch.completion = core::CompletionSpec::majority_value();
  ThreadedSystem system{cfg};
  system.add_replica(stats::make_constant(msec(2)));
  replica::ReplicaConfig faulty;
  faulty.value_fault_rate = 1.0;
  system.add_replica(stats::make_constant(msec(2)), faulty);
  const Duration deadline = msec(500);
  ThreadedClient& client = system.add_client(core::QosSpec{deadline, 0.0});
  // The cold start reaches everyone and splits the same way.
  ASSERT_TRUE(client.invoke(1).cold_start);
  const auto start = std::chrono::steady_clock::now();
  const auto outcome = client.invoke(7);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(outcome.answered);
  EXPECT_EQ(outcome.redundancy, 2u);  // crash tolerance 1 keeps both in K
  // The give-up bound is 4 deadlines (2 s); the vote splits after ~2 ms.
  EXPECT_LT(elapsed, std::chrono::microseconds(deadline.count()));
}

TEST_F(ThreadedClientTest, ColdStartIsVotedLikeAnyOtherRequest) {
  // The cold start goes to every replica under the client's predicate:
  // the fast faulty replica's corrupted result is outvoted, not taken as
  // the first reply.
  ThreadedSystemConfig cfg = fast_config();
  cfg.client.dispatch.completion = core::CompletionSpec::majority_value();
  ThreadedSystem system{cfg};
  replica::ReplicaConfig faulty;
  faulty.value_fault_rate = 1.0;
  system.add_replica(stats::make_constant(msec(1)), faulty);  // answers first
  system.add_replica(stats::make_constant(msec(5)));
  system.add_replica(stats::make_constant(msec(5)));
  ThreadedClient& client = system.add_client(core::QosSpec{msec(500), 0.0});
  const auto outcome = client.invoke(7);
  ASSERT_TRUE(outcome.cold_start);
  EXPECT_EQ(outcome.redundancy, 3u);
  ASSERT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.result, 7);
  EXPECT_NE(outcome.first_replica, ReplicaId{1});
}

}  // namespace
}  // namespace aqua::runtime
