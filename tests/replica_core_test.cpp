#include "replica/replica_core.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "stats/variates.h"

namespace aqua::replica {
namespace {

constexpr ClientId kClient{1};
const EndpointId kRequester{100};

ServiceModelPtr constant_service(Duration d) {
  return make_sampled_service(stats::make_constant(d));
}

proto::Request request(std::uint64_t id, std::int64_t argument = 0) {
  return proto::Request{RequestId{id}, kClient, "invoke", argument};
}

const proto::Reply& reply_of(const ReplicaCore::Finished& done) {
  const auto* reply = done.reply.get_if<proto::Reply>();
  EXPECT_NE(reply, nullptr);
  return *reply;
}

TEST(ReplicaCoreTest, StampsThePerfTripleFromTheTimesItIsGiven) {
  ReplicaCore core{ReplicaId{3}, constant_service(msec(4)), Rng{1}};
  ASSERT_TRUE(core.admit(TimePoint{msec(10)}, request(1, 7), kRequester));
  ASSERT_TRUE(core.admit(TimePoint{msec(11)}, request(2), kRequester));
  ASSERT_TRUE(core.start(TimePoint{msec(12)}));
  EXPECT_FALSE(core.start(TimePoint{msec(12)}));  // one request in service at a time
  EXPECT_EQ(core.begin_service(TimePoint{msec(13)}), msec(4));
  const ReplicaCore::Finished done = core.finish(TimePoint{msec(17)});

  EXPECT_EQ(done.reply_to, kRequester);
  const proto::Reply& reply = reply_of(done);
  EXPECT_EQ(reply.request, RequestId{1});
  EXPECT_EQ(reply.replica, ReplicaId{3});
  EXPECT_EQ(reply.result, 7);
  EXPECT_EQ(reply.perf.queuing_delay, msec(3));  // t3 - t2
  EXPECT_EQ(reply.perf.service_time, msec(4));   // finish - t3
  EXPECT_EQ(reply.perf.queue_length, 1);
  EXPECT_EQ(reply.perf.sample_seq, 1u);
  EXPECT_EQ(core.busy_time(), msec(5));  // finish - start
  EXPECT_TRUE(done.perf_targets.empty());
  EXPECT_TRUE(done.perf_update.empty());
}

TEST(ReplicaCoreTest, PerfUpdateGoesToEverySubscriberButTheRequester) {
  ReplicaCore core{ReplicaId{1}, constant_service(msec(1)), Rng{1}};
  const EndpointId other{200};
  core.subscribe(kRequester);
  core.subscribe(other);
  core.subscribe(other);  // idempotent
  ASSERT_TRUE(core.admit(TimePoint{}, request(1), kRequester));
  ASSERT_TRUE(core.start(TimePoint{}));
  core.begin_service(TimePoint{});
  const ReplicaCore::Finished done = core.finish(TimePoint{msec(1)});
  EXPECT_EQ(done.perf_targets, std::vector<EndpointId>{other});
  const auto* update = done.perf_update.get_if<proto::PerfUpdate>();
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->replica, ReplicaId{1});
  EXPECT_EQ(update->perf.sample_seq, reply_of(done).perf.sample_seq);
  EXPECT_EQ(update->perf.service_time, msec(1));

  core.crash();
  core.restart();  // a restarted replica has no subscribers
  ASSERT_TRUE(core.admit(TimePoint{msec(2)}, request(2), kRequester));
  ASSERT_TRUE(core.start(TimePoint{msec(2)}));
  core.begin_service(TimePoint{msec(2)});
  EXPECT_TRUE(core.finish(TimePoint{msec(3)}).perf_targets.empty());
}

TEST(ReplicaCoreTest, CancelPurgesEveryQueuedCopyButNotTheOneInService) {
  ReplicaCore core{ReplicaId{1}, constant_service(msec(1)), Rng{1}};
  ASSERT_TRUE(core.admit(TimePoint{}, request(1), kRequester));
  ASSERT_TRUE(core.start(TimePoint{}));
  ASSERT_TRUE(core.admit(TimePoint{}, request(1), kRequester));
  ASSERT_TRUE(core.admit(TimePoint{}, request(2), kRequester));
  ASSERT_TRUE(core.admit(TimePoint{}, request(1), kRequester));
  EXPECT_EQ(core.cancel(RequestId{1}, kClient), 2u);
  EXPECT_EQ(core.cancel(RequestId{1}, ClientId{9}), 0u);  // another client's request
  EXPECT_EQ(core.purged(), 2u);
  EXPECT_EQ(core.cancels_ignored(), 1u);
  EXPECT_EQ(core.queue_length(), 1u);
  core.begin_service(TimePoint{});
  EXPECT_EQ(reply_of(core.finish(TimePoint{msec(1)})).request, RequestId{1});
}

TEST(ReplicaCoreTest, ComputeAndValueFaultsShapeTheResult) {
  ReplicaConfig config;
  config.compute = [](std::int64_t x) { return x * 2; };
  config.value_fault_rate = 1.0;
  config.corrupt = [](std::int64_t x) { return x + 1; };
  ReplicaCore core{ReplicaId{1}, constant_service(msec(1)), Rng{1}, config};
  ASSERT_TRUE(core.admit(TimePoint{}, request(1, 20), kRequester));
  ASSERT_TRUE(core.start(TimePoint{}));
  core.begin_service(TimePoint{});
  EXPECT_EQ(reply_of(core.finish(TimePoint{msec(1)})).result, 41);
}

TEST(ReplicaCoreTest, MethodModelsAndCodedChunksScaleTheDraw) {
  ReplicaConfig config;
  config.method_models["slow"] = constant_service(msec(30));
  ReplicaCore core{ReplicaId{1}, constant_service(msec(10)), Rng{1}, config};
  proto::Request slow = request(1);
  slow.method = "slow";
  proto::Request chunk = request(2);
  chunk.code_k = 4;
  ASSERT_TRUE(core.admit(TimePoint{}, slow, kRequester));
  ASSERT_TRUE(core.admit(TimePoint{}, chunk, kRequester));
  ASSERT_TRUE(core.start(TimePoint{}));
  EXPECT_EQ(core.begin_service(TimePoint{}), msec(30));
  core.finish(TimePoint{msec(30)});
  ASSERT_TRUE(core.start(TimePoint{msec(30)}));
  EXPECT_EQ(core.begin_service(TimePoint{msec(30)}), usec(2500));
}

TEST(ReplicaCoreTest, CrashDropsEverythingAndRejectsUntilRestart) {
  ReplicaCore core{ReplicaId{1}, constant_service(msec(1)), Rng{1}};
  ASSERT_TRUE(core.admit(TimePoint{}, request(1), kRequester));
  ASSERT_TRUE(core.admit(TimePoint{}, request(2), kRequester));
  ASSERT_TRUE(core.start(TimePoint{}));
  core.crash();
  EXPECT_FALSE(core.alive());
  EXPECT_FALSE(core.busy());
  EXPECT_EQ(core.queue_length(), 0u);
  EXPECT_FALSE(core.admit(TimePoint{}, request(3), kRequester));
  EXPECT_FALSE(core.start(TimePoint{}));
  core.restart();
  EXPECT_TRUE(core.admit(TimePoint{}, request(4), kRequester));
}

/// Random admit / cancel / start / begin / finish / crash sequences
/// against a model queue. Each admission carries a unique token as its
/// argument (the default compute echoes it), while request ids repeat so
/// that cancels meet several copies.
TEST(ReplicaCorePropertyTest, RandomSequencesKeepFifoAndEndEachRequestOnce) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    ReplicaCore core{ReplicaId{1}, make_sampled_service(stats::make_uniform(usec(1), usec(50))),
                     rng.fork("replica")};
    struct Admitted {
      std::uint64_t id;
      TimePoint t2;
    };
    std::map<std::int64_t, Admitted> admitted;  // token -> admission
    std::map<std::int64_t, int> ends;           // token -> times it ended
    std::deque<std::int64_t> model;             // queued tokens, FIFO
    enum class Phase { kIdle, kStarted, kServing } phase = Phase::kIdle;
    std::int64_t current = -1;
    TimePoint t3{};
    TimePoint now{};
    std::int64_t next_token = 0;
    std::uint64_t last_seq = 0;
    std::uint64_t purged = 0;

    auto end = [&](std::int64_t token) { ++ends[token]; };
    for (int step = 0; step < 300; ++step) {
      now += usec(rng.uniform_int(0, 40));
      const double dice = rng.uniform01();
      if (dice < 0.35) {
        const auto id = static_cast<std::uint64_t>(rng.uniform_int(1, 6));
        const std::int64_t token = next_token++;
        ASSERT_TRUE(core.admit(now, request(id, token), kRequester));
        admitted[token] = {id, now};
        model.push_back(token);
      } else if (dice < 0.45) {
        const auto id = static_cast<std::uint64_t>(rng.uniform_int(1, 6));
        const std::size_t removed = core.cancel(RequestId{id}, kClient);
        std::size_t expected = 0;
        for (auto it = model.begin(); it != model.end();) {
          if (admitted[*it].id == id) {
            end(*it);
            it = model.erase(it);
            ++expected;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(removed, expected);
        purged += removed;
      } else if (dice < 0.65) {
        const bool started = core.start(now);
        ASSERT_EQ(started, phase == Phase::kIdle && !model.empty());
        if (started) {
          current = model.front();  // FIFO: the head goes first
          model.pop_front();
          phase = Phase::kStarted;
        }
      } else if (dice < 0.8) {
        if (phase != Phase::kStarted) continue;
        t3 = now;
        const Duration draw = core.begin_service(t3);
        ASSERT_GE(draw, usec(1));
        phase = Phase::kServing;
      } else if (dice < 0.97) {
        if (phase != Phase::kServing) continue;
        const ReplicaCore::Finished done = core.finish(now);
        const proto::Reply& reply = reply_of(done);
        ASSERT_EQ(reply.result, current);
        ASSERT_EQ(reply.request, RequestId{admitted[current].id});
        ASSERT_EQ(reply.perf.sample_seq, last_seq + 1);
        last_seq = reply.perf.sample_seq;
        ASSERT_EQ(reply.perf.queuing_delay, t3 - admitted[current].t2);
        ASSERT_GE(reply.perf.queuing_delay, Duration::zero());
        ASSERT_EQ(reply.perf.service_time, now - t3);
        ASSERT_EQ(reply.perf.queue_length, static_cast<std::int64_t>(model.size()));
        end(current);
        phase = Phase::kIdle;
      } else {
        core.crash();
        for (std::int64_t token : model) end(token);
        if (phase != Phase::kIdle) end(current);
        model.clear();
        phase = Phase::kIdle;
        ASSERT_FALSE(core.admit(now, request(1, -1), kRequester));
        core.restart();
      }
      ASSERT_EQ(core.queue_length(), model.size());
      ASSERT_EQ(core.busy(), phase != Phase::kIdle);
    }
    core.crash();
    for (std::int64_t token : model) end(token);
    if (phase != Phase::kIdle) end(current);

    ASSERT_EQ(ends.size(), admitted.size());
    for (const auto& [token, count] : ends) ASSERT_EQ(count, 1) << "token " << token;
    EXPECT_EQ(core.purged(), purged);
    EXPECT_EQ(core.serviced(), last_seq);
  }
}

}  // namespace
}  // namespace aqua::replica
