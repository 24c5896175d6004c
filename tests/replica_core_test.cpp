#include "replica/replica_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/telemetry.h"
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
  const ReplicaCore::Finished done = core.finish();

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
  const ReplicaCore::Finished done = core.finish();
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
  EXPECT_TRUE(core.finish().perf_targets.empty());
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
  EXPECT_EQ(reply_of(core.finish()).request, RequestId{1});
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
  EXPECT_EQ(reply_of(core.finish()).result, 41);
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
  core.finish();
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
    Duration draw{};
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
        const bool started = core.start(now).has_value();
        ASSERT_EQ(started, phase == Phase::kIdle && !model.empty());
        if (started) {
          current = model.front();  // FIFO: the head goes first
          model.pop_front();
          phase = Phase::kStarted;
        }
      } else if (dice < 0.8) {
        if (phase != Phase::kStarted) continue;
        t3 = now;
        draw = core.begin_service(t3);
        ASSERT_GE(draw, usec(1));
        phase = Phase::kServing;
      } else if (dice < 0.97) {
        if (phase != Phase::kServing) continue;
        now = std::max(now, t3 + draw);  // a driver finishes at or after the end
        const ReplicaCore::Finished done = core.finish();
        const proto::Reply& reply = reply_of(done);
        ASSERT_EQ(reply.result, current);
        ASSERT_EQ(reply.request, RequestId{admitted[current].id});
        ASSERT_EQ(reply.perf.sample_seq, last_seq + 1);
        last_seq = reply.perf.sample_seq;
        ASSERT_EQ(reply.perf.queuing_delay, t3 - admitted[current].t2);
        ASSERT_GE(reply.perf.queuing_delay, Duration::zero());
        ASSERT_EQ(reply.perf.service_time, draw);
        ASSERT_EQ(reply.perf.queue_length,
                  std::count_if(model.begin(), model.end(), [&](std::int64_t token) {
                    return admitted[token].t2 <= t3 + draw;
                  }));
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

/// Draws from `sampler` and remembers the queue length each draw was
/// given, which is the core's queue stamp at t3.
class RecordingService final : public ServiceModel {
 public:
  explicit RecordingService(stats::SamplerPtr sampler) : sampler_(std::move(sampler)) {}
  Duration sample(Rng& rng, std::size_t queue_length) const override {
    last_queue_length = queue_length;
    return sampler_->sample(rng);
  }
  std::string describe() const override { return "recording"; }

  mutable std::size_t last_queue_length = 0;

 private:
  stats::SamplerPtr sampler_;
};

/// A wall-clock driver as the threaded replica runs one: it takes a copy
/// some lateness after it could, sleeps to the end the core reports, wakes
/// late again and spends a while sending. Random arrivals and random
/// lateness; the core must keep the FIFO-server timeline regardless.
TEST(ReplicaCorePropertyTest, LateDriversKeepTheFifoServerTimeline) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    auto service = std::make_shared<RecordingService>(stats::make_uniform(usec(5), usec(40)));
    ReplicaCore core{ReplicaId{1}, service, rng.fork("replica")};
    std::vector<TimePoint> arrivals;
    TimePoint t{};
    for (int i = 0; i < 120; ++i) {
      // Bursts and gaps, so copies both queue up and meet an idle replica.
      t += usec(rng.bernoulli(0.7) ? rng.uniform_int(0, 15) : rng.uniform_int(30, 300));
      arrivals.push_back(t);
    }
    std::size_t next = 0;
    std::deque<TimePoint> queued;  // t2 of each copy still waiting
    auto admit_until = [&](TimePoint now) {
      for (; next < arrivals.size() && arrivals[next] <= now; ++next) {
        ASSERT_TRUE(core.admit(arrivals[next], request(next + 1, static_cast<std::int64_t>(next)),
                               kRequester));
        queued.push_back(arrivals[next]);
      }
    };
    auto queued_by = [&](TimePoint stamp) {
      return std::count_if(queued.begin(), queued.end(),
                           [stamp](TimePoint t2) { return t2 <= stamp; });
    };
    auto lateness = [&] {
      return usec(rng.bernoulli(0.5) ? rng.uniform_int(0, 3) : rng.uniform_int(5, 60));
    };

    std::optional<TimePoint> previous_end;
    TimePoint worker{};  // when the driver next looks at the queue
    Duration draws = Duration::zero();
    std::size_t served = 0;
    while (served < arrivals.size()) {
      admit_until(worker);
      if (queued.empty()) {
        worker = arrivals[next] + lateness();  // woken by the arrival, a little late
        admit_until(worker);
      }
      const TimePoint t2 = queued.front();
      const std::optional<TimePoint> t3 = core.start(worker);
      ASSERT_TRUE(t3.has_value());
      queued.pop_front();
      if (previous_end.has_value() && t2 <= *previous_end) {
        ASSERT_EQ(*t3, std::max(*previous_end, t2));  // queued by the previous end
      } else {
        ASSERT_EQ(*t3, worker);  // met an idle replica: the real handoff
      }
      ASSERT_GE(*t3, t2);
      ASSERT_LE(*t3, worker);

      const Duration draw = core.begin_service(*t3);
      ASSERT_EQ(static_cast<std::int64_t>(service->last_queue_length), queued_by(*t3));
      draws += draw;
      const TimePoint end = *t3 + draw;
      const TimePoint wake = std::max(worker, end) + lateness();
      admit_until(wake);
      const ReplicaCore::Finished done = core.finish();
      const proto::Reply& reply = reply_of(done);
      ASSERT_EQ(reply.result, static_cast<std::int64_t>(served));  // FIFO
      ASSERT_EQ(reply.perf.service_time, draw);
      ASSERT_EQ(reply.perf.queuing_delay, *t3 - t2);
      ASSERT_EQ(reply.perf.queue_length, queued_by(end));
      core.reply_departed(end, wake);
      worker = wake + lateness();  // the reply send
      previous_end = end;
      ++served;
    }
    EXPECT_EQ(core.busy_time(), draws);
    EXPECT_EQ(core.serviced(), arrivals.size());
  }
}

TEST(ReplicaCoreTest, ReplyLagIsDepartureMinusTheScheduledEnd) {
  obs::Telemetry telemetry;
  ReplicaConfig config;
  config.telemetry = &telemetry;
  ReplicaCore core{ReplicaId{1}, constant_service(usec(20)), Rng{1}, config};
  ASSERT_TRUE(core.admit(TimePoint{usec(100)}, request(1), kRequester));
  ASSERT_TRUE(core.admit(TimePoint{usec(105)}, request(2), kRequester));
  EXPECT_EQ(core.start(TimePoint{usec(101)}), TimePoint{usec(101)});
  core.begin_service(TimePoint{usec(101)});
  EXPECT_EQ(reply_of(core.finish()).perf.service_time, usec(20));
  core.reply_departed(TimePoint{usec(121)}, TimePoint{usec(129)});  // woke 8 us late
  // The second copy waited since 105: it starts at the first one's end,
  // not when the late driver takes it, and still runs its full draw.
  EXPECT_EQ(core.start(TimePoint{usec(137)}), TimePoint{usec(121)});
  core.begin_service(TimePoint{usec(121)});
  const ReplicaCore::Finished second = core.finish();
  EXPECT_EQ(reply_of(second).perf.queuing_delay, usec(16));
  EXPECT_EQ(reply_of(second).perf.service_time, usec(20));
  core.reply_departed(TimePoint{usec(141)}, TimePoint{usec(141)});
  const obs::Histogram& lag = telemetry.metrics().histogram("replica.reply_lag_us");
  EXPECT_EQ(lag.count(), 2u);
  EXPECT_EQ(lag.sum(), 8);
}

}  // namespace
}  // namespace aqua::replica
