// RequestEngine without I/O: scripted (now, event) sequences in, the
// returned actions asserted. The script keeps every armed timer and fires
// them in time order, as a driver would; nothing here sleeps, sends or
// schedules. RequestEngineCrashTest cases exercise view changes and carry
// the `fault` ctest label.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/request_engine.h"

namespace aqua::core {
namespace {

constexpr Duration kDeadline = msec(100);

EndpointId endpoint_of(std::uint64_t replica) { return EndpointId{replica + 10}; }

proto::Reply reply_from(RequestId request, std::uint64_t replica, Duration service,
                        std::uint32_t chunk = 0, std::uint64_t code_id = 0) {
  proto::Reply reply;
  reply.request = request;
  reply.replica = ReplicaId{replica};
  reply.result = static_cast<std::int64_t>(request.value());
  reply.perf.service_time = service;
  reply.chunk = chunk;
  reply.code_id = code_id;
  return reply;
}

std::string describe(const Action& action) {
  std::ostringstream out;
  if (const auto* send = std::get_if<SendRequest>(&action)) {
    out << "send " << send->request.id.value() << " to";
    for (EndpointId target : send->targets) out << ' ' << target.value();
    out << " chunks";
    for (std::uint32_t chunk : send->chunks) out << ' ' << chunk;
  } else if (const auto* cancel = std::get_if<SendCancel>(&action)) {
    out << "cancel " << cancel->cancel.request.value() << " x" << cancel->targets.size();
  } else if (const auto* subscribe = std::get_if<SendSubscribe>(&action)) {
    out << "subscribe " << subscribe->target.value();
  } else if (const auto* arm = std::get_if<ArmTimer>(&action)) {
    out << "arm " << static_cast<int>(arm->timer.kind) << " @" << count_us(arm->timer.at);
  } else if (const auto* stop = std::get_if<CancelTimer>(&action)) {
    out << "disarm " << static_cast<int>(stop->timer.kind);
  } else if (const auto* deliver = std::get_if<Deliver>(&action)) {
    out << "deliver " << deliver->info.request.value() << " from "
        << deliver->info.replica.value() << " in " << count_us(deliver->info.response_time);
  } else if (const auto* violation = std::get_if<QosViolation>(&action)) {
    out << "violation " << violation->observed_timely_fraction;
  } else if (const auto* outcome = std::get_if<Outcome>(&action)) {
    out << "outcome " << outcome->record.request.value() << " timely " << outcome->record.timely;
  }
  return out.str();
}

template <typename T>
std::vector<const T*> all_of(const Actions& actions) {
  std::vector<const T*> found;
  for (const Action& action : actions) {
    if (const auto* a = std::get_if<T>(&action)) found.push_back(a);
  }
  return found;
}

/// One engine, its armed timers, and a log of every action it returned.
class Script {
 public:
  explicit Script(EngineConfig config = {}, std::size_t replicas = 3, PolicyPtr policy = nullptr)
      : engine_(ClientId{1}, QosSpec{kDeadline, 0.9}, Rng{7}, std::move(config),
                std::move(policy)) {
    for (std::uint64_t r = 1; r <= replicas; ++r) {
      step([&](Actions& out) { engine_.on_announce(now_, ReplicaId{r}, endpoint_of(r), out); });
    }
    run_until(now_ + msec(1));  // the Announce burst settles
  }

  RequestId invoke(TimePoint at) {
    now_ = at;
    RequestId id;
    step([&](Actions& out) { id = engine_.invoke(now_, 0, kDefaultMethod, out); });
    return id;
  }
  Actions reply(TimePoint at, const proto::Reply& reply) {
    now_ = at;
    return step([&](Actions& out) { engine_.on_reply(now_, reply, out); });
  }
  Actions depart(TimePoint at, std::vector<std::uint64_t> replicas) {
    now_ = at;
    std::vector<EndpointId> departed;
    for (std::uint64_t r : replicas) departed.push_back(endpoint_of(r));
    return step([&](Actions& out) { engine_.on_view_change(now_, departed, out); });
  }
  /// Fire every armed timer due by `until`, in time order.
  Actions run_until(TimePoint until) {
    Actions all;
    while (!armed_.empty() && armed_.begin()->first.first <= until) {
      const Timer timer = armed_.begin()->second;
      armed_.erase(armed_.begin());
      now_ = timer.at;
      Actions fired = step([&](Actions& out) { engine_.on_timer(now_, timer, out); });
      std::move(fired.begin(), fired.end(), std::back_inserter(all));
    }
    now_ = std::max(now_, until);
    return all;
  }
  /// Invoke, answer every copy from each replica after `service`, and
  /// let the request retire.
  void warm(TimePoint at) {
    const RequestId id = invoke(at);
    Actions sent = run_until(at);
    for (const SendRequest* send : all_of<SendRequest>(sent)) {
      for (std::size_t i = 0; i < send->targets.size(); ++i) {
        const std::uint64_t replica = send->targets[i].value() - 10;
        reply(at + msec(3), reply_from(id, replica, msec(2)));
      }
    }
    run_until(at + kDeadline * 11);
  }

  [[nodiscard]] const std::map<std::pair<TimePoint, std::uint64_t>, Timer>& armed() const {
    return armed_;
  }
  [[nodiscard]] RequestEngine& engine() { return engine_; }
  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }

 private:
  template <typename Event>
  Actions step(Event&& event) {
    Actions out;
    event(out);
    for (const Action& action : out) {
      log_.push_back(describe(action));
      if (const auto* arm = std::get_if<ArmTimer>(&action)) {
        armed_.emplace(std::pair{arm->timer.at, arm->timer.id}, arm->timer);
      } else if (const auto* stop = std::get_if<CancelTimer>(&action)) {
        armed_.erase(std::pair{stop->timer.at, stop->timer.id});
      }
    }
    return out;
  }

  RequestEngine engine_;
  TimePoint now_{};
  std::map<std::pair<TimePoint, std::uint64_t>, Timer> armed_;
  std::vector<std::string> log_;
};

TimePoint at_ms(std::int64_t ms) { return TimePoint{} + msec(ms); }

TEST(RequestEngineTest, FirstOfNDeliversTheFirstReplyAndHarvestsEveryCopy) {
  Script s;
  const RequestId id = s.invoke(at_ms(10));
  // Deadline, reclamation and selection timers, in that order.
  ASSERT_EQ(s.armed().size(), 3u);
  const Actions sent = s.run_until(at_ms(10));
  const auto sends = all_of<SendRequest>(sent);
  ASSERT_EQ(sends.size(), 1u);  // cold start: one multicast to all three
  EXPECT_EQ(sends[0]->targets.size(), 3u);
  EXPECT_TRUE(sends[0]->chunks.empty());

  const Actions first = s.reply(at_ms(15), reply_from(id, 2, msec(2)));
  const auto delivered = all_of<Deliver>(first);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0]->info.replica, ReplicaId{2});
  EXPECT_EQ(delivered[0]->info.response_time, msec(5));
  EXPECT_TRUE(delivered[0]->info.timely);
  EXPECT_EQ(all_of<Outcome>(first).size(), 1u);
  ASSERT_EQ(all_of<CancelTimer>(first).size(), 1u);
  EXPECT_EQ(all_of<CancelTimer>(first)[0]->timer.kind, TimerKind::kDeadline);

  // The second copy delivers nothing but still harvests its own t_d.
  const Actions second = s.reply(at_ms(18), reply_from(id, 3, msec(2)));
  EXPECT_TRUE(all_of<Deliver>(second).empty());
  EXPECT_EQ(s.engine().repository().observe(ReplicaId{3}).gateway_delay, msec(6));
  EXPECT_EQ(s.engine().failure_tracker().timely_fraction(), 1.0);

  // Replica 1 never answers: the request is held until its reclamation.
  EXPECT_NE(s.engine().find_record(id), nullptr);
  EXPECT_EQ(s.engine().outstanding_requests(ReplicaId{1}), 1u);
  s.run_until(at_ms(10) + kDeadline * 10);
  EXPECT_EQ(s.engine().find_record(id), nullptr);
  EXPECT_EQ(s.engine().outstanding_requests(ReplicaId{1}), 0u);
}

TEST(RequestEngineTest, DeadlineDecidesAFailureAndALateReplyStillDelivers) {
  Script s;
  const RequestId id = s.invoke(at_ms(10));
  s.run_until(at_ms(10));
  const Actions deadline = s.run_until(at_ms(110));
  ASSERT_EQ(all_of<Outcome>(deadline).size(), 1u);
  EXPECT_FALSE(all_of<Outcome>(deadline)[0]->record.timely);
  EXPECT_EQ(s.engine().failure_tracker().timely_fraction(), 0.0);

  const Actions late = s.reply(at_ms(140), reply_from(id, 1, msec(2)));
  const auto delivered = all_of<Deliver>(late);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_FALSE(delivered[0]->info.timely);
  EXPECT_EQ(delivered[0]->info.response_time, msec(130));
  EXPECT_TRUE(all_of<Outcome>(late).empty());  // decided once, at the deadline
  ASSERT_NE(s.engine().find_record(id), nullptr);
  EXPECT_EQ(s.engine().find_record(id)->response_time, msec(130));  // amended
}

TEST(RequestEngineTest, SplitVoteFailsAtItsLastReplyNotAtTheDeadline) {
  EngineConfig config;
  config.dispatch.completion = CompletionSpec::majority_value();
  Script s{config, 2, make_all_replicas_policy()};
  const RequestId id = s.invoke(at_ms(10));
  const Actions sent = s.run_until(at_ms(10));
  const auto sends = all_of<SendRequest>(sent);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->targets.size(), 2u);

  proto::Reply corrupted = reply_from(id, 1, msec(2));
  corrupted.result += 1;
  EXPECT_TRUE(all_of<Outcome>(s.reply(at_ms(15), corrupted)).empty());  // 2 can still win
  // 1 vs 1 where a majority of 2 must agree, nothing left awaited: the
  // failure is decided now, not at the deadline.
  const Actions last = s.reply(at_ms(18), reply_from(id, 2, msec(2)));
  EXPECT_TRUE(all_of<Deliver>(last).empty());
  const auto outcomes = all_of<Outcome>(last);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0]->record.timely);
  EXPECT_EQ(outcomes[0]->record.chunks_received, 2u);
  EXPECT_FALSE(outcomes[0]->record.response_time.has_value());
  ASSERT_EQ(all_of<CancelTimer>(last).size(), 1u);
  EXPECT_EQ(all_of<CancelTimer>(last)[0]->timer.kind, TimerKind::kDeadline);
  EXPECT_EQ(s.engine().failure_tracker().failures(), 1u);
  EXPECT_EQ(s.engine().find_record(id), nullptr);  // retired at once
  EXPECT_TRUE(all_of<Outcome>(s.run_until(at_ms(10) + kDeadline * 11)).empty());
}

TEST(RequestEngineTest, ColdStartIsVotedWhenTheClientAsksForAMajority) {
  EngineConfig config;
  config.dispatch.completion = CompletionSpec::majority_value();
  Script s{config};  // paper policy: the first request is a cold start
  const RequestId id = s.invoke(at_ms(10));
  const Actions sent = s.run_until(at_ms(10));
  const auto sends = all_of<SendRequest>(sent);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->targets.size(), 3u);
  EXPECT_TRUE(sends[0]->chunks.empty());

  proto::Reply corrupted = reply_from(id, 1, msec(2));
  corrupted.result = ~corrupted.result;
  EXPECT_TRUE(all_of<Deliver>(s.reply(at_ms(13), corrupted)).empty());  // 1 of the 2 votes
  EXPECT_TRUE(all_of<Deliver>(s.reply(at_ms(14), reply_from(id, 2, msec(2)))).empty());
  const Actions last = s.reply(at_ms(15), reply_from(id, 3, msec(2)));
  const auto delivered = all_of<Deliver>(last);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0]->info.result, static_cast<std::int64_t>(id.value()));
  EXPECT_TRUE(delivered[0]->record.cold_start);
}

TEST(RequestEngineTest, ColdStartQuorumWaitsAndKOfNStaysWhole) {
  EngineConfig quorum;
  quorum.dispatch.completion = CompletionSpec::quorum(2);
  Script q{quorum};
  const RequestId a = q.invoke(at_ms(10));
  q.run_until(at_ms(10));
  EXPECT_TRUE(all_of<Deliver>(q.reply(at_ms(13), reply_from(a, 1, msec(2)))).empty());
  EXPECT_EQ(all_of<Deliver>(q.reply(at_ms(14), reply_from(a, 3, msec(2)))).size(), 1u);

  // Cold-start copies are never coded: each carries the whole job, so
  // the first reply completes a k-of-n request.
  EngineConfig coded;
  coded.dispatch.completion = CompletionSpec::k_of_n(2);
  Script k{coded};
  const RequestId b = k.invoke(at_ms(10));
  const Actions sent = k.run_until(at_ms(10));
  const auto sends = all_of<SendRequest>(sent);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_TRUE(sends[0]->chunks.empty());
  EXPECT_EQ(all_of<Deliver>(k.reply(at_ms(13), reply_from(b, 2, msec(2)))).size(), 1u);
}

TEST(RequestEngineTest, HedgeFiresAfterItsDelayAndTimesTheBackupFromItsOwnSend) {
  EngineConfig config;
  config.dispatch.mode = DispatchMode::kHedged;
  Script s{config, 2, make_all_replicas_policy()};
  s.warm(at_ms(0));

  const TimePoint t0 = at_ms(2000);
  const RequestId id = s.invoke(t0);
  const Actions sent = s.run_until(t0);
  ASSERT_EQ(all_of<SendRequest>(sent).size(), 1u);
  EXPECT_EQ(all_of<SendRequest>(sent)[0]->targets.size(), 1u);  // the primary only
  const auto arms = all_of<ArmTimer>(sent);
  ASSERT_FALSE(arms.empty());
  const Timer hedge = arms.back()->timer;
  ASSERT_EQ(hedge.kind, TimerKind::kHedge);
  EXPECT_GT(hedge.at, t0);

  const Actions fired = s.run_until(hedge.at);
  const auto backup = all_of<SendRequest>(fired);
  ASSERT_EQ(backup.size(), 1u);
  ASSERT_EQ(backup[0]->targets.size(), 1u);
  const std::uint64_t backup_replica = backup[0]->targets[0].value() - 10;
  EXPECT_EQ(s.engine().hedges_fired(), 1u);

  // The backup answers 3 ms after its own send with 1 ms of service: its
  // t_d is the 2 ms wire time, not that plus the hedge wait.
  const Actions answer = s.reply(hedge.at + msec(3), reply_from(id, backup_replica, msec(1)));
  ASSERT_EQ(all_of<Deliver>(answer).size(), 1u);
  EXPECT_EQ(s.engine().repository().observe(ReplicaId{backup_replica}).gateway_delay, msec(2));
  EXPECT_EQ(s.engine().td_clamped(), 0u);
}

TEST(RequestEngineTest, DeliveryBeforeTheHedgeCancelsIt) {
  EngineConfig config;
  config.dispatch.mode = DispatchMode::kHedged;
  Script s{config, 2, make_all_replicas_policy()};
  s.warm(at_ms(0));

  const TimePoint t0 = at_ms(2000);
  const RequestId id = s.invoke(t0);
  const Actions sent = s.run_until(t0);
  const std::uint64_t primary = all_of<SendRequest>(sent)[0]->targets[0].value() - 10;
  const Actions answer = s.reply(t0 + usec(500), reply_from(id, primary, usec(100)));
  ASSERT_EQ(all_of<Deliver>(answer).size(), 1u);
  bool hedge_disarmed = false;
  for (const CancelTimer* stop : all_of<CancelTimer>(answer)) {
    hedge_disarmed = hedge_disarmed || stop->timer.kind == TimerKind::kHedge;
  }
  EXPECT_TRUE(hedge_disarmed);
  EXPECT_TRUE(all_of<SendRequest>(s.run_until(t0 + kDeadline * 11)).empty());
  EXPECT_EQ(s.engine().hedges_fired(), 0u);
}

TEST(RequestEngineTest, CancelOnCompletionWithdrawsTheAwaitedCopies) {
  EngineConfig config;
  config.dispatch.cancel_on_first_reply = true;
  Script s{config, 3, make_all_replicas_policy()};
  s.warm(at_ms(0));

  const std::uint64_t before = s.engine().cancels_sent();
  const RequestId id = s.invoke(at_ms(2000));
  s.run_until(at_ms(2000));
  const Actions answer = s.reply(at_ms(2004), reply_from(id, 1, msec(1)));
  const auto cancels = all_of<SendCancel>(answer);
  ASSERT_EQ(cancels.size(), 1u);
  EXPECT_EQ(cancels[0]->targets.size(), 2u);
  EXPECT_EQ(s.engine().cancels_sent(), before + 2);
  // Nothing is awaited any more: the request retires at once.
  EXPECT_EQ(s.engine().find_record(id), nullptr);
  EXPECT_EQ(s.engine().outstanding_requests(ReplicaId{2}), 0u);
}

TEST(RequestEngineTest, InvokeBeforeDiscoveryParksUntilTheAnnounceBurstSettles) {
  Script s{EngineConfig{}, 0};
  const RequestId id = s.invoke(at_ms(0));
  EXPECT_TRUE(all_of<SendRequest>(s.run_until(at_ms(5))).empty());  // parked

  Actions announce;
  s.engine().on_announce(at_ms(5), ReplicaId{1}, endpoint_of(1), announce);
  ASSERT_EQ(all_of<SendSubscribe>(announce).size(), 1u);
  const auto settle = all_of<ArmTimer>(announce);
  ASSERT_EQ(settle.size(), 1u);
  EXPECT_EQ(settle[0]->timer.kind, TimerKind::kSettle);
  EXPECT_EQ(settle[0]->timer.at, at_ms(6));

  Actions dispatched;
  s.engine().on_timer(at_ms(6), settle[0]->timer, dispatched);
  const auto arms = all_of<ArmTimer>(dispatched);
  ASSERT_EQ(arms.size(), 1u);
  ASSERT_EQ(arms[0]->timer.kind, TimerKind::kTransmit);
  Actions sent;
  s.engine().on_timer(at_ms(6), arms[0]->timer, sent);
  const auto sends = all_of<SendRequest>(sent);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->request.id, id);
  EXPECT_EQ(sends[0]->targets, std::vector<EndpointId>{endpoint_of(1)});
}

TEST(RequestEngineTest, SelectionCostDelaysTransmissionAndFeedsDelta) {
  EngineConfig config;
  config.interception = usec(120);
  config.selection_cost = [](const SelectionView&) {
    return DispatchCost{.delta = usec(300), .transmit_after = usec(180)};
  };
  Script s{config};
  const RequestId id = s.invoke(at_ms(10));
  EXPECT_TRUE(all_of<SendRequest>(s.run_until(at_ms(10) + usec(299))).empty());
  EXPECT_EQ(all_of<SendRequest>(s.run_until(at_ms(10) + usec(300))).size(), 1u);
  EXPECT_EQ(s.engine().overhead_delta(), usec(300));
  EXPECT_EQ(s.engine().find_record(id)->transmitted_at, at_ms(10) + usec(300));
  EXPECT_EQ(s.engine().find_record(id)->selection_delta, usec(300));
}

TEST(RequestEngineTest, SameScriptYieldsIdenticalActions) {
  auto run = [] {
    EngineConfig config;
    config.dispatch.mode = DispatchMode::kHedged;
    config.dispatch.cancel_on_first_reply = true;
    Script s{config, 3};
    s.warm(at_ms(0));
    for (int i = 0; i < 5; ++i) {
      const TimePoint t0 = at_ms(2000 + 200 * i);
      const RequestId id = s.invoke(t0);
      s.run_until(t0 + msec(2 * i));
      s.reply(t0 + msec(2 * i + 1), reply_from(id, 1 + static_cast<std::uint64_t>(i) % 3,
                                               msec(1)));
    }
    s.run_until(at_ms(5000));
    return s.log();
  };
  const std::vector<std::string> first = run();
  EXPECT_GT(first.size(), 30u);
  EXPECT_EQ(first, run());
}

TEST(RequestEngineCrashTest, ViewChangeReleasesTheHeldHedgeSet) {
  EngineConfig config;
  config.dispatch.mode = DispatchMode::kHedged;
  Script s{config, 2, make_all_replicas_policy()};
  s.warm(at_ms(0));

  const RequestId id = s.invoke(at_ms(2000));
  const Actions sent = s.run_until(at_ms(2000));
  const std::uint64_t primary = all_of<SendRequest>(sent)[0]->targets[0].value() - 10;
  const std::uint64_t backup = 3 - primary;
  const Actions released = s.depart(at_ms(2001), {primary});
  const auto sends = all_of<SendRequest>(released);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->targets, std::vector<EndpointId>{endpoint_of(backup)});
  EXPECT_EQ(s.engine().hedges_fired(), 1u);
  EXPECT_FALSE(s.engine().find_record(id)->redispatched);
  EXPECT_EQ(s.engine().directory().size(), 1u);
}

TEST(RequestEngineCrashTest, ViewChangeThatTakesAllOfKRedispatches) {
  Script s{EngineConfig{}, 3, make_static_k_policy(1)};
  s.warm(at_ms(0));

  const RequestId id = s.invoke(at_ms(2000));
  const Actions sent = s.run_until(at_ms(2000));
  ASSERT_EQ(all_of<SendRequest>(sent)[0]->targets.size(), 1u);
  const std::uint64_t first = all_of<SendRequest>(sent)[0]->targets[0].value() - 10;
  s.depart(at_ms(2010), {first});
  const Actions resent = s.run_until(at_ms(2010));
  const auto sends = all_of<SendRequest>(resent);
  ASSERT_EQ(sends.size(), 1u);
  ASSERT_EQ(sends[0]->targets.size(), 1u);
  EXPECT_NE(sends[0]->targets[0], endpoint_of(first));
  EXPECT_TRUE(s.engine().find_record(id)->redispatched);

  const std::uint64_t second = sends[0]->targets[0].value() - 10;
  const Actions answer = s.reply(at_ms(2014), reply_from(id, second, msec(1)));
  ASSERT_EQ(all_of<Deliver>(answer).size(), 1u);
  // t_d of the redispatched copy runs from its own send at 2010 ms.
  EXPECT_EQ(s.engine().repository().observe(ReplicaId{second}).gateway_delay, msec(3));
}

TEST(RequestEngineCrashTest, CodedKMinusOneThenCrashRedispatchesFreshChunks) {
  EngineConfig config;
  config.dispatch.completion = CompletionSpec::k_of_n(2);
  Script s{config, 3, make_all_replicas_policy()};
  s.warm(at_ms(0));

  const RequestId id = s.invoke(at_ms(2000));
  const Actions sent = s.run_until(at_ms(2000));
  const auto sends = all_of<SendRequest>(sent);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->chunks, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(sends[0]->request.code_k, 2u);
  const std::uint64_t code_id = sends[0]->request.code_id;

  EXPECT_TRUE(all_of<Deliver>(s.reply(at_ms(2005), reply_from(id, 1, msec(1), 0, code_id)))
                  .empty());
  // Every replica still owing a chunk crashes: 1 distinct + 0 awaited < 2.
  s.depart(at_ms(2100), {2, 3});
  const Actions redispatched = s.run_until(at_ms(2100));
  const auto resent = all_of<SendRequest>(redispatched);
  ASSERT_EQ(resent.size(), 1u);
  EXPECT_EQ(resent[0]->targets, std::vector<EndpointId>{endpoint_of(1)});
  EXPECT_EQ(resent[0]->chunks, std::vector<std::uint32_t>{3});  // fresh index

  const Actions answer = s.reply(at_ms(2104), reply_from(id, 1, msec(1), 3, code_id));
  ASSERT_EQ(all_of<Deliver>(answer).size(), 1u);
  EXPECT_EQ(s.engine().repository().observe(ReplicaId{1}).gateway_delay, msec(3));
  EXPECT_EQ(s.engine().td_clamped(), 0u);
}

TEST(RequestEngineCrashTest, CodedCopySentBeforeARedispatchKeepsItsOwnSendTime) {
  EngineConfig config;
  config.dispatch.completion = CompletionSpec::k_of_n(3);
  Script s{config, 4, make_all_replicas_policy()};
  s.warm(at_ms(0));

  const RequestId id = s.invoke(at_ms(2000));
  const Actions sent = s.run_until(at_ms(2000));
  const auto sends = all_of<SendRequest>(sent);
  ASSERT_EQ(sends.size(), 1u);
  const std::uint64_t code_id = sends[0]->request.code_id;
  s.reply(at_ms(2005), reply_from(id, 1, msec(1), 0, code_id));
  // 1 distinct + 1 awaited (replica 2) < 3: redispatch at 2600 ms.
  s.depart(at_ms(2600), {3, 4});
  ASSERT_EQ(all_of<SendRequest>(s.run_until(at_ms(2600))).size(), 1u);
  EXPECT_TRUE(s.engine().find_record(id)->redispatched);

  // Replica 2's original chunk (sent at 2000 ms) answers after the
  // redispatch with 900 ms of service: t_d = 2902 - 2000 - 900 = 2 ms.
  s.reply(at_ms(2902), reply_from(id, 2, msec(900), 1, code_id));
  EXPECT_EQ(s.engine().repository().observe(ReplicaId{2}).gateway_delay, msec(2));
  EXPECT_EQ(s.engine().td_clamped(), 0u);
}

TEST(RequestEngineCrashTest, OldCopiesAnsweringAfterARedispatchDoNotFailItFast) {
  EngineConfig config;
  config.dispatch.completion = CompletionSpec::k_of_n(3);
  Script s{config, 3, make_all_replicas_policy()};
  s.warm(at_ms(0));

  const std::uint64_t failures = s.engine().failure_tracker().failures();
  const RequestId id = s.invoke(at_ms(2000));
  const Actions sent = s.run_until(at_ms(2000));
  const auto sends = all_of<SendRequest>(sent);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->chunks, (std::vector<std::uint32_t>{0, 1, 2}));
  const std::uint64_t code_id = sends[0]->request.code_id;
  // 0 distinct + 2 awaited < 3: both survivors get fresh chunks.
  s.depart(at_ms(2001), {3});
  const Actions redispatched = s.run_until(at_ms(2001));
  const auto resent = all_of<SendRequest>(redispatched);
  ASSERT_EQ(resent.size(), 1u);
  EXPECT_EQ(resent[0]->targets, (std::vector<EndpointId>{endpoint_of(1), endpoint_of(2)}));
  EXPECT_EQ(resent[0]->chunks, (std::vector<std::uint32_t>{3, 4}));

  // The copies sent first answer first and leave nothing awaited, but
  // chunks 3 and 4 are still in flight: no failure yet.
  const Actions first = s.reply(at_ms(2005), reply_from(id, 1, msec(1), 0, code_id));
  const Actions second = s.reply(at_ms(2006), reply_from(id, 2, msec(1), 1, code_id));
  EXPECT_TRUE(all_of<Outcome>(first).empty());
  EXPECT_TRUE(all_of<Outcome>(second).empty());
  EXPECT_EQ(s.engine().failure_tracker().failures(), failures);
  ASSERT_NE(s.engine().find_record(id), nullptr);

  const Actions third = s.reply(at_ms(2008), reply_from(id, 1, msec(1), 3, code_id));
  ASSERT_EQ(all_of<Deliver>(third).size(), 1u);
  EXPECT_TRUE(all_of<Deliver>(third)[0]->info.timely);
  EXPECT_EQ(s.engine().failure_tracker().failures(), failures);
}

TEST(RequestEngineCrashTest, ProbeWhoseTargetDepartsIsDropped) {
  EngineConfig config;
  config.probe_staleness = msec(50);
  Script s{config, 2};
  Actions start;
  s.engine().start(at_ms(1), start);
  ASSERT_EQ(all_of<ArmTimer>(start).size(), 1u);
  s.warm(at_ms(1));

  // Both replicas stay silent past the staleness bound: the scan probes
  // each of them.
  Actions probe;
  s.engine().on_timer(at_ms(1200), all_of<ArmTimer>(start)[0]->timer, probe);
  std::size_t probes_to_1 = 0;
  for (const SendRequest* send : all_of<SendRequest>(probe)) {
    if (send->targets == std::vector<EndpointId>{endpoint_of(1)}) ++probes_to_1;
  }
  EXPECT_EQ(probes_to_1, 1u);
  EXPECT_EQ(s.engine().outstanding_requests(ReplicaId{1}), 1u);

  // Its only target departs: the probe is dropped, never redispatched.
  const Actions after = s.depart(at_ms(1201), {1});
  EXPECT_TRUE(all_of<SendRequest>(after).empty());
  EXPECT_TRUE(all_of<ArmTimer>(after).empty());
  EXPECT_EQ(s.engine().outstanding_requests(ReplicaId{1}), 0u);
}

}  // namespace
}  // namespace aqua::core
