#include "net/lan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.h"

namespace aqua::net {
namespace {

struct Received {
  EndpointId from;
  std::string body;
  TimePoint at;
};

class LanTest : public ::testing::Test {
 protected:
  LanConfig quiet_config() {
    LanConfig cfg;
    cfg.jitter_sigma = 0.0;  // deterministic delays for exact assertions
    return cfg;
  }

  sim::Simulator sim_;
};

Payload text(const std::string& s, std::int64_t bytes = 100) {
  return Payload::make(s, bytes);
}

TEST_F(LanTest, UnicastDeliversPayload) {
  Lan lan{sim_, Rng{1}, quiet_config()};
  std::vector<Received> inbox;
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  const EndpointId b = lan.create_endpoint(HostId{2}, [&](EndpointId from, const Payload& p) {
    inbox.push_back({from, *p.get_if<std::string>(), sim_.now()});
  });
  lan.unicast(a, b, text("hello"));
  sim_.run();
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].from, a);
  EXPECT_EQ(inbox[0].body, "hello");
  EXPECT_EQ(lan.messages_delivered(), 1u);
}

TEST_F(LanTest, OffHostDelayMatchesConfiguredModel) {
  LanConfig cfg = quiet_config();
  cfg.stack_delay = usec(1000);
  cfg.wire_base = usec(200);
  cfg.per_byte_us = 0.01;
  Lan lan{sim_, Rng{1}, cfg};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  TimePoint arrival{};
  const EndpointId b = lan.create_endpoint(
      HostId{2}, [&](EndpointId, const Payload&) { arrival = sim_.now(); });
  lan.unicast(a, b, text("x", 1000));  // 1000 bytes -> 10us
  sim_.run();
  EXPECT_EQ(count_us(arrival), 1000 + 200 + 10);
}

TEST_F(LanTest, SameHostUsesLocalDelay) {
  LanConfig cfg = quiet_config();
  cfg.local_delay = usec(120);
  Lan lan{sim_, Rng{1}, cfg};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  TimePoint arrival{};
  const EndpointId b = lan.create_endpoint(
      HostId{1}, [&](EndpointId, const Payload&) { arrival = sim_.now(); });
  lan.unicast(a, b, text("x", 100000));  // size irrelevant on loopback
  sim_.run();
  EXPECT_EQ(count_us(arrival), 120);
}

TEST_F(LanTest, JitterMakesDelaysVary) {
  LanConfig cfg;
  cfg.jitter_sigma = 0.5;
  Lan lan{sim_, Rng{1}, cfg};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  std::vector<std::int64_t> arrivals;
  const EndpointId b = lan.create_endpoint(
      HostId{2}, [&](EndpointId, const Payload&) { arrivals.push_back(count_us(sim_.now())); });
  for (int i = 0; i < 20; ++i) lan.unicast(a, b, text("x"));
  sim_.run();
  ASSERT_EQ(arrivals.size(), 20u);
  // Not all identical.
  EXPECT_NE(*std::min_element(arrivals.begin(), arrivals.end()),
            *std::max_element(arrivals.begin(), arrivals.end()));
}

TEST_F(LanTest, RejectsZeroJitterMedianWithNonzeroSigma) {
  // lognormal jitter is median * exp(sigma * z): a zero median with
  // jitter enabled would feed log(0) into the sampler and every delay
  // would be NaN. The constructor must refuse the config outright.
  LanConfig cfg;
  cfg.jitter_median = Duration::zero();
  cfg.jitter_sigma = 0.4;
  EXPECT_THROW((Lan{sim_, Rng{1}, cfg}), std::invalid_argument);

  // Zero median is fine when jitter is disabled.
  cfg.jitter_sigma = 0.0;
  Lan lan{sim_, Rng{1}, cfg};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  TimePoint arrival{};
  const EndpointId b = lan.create_endpoint(
      HostId{2}, [&](EndpointId, const Payload&) { arrival = sim_.now(); });
  lan.unicast(a, b, text("x"));
  sim_.run();
  EXPECT_GT(count_us(arrival), 0);
}

TEST_F(LanTest, MulticastReachesAllDestinations) {
  Lan lan{sim_, Rng{1}, quiet_config()};
  const EndpointId src = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  int delivered = 0;
  std::vector<EndpointId> dests;
  for (int i = 0; i < 5; ++i) {
    dests.push_back(lan.create_endpoint(HostId{static_cast<std::uint64_t>(i + 2)},
                                        [&](EndpointId, const Payload&) { ++delivered; }));
  }
  lan.multicast(src, dests, text("m"));
  sim_.run();
  EXPECT_EQ(delivered, 5);
}

TEST_F(LanTest, MulticastFanoutCostIncreasesDelay) {
  LanConfig cfg = quiet_config();
  cfg.multicast_member_cost = usec(40);
  Lan lan{sim_, Rng{1}, cfg};
  const EndpointId src = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  TimePoint unicast_arrival{}, multicast_arrival{};
  const EndpointId d1 = lan.create_endpoint(
      HostId{2}, [&](EndpointId, const Payload&) { unicast_arrival = sim_.now(); });
  const EndpointId d2 = lan.create_endpoint(
      HostId{3}, [&](EndpointId, const Payload&) { multicast_arrival = sim_.now(); });
  lan.unicast(src, d1, text("u"));
  sim_.run();
  const Duration unicast_delay = unicast_arrival - TimePoint{};
  const TimePoint start = sim_.now();
  const std::vector<EndpointId> group{d2, d1};
  lan.multicast(src, group, text("m"));
  sim_.run();
  const Duration multicast_delay = multicast_arrival - start;
  EXPECT_EQ(multicast_delay - unicast_delay, usec(40));  // one extra member
}

TEST_F(LanTest, MessagesToDeadHostAreDropped) {
  Lan lan{sim_, Rng{1}, quiet_config()};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  int delivered = 0;
  const EndpointId b =
      lan.create_endpoint(HostId{2}, [&](EndpointId, const Payload&) { ++delivered; });
  lan.set_host_alive(HostId{2}, false);
  lan.unicast(a, b, text("x"));
  sim_.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(lan.messages_dropped(), 1u);
}

TEST_F(LanTest, InFlightMessagesToCrashingHostAreDropped) {
  Lan lan{sim_, Rng{1}, quiet_config()};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  int delivered = 0;
  const EndpointId b =
      lan.create_endpoint(HostId{2}, [&](EndpointId, const Payload&) { ++delivered; });
  lan.unicast(a, b, text("x"));
  // Crash while the message is in flight (delay > 0).
  sim_.schedule_after(usec(1), [&] { lan.set_host_alive(HostId{2}, false); });
  sim_.run();
  EXPECT_EQ(delivered, 0);
}

TEST_F(LanTest, SendsFromDeadHostAreDropped) {
  Lan lan{sim_, Rng{1}, quiet_config()};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  int delivered = 0;
  const EndpointId b =
      lan.create_endpoint(HostId{2}, [&](EndpointId, const Payload&) { ++delivered; });
  lan.set_host_alive(HostId{1}, false);
  lan.unicast(a, b, text("x"));
  sim_.run();
  EXPECT_EQ(delivered, 0);
}

TEST_F(LanTest, HostRestoreResumesDelivery) {
  Lan lan{sim_, Rng{1}, quiet_config()};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  int delivered = 0;
  const EndpointId b =
      lan.create_endpoint(HostId{2}, [&](EndpointId, const Payload&) { ++delivered; });
  lan.set_host_alive(HostId{2}, false);
  lan.set_host_alive(HostId{2}, true);
  lan.unicast(a, b, text("x"));
  sim_.run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(LanTest, HostStateSubscribersAreNotified) {
  Lan lan{sim_, Rng{1}, quiet_config()};
  lan.create_endpoint(HostId{5}, [](EndpointId, const Payload&) {});
  std::vector<std::pair<std::uint64_t, bool>> events;
  lan.subscribe_host_state(
      [&](HostId host, bool alive) { events.emplace_back(host.value(), alive); });
  lan.set_host_alive(HostId{5}, false);
  lan.set_host_alive(HostId{5}, false);  // duplicate: no second notification
  lan.set_host_alive(HostId{5}, true);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<std::uint64_t, bool>{5, false}));
  EXPECT_EQ(events[1], (std::pair<std::uint64_t, bool>{5, true}));
}

TEST_F(LanTest, DestroyedEndpointDropsTraffic) {
  Lan lan{sim_, Rng{1}, quiet_config()};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  int delivered = 0;
  const EndpointId b =
      lan.create_endpoint(HostId{2}, [&](EndpointId, const Payload&) { ++delivered; });
  lan.destroy_endpoint(b);
  lan.unicast(a, b, text("x"));
  sim_.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_FALSE(lan.endpoint_exists(b));
}

TEST_F(LanTest, UnknownSenderIsACountedDrop) {
  // As over UDP: a threaded replica's reply can outlive its endpoint.
  Lan lan{sim_, Rng{1}, quiet_config()};
  int delivered = 0;
  const EndpointId b =
      lan.create_endpoint(HostId{2}, [&](EndpointId, const Payload&) { ++delivered; });
  EXPECT_NO_THROW(lan.unicast(EndpointId{999}, b, text("x")));
  sim_.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(lan.messages_sent(), 1u);
  EXPECT_EQ(lan.messages_dropped(), 1u);
}

TEST_F(LanTest, LossRateDropsApproximatelyThatFraction) {
  LanConfig cfg = quiet_config();
  cfg.loss_rate = 0.3;
  Lan lan{sim_, Rng{42}, cfg};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  int delivered = 0;
  const EndpointId b =
      lan.create_endpoint(HostId{2}, [&](EndpointId, const Payload&) { ++delivered; });
  constexpr int kSends = 2000;
  for (int i = 0; i < kSends; ++i) lan.unicast(a, b, text("x"));
  sim_.run();
  EXPECT_NEAR(static_cast<double>(delivered) / kSends, 0.7, 0.04);
}

TEST_F(LanTest, SpikeMultipliesDelays) {
  LanConfig cfg = quiet_config();
  cfg.spike.enabled = true;
  cfg.spike.mean_interval = msec(1);  // spike almost immediately
  cfg.spike.mean_duration = sec(100);
  cfg.spike.delay_factor = 10.0;
  Lan lan{sim_, Rng{7}, cfg};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  TimePoint arrival{};
  const EndpointId b = lan.create_endpoint(
      HostId{2}, [&](EndpointId, const Payload&) { arrival = sim_.now(); });
  // Let the spike start.
  sim_.run_for(sec(1));
  ASSERT_TRUE(lan.spike_active());
  const TimePoint start = sim_.now();
  lan.unicast(a, b, text("x", 0));
  sim_.run_for(sec(1));
  const auto base = count_us(cfg.stack_delay) + count_us(cfg.wire_base);
  EXPECT_EQ(count_us(arrival - start), base * 10);
}

TEST_F(LanTest, FifoPerPairPreventsReordering) {
  LanConfig cfg;
  cfg.jitter_sigma = 1.2;  // heavy jitter would reorder without FIFO
  cfg.fifo_per_pair = true;
  Lan lan{sim_, Rng{5}, cfg};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  std::vector<int> received;
  const EndpointId b = lan.create_endpoint(HostId{2}, [&](EndpointId, const Payload& p) {
    received.push_back(*p.get_if<int>());
  });
  for (int i = 0; i < 200; ++i) lan.unicast(a, b, Payload::make(i, 10));
  sim_.run();
  ASSERT_EQ(received.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

TEST_F(LanTest, WithoutFifoHeavyJitterReorders) {
  LanConfig cfg;
  cfg.jitter_sigma = 1.2;
  cfg.fifo_per_pair = false;
  Lan lan{sim_, Rng{5}, cfg};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  std::vector<int> received;
  const EndpointId b = lan.create_endpoint(HostId{2}, [&](EndpointId, const Payload& p) {
    received.push_back(*p.get_if<int>());
  });
  for (int i = 0; i < 200; ++i) lan.unicast(a, b, Payload::make(i, 10));
  sim_.run();
  ASSERT_EQ(received.size(), 200u);
  EXPECT_FALSE(std::is_sorted(received.begin(), received.end()));
}

TEST_F(LanTest, FifoOnlyConstrainsTheSamePair) {
  LanConfig cfg = quiet_config();
  cfg.fifo_per_pair = true;
  Lan lan{sim_, Rng{5}, cfg};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  TimePoint b_arrival{}, c_arrival{};
  const EndpointId b = lan.create_endpoint(
      HostId{2}, [&](EndpointId, const Payload&) { b_arrival = sim_.now(); });
  const EndpointId c = lan.create_endpoint(
      HostId{3}, [&](EndpointId, const Payload&) { c_arrival = sim_.now(); });
  // A big message to b (long per-byte delay), then a tiny one to c: the
  // c message must NOT be delayed behind b's.
  lan.unicast(a, b, Payload::make(1, 1'000'000));
  lan.unicast(a, c, Payload::make(2, 1));
  sim_.run();
  EXPECT_LT(c_arrival, b_arrival);
}

TEST_F(LanTest, PayloadTypeDispatch) {
  Lan lan{sim_, Rng{1}, quiet_config()};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  bool got_string = false, got_int = false;
  const EndpointId b = lan.create_endpoint(HostId{2}, [&](EndpointId, const Payload& p) {
    if (p.get_if<std::string>() != nullptr) got_string = true;
    if (p.get_if<int>() != nullptr) got_int = true;
  });
  lan.unicast(a, b, Payload::make(std::string{"s"}, 10));
  lan.unicast(a, b, Payload::make(7, 10));
  sim_.run();
  EXPECT_TRUE(got_string);
  EXPECT_TRUE(got_int);
}

TEST_F(LanTest, CountersTrackSendsAndDrops) {
  Lan lan{sim_, Rng{1}, quiet_config()};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  const EndpointId b = lan.create_endpoint(HostId{2}, [](EndpointId, const Payload&) {});
  lan.unicast(a, b, text("ok"));
  lan.unicast(a, EndpointId{12345}, text("gone"));
  sim_.run();
  EXPECT_EQ(lan.messages_sent(), 2u);
  EXPECT_EQ(lan.messages_delivered(), 1u);
  EXPECT_EQ(lan.messages_dropped(), 1u);
}

}  // namespace
}  // namespace aqua::net
