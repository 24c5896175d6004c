#include "gateway/client_gateway.h"

#include <gtest/gtest.h>

#include "gateway/system.h"

namespace aqua::gateway {
namespace {

SystemConfig quiet_system() {
  SystemConfig cfg;
  cfg.seed = 1;
  cfg.lan.jitter_sigma = 0.0;
  return cfg;
}

TEST(ClientGatewayTest, LoadsOneHandlerPerService) {
  AquaSystem system{quiet_system()};
  system.add_service_replica("x", replica::make_sampled_service(stats::make_constant(msec(5))));
  system.add_service_replica("y", replica::make_sampled_service(stats::make_constant(msec(5))));

  ClientGateway gateway{system.simulator(), system.lan(), ClientId{9}, system.new_host(), Rng{3}};
  auto& hx = gateway.load_handler("x", system.service("x"), core::QosSpec{msec(200), 0.5});
  auto& hy = gateway.load_handler("y", system.service("y"), core::QosSpec{msec(100), 0.9});
  EXPECT_EQ(gateway.handler_count(), 2u);
  EXPECT_NE(&hx, &hy);
  EXPECT_EQ(&gateway.handler("x"), &hx);
  // Loading again returns the existing handler (QoS untouched).
  auto& hx2 = gateway.load_handler("x", system.service("x"), core::QosSpec{msec(999), 0.0});
  EXPECT_EQ(&hx2, &hx);
  EXPECT_EQ(hx.qos().deadline, msec(200));
}

TEST(ClientGatewayTest, HandlersShareTheClientIdentityButNotState) {
  AquaSystem system{quiet_system()};
  system.add_service_replica("x", replica::make_sampled_service(stats::make_constant(msec(5))));
  system.add_service_replica("y", replica::make_sampled_service(stats::make_constant(msec(50))));
  ClientGateway gateway{system.simulator(), system.lan(), ClientId{9}, system.new_host(), Rng{3}};
  auto& hx = gateway.load_handler("x", system.service("x"), core::QosSpec{msec(200), 0.5});
  auto& hy = gateway.load_handler("y", system.service("y"), core::QosSpec{msec(200), 0.5});
  system.run_for(msec(50));
  bool x_done = false, y_done = false;
  hx.invoke(1, [&](const ReplyInfo&) { x_done = true; });
  hy.invoke(2, [&](const ReplyInfo&) { y_done = true; });
  system.run_for(sec(2));
  EXPECT_TRUE(x_done);
  EXPECT_TRUE(y_done);
  EXPECT_EQ(hx.client(), hy.client());
  // Independent repositories: each saw only its own service.
  EXPECT_EQ(hx.repository().replica_count(), 1u);
  EXPECT_EQ(hy.repository().replica_count(), 1u);
  const auto x_obs = hx.repository().observe_all();
  EXPECT_EQ(x_obs[0].service_samples[0], msec(5));
  const auto y_obs = hy.repository().observe_all();
  EXPECT_EQ(y_obs[0].service_samples[0], msec(50));
}

TEST(ClientGatewayTest, UnknownHandlerThrows) {
  AquaSystem system{quiet_system()};
  ClientGateway gateway{system.simulator(), system.lan(), ClientId{9}, system.new_host(), Rng{3}};
  EXPECT_FALSE(gateway.has_handler("nope"));
  EXPECT_THROW((void)gateway.handler("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace aqua::gateway
