// Search-engine scenario — the paper's motivating class of "stateless
// applications such as search engines" (SS1) under realistic contention.
//
// Eight replicas with heterogeneous hardware (two fast, four standard,
// two slow/flaky with heavy-tailed latency) serve twelve concurrent
// clients with mixed QoS tiers: interactive (tight deadline, high
// probability), standard, and batch (loose deadline, best effort). The
// example shows how Algorithm 1 gives each tier the redundancy it pays
// for, and how QoS-violation callbacks surface under-provisioned tiers.
#include <cstdio>
#include <string>
#include <vector>

#include "gateway/system.h"

int main() {
  using namespace aqua;
  using namespace aqua::gateway;

  SystemConfig config;
  config.seed = 2024;
  AquaSystem system{config};

  // The server fleet.
  for (int i = 0; i < 2; ++i) {  // fast machines
    system.add_replica(
        replica::make_sampled_service(stats::make_truncated_normal(msec(25), msec(6))));
  }
  for (int i = 0; i < 4; ++i) {  // standard machines
    system.add_replica(
        replica::make_sampled_service(stats::make_truncated_normal(msec(60), msec(18))));
  }
  for (int i = 0; i < 2; ++i) {  // old machines with heavy-tailed latency
    system.add_replica(replica::make_sampled_service(
        stats::make_bimodal(0.15, stats::make_truncated_normal(msec(70), msec(15)),
                            stats::make_bounded_pareto(1.3, msec(150), msec(900)))));
  }

  struct Tier {
    const char* name;
    core::QosSpec qos;
    int clients;
    Duration think;
  };
  const std::vector<Tier> tiers{
      {"interactive", core::QosSpec{msec(120), 0.95}, 4, msec(300)},
      {"standard", core::QosSpec{msec(250), 0.8}, 5, msec(500)},
      {"batch", core::QosSpec{msec(800), 0.0}, 3, msec(200)},
  };

  struct TierClients {
    const Tier* tier;
    std::vector<ClientApp*> apps;
    int violations = 0;
  };
  std::vector<TierClients> groups;
  int stagger = 0;
  for (const Tier& tier : tiers) {
    TierClients group{&tier, {}, 0};
    for (int c = 0; c < tier.clients; ++c) {
      ClientWorkload workload;
      workload.total_requests = 60;
      workload.think_time = stats::make_exponential(tier.think);
      workload.start_delay = msec(23 * stagger++);
      ClientApp& app = system.add_client(tier.qos, workload);
      group.apps.push_back(&app);
    }
    groups.push_back(std::move(group));
  }

  system.run_until_clients_done(sec(600));

  std::printf("search engine: 8 heterogeneous replicas, 12 clients in 3 QoS tiers\n\n");
  std::printf("%-13s %-10s %14s %12s %12s %14s %12s\n", "tier", "deadline", "requests",
              "fail prob", "budget", "redundancy", "callbacks");
  for (const TierClients& group : groups) {
    std::size_t requests = 0, failures = 0, callbacks = 0;
    double redundancy = 0.0;
    for (ClientApp* app : group.apps) {
      const auto report = app->report();
      requests += report.requests;
      failures += report.timing_failures;
      callbacks += app->qos_violations();
      redundancy += report.mean_redundancy() * static_cast<double>(report.requests);
    }
    std::printf("%-13s %-10s %14zu %12.3f %12.2f %14.2f %12zu\n", group.tier->name,
                to_string(group.tier->qos.deadline).c_str(), requests,
                requests ? static_cast<double>(failures) / static_cast<double>(requests) : 0.0,
                1.0 - group.tier->qos.min_probability,
                requests ? redundancy / static_cast<double>(requests) : 0.0, callbacks);
  }

  std::printf("\nhow much work each replica did (fast machines should dominate):\n");
  for (auto* replica : system.replicas()) {
    std::printf("  replica-%llu: %llu requests serviced\n",
                static_cast<unsigned long long>(replica->id().value()),
                static_cast<unsigned long long>(replica->serviced_requests()));
  }
  return 0;
}
