// Quickstart: the smallest useful AQuA-RS deployment.
//
// Builds a simulated service with three replicas, one client with a QoS
// specification (deadline + minimum probability), runs 20 requests, and
// prints what the timing fault handler did: how many replicas it chose
// per request, the response times, and the observed failure rate.
#include <cstdio>

#include "gateway/system.h"

int main() {
  using namespace aqua;
  using namespace aqua::gateway;

  // 1. A system: simulator + LAN + one replicated-service group.
  SystemConfig config;
  config.seed = 7;
  AquaSystem system{config};

  // 2. Three replicas, each on its own host; service time ~ N(50ms, 15ms).
  for (int i = 0; i < 3; ++i) {
    system.add_replica(
        replica::make_sampled_service(stats::make_truncated_normal(msec(50), msec(15))));
  }

  // 3. One client: deadline 120ms, to be met with probability >= 0.9;
  //    20 requests with 200ms of think time in between.
  ClientWorkload workload;
  workload.total_requests = 20;
  workload.think_time = stats::make_constant(msec(200));
  ClientApp& client = system.add_client(core::QosSpec{msec(120), 0.9}, workload);

  // 4. Run until the workload completes (simulated time).
  system.run_until_clients_done(sec(60));

  // 5. What happened?
  const trace::ClientRunReport report = client.report();
  std::printf("%s\n\n", report.summary_line().c_str());
  std::printf("%-6s %-12s %-14s %-8s %s\n", "req", "redundancy", "response(ms)", "timely",
              "note");
  int i = 0;
  for (const RequestRecord& record : client.handler().history()) {
    std::printf("%-6d %-12zu %-14.1f %-8s %s\n", ++i, record.redundancy,
                record.response_time ? to_ms(*record.response_time) : -1.0,
                record.timely ? "yes" : "NO",
                record.cold_start ? "cold start: all replicas" : "");
  }
  std::printf("\nobserved failure probability: %.3f (budget was %.2f)\n",
              report.failure_probability(), 1.0 - 0.9);
  return 0;
}
