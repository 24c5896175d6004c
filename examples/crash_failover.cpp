// Equation 3 in action: the selected set survives the crash of its own
// best member.
//
// The adversary crashes the replica with the highest F_R(t) — the member
// m0 that Algorithm 1 always protects — immediately after each request is
// transmitted, before it can reply. Because the feasibility test excluded
// m0, the remaining members still meet the client's probability, so the
// client keeps receiving timely responses throughout.
#include <cstdio>

#include "gateway/system.h"

int main() {
  using namespace aqua;
  using namespace aqua::gateway;

  SystemConfig config;
  config.seed = 5;
  AquaSystem system{config};

  // Replica 1 is the obvious favourite; 2..5 are solid backups.
  auto& favourite = system.add_replica(
      replica::make_sampled_service(stats::make_truncated_normal(msec(20), msec(4))));
  for (int i = 0; i < 4; ++i) {
    system.add_replica(
        replica::make_sampled_service(stats::make_truncated_normal(msec(60), msec(12))));
  }

  ClientWorkload workload;
  workload.total_requests = 40;
  workload.think_time = stats::make_constant(msec(250));
  ClientApp& client = system.add_client(core::QosSpec{msec(200), 0.9}, workload);

  // Warm up, then kill the favourite right after the 10th request leaves
  // the client gateway — the worst possible moment (Equation 3's case).
  system.run_for(sec(3));
  std::printf("crash-failover demo: killing the protected favourite mid-request\n\n");

  bool crashed = false;
  while (!crashed && client.issued() < 10) system.simulator().step();
  // The 10th request has been intercepted; let it be transmitted, then crash.
  system.simulator().schedule_after(msec(2), [&] {
    std::printf("favourite (replica-%llu) crashes %zu requests in, just after transmission\n",
                static_cast<unsigned long long>(favourite.id().value()), client.issued());
    favourite.crash_host();
  });
  crashed = true;

  system.run_until_clients_done(sec(120));

  const auto report = client.report();
  std::printf("\n%s\n", report.summary_line().c_str());
  std::printf("timing failures: %zu of %zu (budget: %.0f%%)\n", report.timing_failures,
              report.requests, 10.0 * static_cast<double>(report.requests) / 100.0);
  std::printf("\nper-request outcomes around the crash:\n");
  std::printf("%-6s %-12s %-14s %-8s\n", "req", "redundancy", "response(ms)", "timely");
  int i = 0;
  for (const RequestRecord& record : client.handler().history()) {
    ++i;
    if (i < 7 || i > 16) continue;  // the interesting window
    std::printf("%-6d %-12zu %-14.1f %-8s\n", i, record.redundancy,
                record.response_time ? to_ms(*record.response_time) : -1.0,
                record.timely ? "yes" : "NO");
  }
  std::printf("\nthe request in flight at the crash is answered by the OTHER selected\n");
  std::printf("member (Equation 3); later requests select from the surviving replicas\n");
  std::printf("once the view change evicts the crashed favourite.\n");
  return 0;
}
